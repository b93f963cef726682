"""IGP-memo stability across scenario apply/revert cycles.

Scenario events toggle AS-level structure only (adjacencies, exchange
index); the intra-AS router/link substrate is never touched.  The
topology's invalidation hook therefore clears only the BGP bag of
``routing_cache`` — IGP tables and their all-pairs matrices must stay
warm across ``link-down`` / ``new-transit`` apply/revert round-trips.
These are regression tests for that contract: if someone "simplifies"
the AS-level mutators back to a full cache clear, every dataset and
what-if run pays an O(routers^2) matrix rebuild per scenario segment.

(Substrate mutators — ``add_router``/``add_link`` — still clear the
full cache, which is why timelines must be constructed before IGP
state is warmed: ``new-transit`` materializes its exchange link at
construction time.)
"""

import math

import pytest

from repro.obs import runtime as obs
from repro.routing.bgp import BGPTable
from repro.routing.igp import IGPSuite
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.topology import TopologyConfig, generate_topology
from repro.topology.asys import ASLink, Relationship


def _topo_for(seed):
    return generate_topology(TopologyConfig.for_era("1999", seed=seed))


def _warm_igp(topo):
    """Build every IGP table and force its shortest-path state.

    Returns (tables, costs) so the caller can later check both object
    identity and numeric stability.
    """
    suite = IGPSuite(topo)
    tables = {}
    costs = {}
    for asn in topo.ases:
        table = suite.table(asn)
        routers = topo.routers_of(asn)
        src, dst = routers[0], routers[-1]
        costs[asn] = (src, dst, table.cost(src, dst))
        tables[asn] = table
    return tables, costs


def _scenario_plan(topo):
    """link-down plus new-transit, both chosen from live structure."""
    first = topo.as_links[0]
    # A pair with no current adjacency, for the new-transit event.
    linked = {frozenset((link.a, link.b)) for link in topo.as_links}
    asns = sorted(topo.ases)
    pair = next(
        (a, b)
        for i, a in enumerate(asns)
        for b in asns[i + 1:]
        if frozenset((a, b)) not in linked
    )
    return ScenarioPlan.parse(
        ";".join(
            [
                f"link-down:{first.a}-{first.b}:at=300:for=600",
                f"new-transit:{pair[0]}-{pair[1]}:at=600",
            ]
        )
    )


@pytest.mark.parametrize("seed", [3, 1999])
def test_igp_memo_survives_link_down_and_new_transit(seed):
    topo = _topo_for(seed)
    # Timeline first: new-transit materializes a substrate link at
    # construction time, which legitimately clears everything.
    timeline = ScenarioTimeline(topo, _scenario_plan(topo))
    tables, costs = _warm_igp(topo)
    bag = topo.routing_cache("igp")
    matrices = {asn: table._dist_rows for asn, table in tables.items()}
    assert all(rows is not None for rows in matrices.values())

    BGPTable(topo).converge_all()
    for t in timeline.boundaries():
        timeline.advance_to(t)
        BGPTable(topo).converge_all()
    timeline.reset()

    # Same bag object, same table objects, same built matrices: nothing
    # was invalidated, nothing was rebuilt.
    assert topo.routing_cache("igp") is bag
    for asn, table in tables.items():
        assert bag[asn] is table
    for asn, rows in matrices.items():
        assert tables[asn]._dist_rows is rows
    # And the memoized answers are still the pristine ones.
    suite = IGPSuite(topo)
    for asn, (src, dst, cost) in costs.items():
        assert suite.table(asn) is tables[asn]
        assert math.isclose(suite.table(asn).cost(src, dst), cost)


def test_no_matrix_rebuilds_during_scenario():
    topo = _topo_for(1999)
    timeline = ScenarioTimeline(topo, _scenario_plan(topo))
    _warm_igp(topo)
    BGPTable(topo).converge_all()
    with obs.capture() as cap:
        for t in timeline.boundaries():
            timeline.advance_to(t)
            BGPTable(topo).converge_all()
        timeline.reset()
        # Re-query through a fresh suite: warm tables mean no builds.
        suite = IGPSuite(topo)
        for asn in topo.ases:
            routers = topo.routers_of(asn)
            suite.table(asn).cost(routers[0], routers[-1])
    counters = cap.blob()["metrics"]["counters"]
    assert counters.get("routing.igp.matrix_builds", 0) == 0
    assert counters.get("routing.igp.tables", 0) == 0
    # Sanity: BGP did reconverge inside the capture window (the capture
    # saw real routing work, so the zeros above are meaningful).
    assert any(k.startswith("routing.bgp") for k in counters), counters


def test_as_level_mutators_preserve_igp_bag():
    """remove/insert/add_as_link invalidate BGP only, never IGP."""
    topo = _topo_for(3)
    tables, _ = _warm_igp(topo)
    bag = topo.routing_cache("igp")
    topo.routing_cache("bgp")["probe"] = {}

    as_link = topo.as_links[0]
    index = topo.remove_as_link(as_link)
    assert "probe" not in topo.routing_cache("bgp")
    assert topo.routing_cache("igp") is bag

    topo.insert_as_link(index, as_link)
    assert topo.routing_cache("igp") is bag

    linked = {frozenset((link.a, link.b)) for link in topo.as_links}
    asns = sorted(topo.ases)
    a, b = next(
        (x, y)
        for i, x in enumerate(asns)
        for y in asns[i + 1:]
        if frozenset((x, y)) not in linked
    )
    city = topo.ases[a].cities[0].name
    added = topo.add_as_link(
        ASLink(a=a, b=b, rel_ab=Relationship.PEER, exchange_cities=(city,))
    )
    assert topo.routing_cache("igp") is bag
    for asn, table in tables.items():
        assert bag[asn] is table
    topo.remove_as_link(added)
