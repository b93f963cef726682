"""Timeline tests: apply/revert identity, salvage correctness, semantics.

The headline property (the PR's differential guarantee): applying a
scenario's events and then reverting them leaves BGP tables
*route-for-route identical* to never applying anything — across seeds
and with the store filled by one batch or many small ones — following
the pattern of ``tests/routing/test_bgp_equivalence.py``.
"""

import numpy as np
import pytest

from repro.obs import runtime as obs
from repro.routing.bgp import BGPTable
from repro.routing.columnar import VIA_NONE
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioError, ScenarioTimeline
from repro.topology import TopologyConfig, generate_topology
from repro.topology.asys import Relationship

from tests.routing.test_bgp_equivalence import _gadget


def _full_tables(topo, *, batch=None):
    """Converge every destination, ``batch`` at a time (default: all at
    once), and snapshot the route store as ``{dest: {holder: route}}``."""
    table = BGPTable(topo)
    dests = sorted(topo.ases)
    step = batch or len(dests)
    for lo in range(0, len(dests), step):
        table.converge_all(dests[lo:lo + step])
    store = topo.routing_cache("bgp")["routes"]
    return {
        dest: {
            asn: route
            for asn in sorted(topo.ases)
            if (route := column.route(asn)) is not None
        }
        for dest, column in store.items()
    }


def _holders(column):
    """ASNs holding a route in a stored route column."""
    return {int(column.index.asn[i]) for i in np.flatnonzero(column.via != VIA_NONE)}


def _topo_for(seed):
    return generate_topology(TopologyConfig.for_era("1999", seed=seed))


def _demo_plan(topo):
    """A plan touching several kinds, where every event reverts."""
    first = topo.as_links[0]
    second = topo.as_links[len(topo.as_links) // 2]
    clauses = [f"link-down:{first.a}-{first.b}:at=300:for=600"]
    if {second.a, second.b} != {first.a, first.b}:
        clauses.append(f"link-down:{second.a}-{second.b}:at=600:for=300")
    return ScenarioPlan.parse(";".join(clauses))


@pytest.mark.parametrize("seed", [3, 11, 1999])
@pytest.mark.parametrize("batch", [None, 2])
def test_apply_then_revert_is_route_identical(seed, batch):
    pristine_topo = _topo_for(seed)
    baseline = _full_tables(pristine_topo)

    topo = _topo_for(seed)
    plan = _demo_plan(topo)
    timeline = ScenarioTimeline(topo, plan)
    _full_tables(topo, batch=batch)  # warm tables for the salvage to sift
    for t in timeline.boundaries():
        timeline.advance_to(t)
        _full_tables(topo, batch=batch)
    assert _full_tables(topo, batch=batch) == baseline
    timeline.reset()
    assert _full_tables(topo, batch=batch) == baseline


def _transit_candidate(topo):
    """Two non-adjacent ASes sharing a core-router city, or None."""
    asns = sorted(topo.ases)
    for a in asns:
        for b in asns:
            if a >= b or topo.as_link_between(a, b) is not None:
                continue
            if any(
                topo.has_core_router(a, c.name) and topo.has_core_router(b, c.name)
                for c in topo.ases[a].cities
            ):
                return a, b
    return None


def _plan_of_kind(kind, topo):
    """A one-event plan of ``kind`` firing at t=300 on live structure."""
    link = topo.as_links[len(topo.as_links) // 3]
    if kind == "link-down":
        spec = f"link-down:{link.a}-{link.b}:at=300:for=300"
    elif kind == "depeer":
        peer = next(al for al in topo.as_links if al.rel_ab is Relationship.PEER)
        spec = f"depeer:{peer.a}-{peer.b}:at=300"
    elif kind == "node-down":
        spec = f"node-down:{min(topo.ases)}:at=300"
    elif kind == "region-outage":
        spec = f"region-outage:{topo.routers[0].city.region}:at=300:for=300"
    else:
        a, b = _transit_candidate(topo)
        spec = f"new-transit:{a}-{b}:at=300"
    return ScenarioPlan.parse(spec)


@pytest.mark.parametrize("seed", [3, 11])
def test_selective_salvage_matches_full_reconvergence(seed):
    """After each plan kind, the salvaged-then-topped-up store equals a
    from-scratch convergence of the mutated topology."""
    kinds = ["demo", "link-down", "depeer", "node-down", "region-outage", "new-transit"]
    for kind in kinds:
        topo = _topo_for(seed)
        plan = _demo_plan(topo) if kind == "demo" else _plan_of_kind(kind, topo)
        timeline = ScenarioTimeline(topo, plan)
        _full_tables(topo)
        with obs.capture() as cap:
            timeline.advance_to(300.0)
        counters = cap.blob()["metrics"]["counters"]
        # Removals sift the store for salvage; added capacity drops it all.
        assert ("scenario.dests_retained" in counters) == (kind != "new-transit")
        salvaged = _full_tables(topo)
        topo.routing_cache("bgp").clear()
        assert salvaged == _full_tables(topo), kind


def test_salvage_retains_unaffected_destinations():
    # 1 -- 2 -- 3 and an isolated leaf 4 under 3: removing 1-2 cannot
    # affect destination 4's subtree routes at 3.
    topo = _gadget(
        4,
        [
            (1, 2, Relationship.PEER),
            (2, 3, Relationship.PEER),
            (3, 4, Relationship.CUSTOMER),
        ],
    )
    _full_tables(topo)
    plan = ScenarioPlan.parse("link-down:1-2:at=0")
    timeline = ScenarioTimeline(topo, plan)
    timeline.advance_to(0.0)
    retained = topo.routing_cache("bgp")["routes"]
    # dest 4: routes at 2, 3 and 4 never traverse 1-2 (2 won't re-export
    # its peer-learned route, so 1 never had a route to 4 to begin with).
    assert 4 in retained
    assert _holders(retained[4]) == {2, 3, 4}
    # dest 1's table had a route at 2 via the removed adjacency: evicted.
    assert 1 not in retained


def test_node_down_isolates_and_reverts():
    topo = _gadget(
        3, [(1, 2, Relationship.CUSTOMER), (2, 3, Relationship.CUSTOMER)]
    )
    baseline = _full_tables(topo)
    plan = ScenarioPlan.parse("node-down:2:at=0")
    timeline = ScenarioTimeline(topo, plan)
    timeline.advance_to(0.0)
    table = BGPTable(topo)
    table.converge_all()
    assert table.route(1, 3) is None
    assert table.route(3, 1) is None
    assert table.route(1, 2) is None
    timeline.reset()
    assert _full_tables(topo) == baseline


def test_depeer_is_permanent_and_overlap_is_noop():
    topo = _gadget(
        3, [(1, 2, Relationship.PEER), (2, 3, Relationship.CUSTOMER)]
    )
    plan = ScenarioPlan.parse("depeer:1-2:at=0;node-down:1:at=300")
    timeline = ScenarioTimeline(topo, plan)
    timeline.advance_to(0.0)
    assert topo.as_link_between(1, 2) is None
    # node-down of the already-disconnected AS1 must be a harmless no-op.
    timeline.advance_to(300.0)
    table = BGPTable(topo)
    table.converge_all()
    assert table.route(2, 3) is not None
    timeline.reset()
    assert topo.as_link_between(1, 2) is not None


def test_new_transit_and_region_outage_on_generated_topology():
    topo = _topo_for(3)
    baseline = _full_tables(topo)
    found = _transit_candidate(topo)
    assert found is not None, "generator topology has no transit candidate"
    a, b = found
    n_links = len(topo.links)
    region = topo.routers[0].city.region
    plan = ScenarioPlan.parse(
        f"new-transit:{a}-{b}:at=300;region-outage:{region}:at=600:for=300"
    )
    timeline = ScenarioTimeline(topo, plan)
    # new-transit pre-materializes its substrate link at construction.
    assert len(topo.links) == n_links + 1
    timeline.advance_to(300.0)
    assert topo.as_link_between(a, b) is not None
    assert topo.exchange_links_between(a, b)
    timeline.advance_to(600.0)  # region dark
    timeline.advance_to(900.0)  # region restored
    timeline.reset()
    assert topo.as_link_between(a, b) is None
    assert not topo.exchange_links_between(a, b)
    assert _full_tables(topo) == baseline


def test_validation_errors():
    topo = _gadget(2, [(1, 2, Relationship.PEER)])
    for spec, fragment in [
        ("link-down:1-9:at=0", "unknown ASN"),
        ("link-down:1-2:at=0;depeer:7-8:at=0", "unknown ASN"),
        ("region-outage:atlantis:at=0:for=300", "no routers in region"),
        ("new-transit:1-2:at=0", "already adjacent"),
    ]:
        with pytest.raises(ScenarioError, match=fragment):
            ScenarioTimeline(topo, ScenarioPlan.parse(spec))


def test_timeline_is_monotonic():
    topo = _gadget(2, [(1, 2, Relationship.PEER)])
    timeline = ScenarioTimeline(
        topo, ScenarioPlan.parse("link-down:1-2:at=300:for=300")
    )
    timeline.advance_to(300.0)
    with pytest.raises(ScenarioError, match="monotonic"):
        timeline.advance_to(0.0)
    timeline.reset()
    assert timeline.now == 0.0
    timeline.advance_to(0.0)  # fine again after reset
