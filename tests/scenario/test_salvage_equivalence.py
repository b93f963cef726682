"""Differential tests: the timeline's next-hop salvage vs the per-path oracle.

``ScenarioTimeline`` keeps a destination's converged column across a
removal unless a routed holder outside the removed ASes has its next hop
removed, or its link to that next hop removed.
:func:`tests.scenario.oracles.dest_affected` walks every surviving
holder's full AS path instead.  On generated topologies with random sets
of removed adjacencies and ASes, both must evict the same destinations,
and every kept column must answer None for the removed ASes.
"""

import random

import pytest

from repro.routing.bgp import BGPTable
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.topology import TopologyConfig, generate_topology

from tests.scenario import oracles


def _route_tables(topo):
    """Every destination's ``{holder: route}`` table."""
    table = BGPTable(topo)
    table.converge_all()
    asns = sorted(topo.ases)
    return {
        dest: {
            asn: route
            for asn in asns
            if (route := table.route(asn, dest)) is not None
        }
        for dest in asns
    }


@pytest.mark.parametrize("era", ["1995", "1999"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_salvage_evicts_the_oracles_destinations(era, seed):
    topo = generate_topology(TopologyConfig.for_era(era, seed=seed))
    before = _route_tables(topo)
    rng = random.Random(seed)
    for _ in range(12):
        n_links, n_ases = rng.randint(0, 3), rng.randint(0, 2)
        if n_links + n_ases == 0:
            n_links = 1
        links = rng.sample(topo.as_links, n_links)
        asns = set(rng.sample(sorted(topo.ases), n_ases))
        pairs = {frozenset((link.a, link.b)) for link in links}
        clauses = [f"link-down:{link.a}-{link.b}:at=0" for link in links]
        clauses += [f"node-down:{asn}:at=0" for asn in sorted(asns)]
        timeline = ScenarioTimeline(topo, ScenarioPlan.parse(";".join(clauses)))
        BGPTable(topo).converge_all()
        timeline.advance_to(0.0)
        kept = topo.routing_cache("bgp")["routes"]
        expected = {
            dest
            for dest, table in before.items()
            if oracles.dest_affected(dest, table, pairs, asns)
        }
        assert set(before) - set(kept) == expected, clauses
        for column in kept.values():
            for asn in asns:
                assert column.route(asn) is None, (clauses, column.dest, asn)
                assert column.as_path(asn) is None
        timeline.reset()
