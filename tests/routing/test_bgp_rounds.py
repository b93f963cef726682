"""Differential tests: ``convergence_rounds`` vs the relaxation's round count.

:meth:`BGPTable.convergence_rounds` reads the node count of the longest
AS path in a destination's stable state from its converged column.  The
synchronous relaxation (:func:`tests.routing.oracles.converge_fixpoint`)
counts the rounds it takes to stabilize.  The two agree on every
generated topology, pristine and after a link or an AS goes down; the
gadget at the end pins a hierarchy where they do not.
"""

import random

import pytest

from repro.routing.bgp import BGPTable
from repro.scenario.plan import ScenarioPlan
from repro.scenario.timeline import ScenarioTimeline
from repro.topology import TopologyConfig, generate_topology
from repro.topology.asys import Relationship

from tests.routing.oracles import converge_fixpoint
from tests.routing.test_bgp_equivalence import _gadget


def _assert_rounds_match(topo):
    table = BGPTable(topo)
    for dest in sorted(topo.ases):
        _routes, rounds = converge_fixpoint(topo, dest)
        assert table.convergence_rounds(dest) == rounds, f"AS{dest}"


@pytest.mark.parametrize("era", ["1995", "1999"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("event", [None, "link-down", "node-down"])
def test_rounds_equal_relaxation_on_generated_topologies(era, seed, event):
    topo = generate_topology(TopologyConfig.for_era(era, seed=seed))
    BGPTable(topo).converge_all()  # warm columns for the salvage to keep
    rng = random.Random(seed)
    if event == "link-down":
        link = rng.choice(topo.as_links)
        spec = f"link-down:{link.a}-{link.b}:at=0"
    elif event == "node-down":
        spec = f"node-down:{rng.choice(sorted(topo.ases))}:at=0"
    if event is not None:
        ScenarioTimeline(topo, ScenarioPlan.parse(spec)).advance_to(0.0)
    _assert_rounds_match(topo)


def test_rounds_forget_a_downed_holder():
    # 3 hangs below 2 below 1.  Downing 3 keeps destination 1's column
    # (no route runs through 3), but its longest path loses a hop.
    customer = Relationship.CUSTOMER
    topo = _gadget(3, [(1, 2, customer), (2, 3, customer)])
    assert BGPTable(topo).convergence_rounds(1) == 3
    ScenarioTimeline(topo, ScenarioPlan.parse("node-down:3:at=0")).advance_to(0.0)
    assert 1 in topo.routing_cache("bgp")["routes"]
    _routes, rounds = converge_fixpoint(topo, 1)
    assert BGPTable(topo).convergence_rounds(1) == rounds == 2


def test_rounds_can_exceed_longest_path():
    """Where the two definitions part: a route upgrade mid-relaxation.

    Destination 7 is a customer of 2 and a peer of 1; the other links
    run provider→customer 1→2, 2→3, 1→3, 1→4, 1→5, 5→6 and 3→6.  In
    round 1, AS 1 adopts the peer route (1, 7).  In round 2 the customer
    route (1, 2, 7) reaches it and wins on local-pref, while its
    customers adopt routes through (1, 7).  They re-route in round 3,
    AS 6 below them in round 4, and round 5 confirms: 5 rounds, while
    the stable state's longest path, which ``convergence_rounds``
    reads, has 4 ASes.
    """
    customer = Relationship.CUSTOMER
    topo = _gadget(7, [
        (1, 2, customer),
        (2, 3, customer),
        (1, 3, customer),
        (1, 4, customer),
        (1, 5, customer),
        (5, 6, customer),
        (3, 6, customer),
        (2, 7, customer),
        (1, 7, Relationship.PEER),
    ])
    routes, rounds = converge_fixpoint(topo, 7)
    table = BGPTable(topo)
    assert rounds == 5
    assert table.convergence_rounds(7) == 4
    assert routes[1].as_path == (1, 2, 7)
    for asn in sorted(topo.ases):
        assert table.route(asn, 7) == routes.get(asn), f"AS{asn}"
