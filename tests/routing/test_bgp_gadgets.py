"""Classic BGP policy gadgets and structural properties.

These are the textbook configurations from the interdomain-routing
literature (Gao–Rexford safety conditions, shortest-path violations,
multihoming) exercised against our decision/export implementation.
"""

from hypothesis import given, settings, strategies as st

from repro.routing.bgp import BGPTable
from repro.topology.asys import ASLink, ASTier, AutonomousSystem, Relationship
from repro.topology.geography import get_city
from repro.topology.network import Topology

from tests.routing.oracles import converge_fixpoint


def _topo(n: int, links: list[tuple[int, int, Relationship]]) -> Topology:
    """Build an AS-only topology; rel is of b from a ('b is a's rel')."""
    topo = Topology()
    city = get_city("chicago")
    for asn in range(1, n + 1):
        topo.add_as(
            AutonomousSystem(
                asn=asn, name=f"as{asn}", tier=ASTier.TRANSIT, cities=[city]
            )
        )
    for a, b, rel in links:
        rel_ab = rel if a < b else rel.inverse()
        topo.add_as_link(
            ASLink(a=min(a, b), b=max(a, b), rel_ab=rel_ab, exchange_cities=("chicago",))
        )
    return topo


def test_policy_beats_shortest_path():
    """The canonical inefficiency: 1 reaches 3 via its provider chain
    (1-2-4-3) even though a direct peer link 1-3 ... wait, here: a
    2-hop customer route is preferred over a 1-hop provider route only
    by local-pref class; with classes equal, length wins.  Construct the
    case where the policy path is LONGER than the forbidden short path:
    1 and 3 are both customers of 2; 1 peers with 4, 4 peers with 3 is
    invalid (peer-peer not transitive), so 1 must use 1-2-3 even if a
    physically shorter peer chain exists."""
    topo = _topo(
        4,
        [
            (2, 1, Relationship.CUSTOMER),   # 1 is 2's customer
            (2, 3, Relationship.CUSTOMER),   # 3 is 2's customer
            (1, 4, Relationship.PEER),
            (4, 3, Relationship.PEER),
        ],
    )
    table = BGPTable(topo)
    # The peer-peer-peer path (1,4,3) is inexpressible.
    assert table.as_path(1, 3) == (1, 2, 3)


def test_multihomed_customer_prefers_customer_route():
    """5 is a customer of both 2 and 3; 1 reaches 5 through whichever
    neighbor it has a customer route to, regardless of length."""
    topo = _topo(
        5,
        [
            (1, 2, Relationship.CUSTOMER),   # 2 is 1's customer
            (1, 3, Relationship.PEER),
            (2, 5, Relationship.CUSTOMER),
            (3, 5, Relationship.CUSTOMER),
        ],
    )
    table = BGPTable(topo)
    # Both (1,2,5) and (1,3,5) have length 3, but 2 is a customer.
    assert table.as_path(1, 5) == (1, 2, 5)


def test_prefer_customer_even_when_longer():
    """Customer routes win even at a longer AS-path length."""
    topo = _topo(
        5,
        [
            (1, 2, Relationship.CUSTOMER),   # 2 is 1's customer
            (2, 4, Relationship.CUSTOMER),   # 4 is 2's customer
            (4, 5, Relationship.CUSTOMER),
            (1, 3, Relationship.PEER),
            (3, 5, Relationship.CUSTOMER),
        ],
    )
    table = BGPTable(topo)
    # Customer route (1,2,4,5) vs shorter peer route (1,3,5).
    assert table.as_path(1, 5) == (1, 2, 4, 5)


def test_tiebreak_by_next_hop_asn():
    """Equal class, equal length: deterministic lowest-next-hop tie-break."""
    topo = _topo(
        4,
        [
            (1, 2, Relationship.PROVIDER),   # 2 is 1's provider
            (1, 3, Relationship.PROVIDER),
            (2, 4, Relationship.CUSTOMER),
            (3, 4, Relationship.CUSTOMER),
        ],
    )
    table = BGPTable(topo)
    assert table.as_path(1, 4) == (1, 2, 4)


def test_sibling_routes_exchange_everything():
    """Siblings act as one organization: peer-learned routes DO cross a
    sibling boundary.  Only the fixpoint models siblings (BGPTable
    refuses them), so laundering is checked there."""
    topo = _topo(
        3,
        [
            (1, 2, Relationship.SIBLING),
            (2, 3, Relationship.PEER),
        ],
    )
    to_3, _rounds = converge_fixpoint(topo, 3)
    assert to_3[1].as_path == (1, 2, 3)
    assert to_3[1].learned_from is Relationship.SIBLING
    # And the peer's routes reach the sibling.
    to_1, _rounds = converge_fixpoint(topo, 1)
    assert to_1[3].as_path == (3, 2, 1)


def test_isolated_as_unreachable():
    topo = _topo(3, [(1, 2, Relationship.PEER)])
    table = BGPTable(topo)
    assert table.as_path(1, 3) is None
    assert table.as_path(3, 1) is None
    assert table.as_path(1, 2) == (1, 2)


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_random_hierarchies_converge_loop_free(seed):
    """Random strict provider hierarchies always converge to loop-free,
    consistent routes (Gao-Rexford safety)."""
    import random

    rng = random.Random(seed)
    n = rng.randint(4, 10)
    links = []
    # Strict hierarchy: each AS > 1 buys transit from a lower-numbered AS.
    for asn in range(2, n + 1):
        provider = rng.randint(1, asn - 1)
        links.append((provider, asn, Relationship.CUSTOMER))
    # Sprinkle peer links between same-"level" ASes.
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(1, n + 1), 2)
        if not any({a, b} == {x, y} for x, y, _ in links):
            links.append((a, b, Relationship.PEER))
    topo = _topo(n, links)
    table = BGPTable(topo)
    for src in range(1, n + 1):
        for dst in range(1, n + 1):
            if src == dst:
                continue
            path = table.as_path(src, dst)
            assert path is not None, f"{src}->{dst} unreachable in hierarchy"
            assert len(set(path)) == len(path), f"loop in {path}"
            assert path[0] == src and path[-1] == dst
            # Consistency with the next hop's choice.
            if len(path) > 1:
                assert table.as_path(path[1], dst) == path[1:]
