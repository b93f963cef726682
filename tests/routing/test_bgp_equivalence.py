"""Differential tests: the BGPTable solver vs the fixpoint oracle.

:class:`BGPTable` runs the three-stage Gao-Rexford kernels; it must be
*route-for-route identical* to the synchronous fixpoint relaxation
(:func:`tests.routing.oracles.converge_fixpoint`) — same reachability,
same AS paths, same learned-from classes, same tie-breaks — on every
topology the generator can produce.  These tests converge every
destination on generated topologies across seeds and eras and on random
hierarchies and compare the full route tables, plus the structural
refusals (siblings, customer-provider cycles), the batch API's
batch/lazy identity and the answers for source ASNs the topology lacks.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.bgp import BGPTable
from repro.routing.columnar import BGPError, converge_all
from repro.topology import TopologyConfig, generate_topology
from repro.topology.asys import ASLink, ASTier, AutonomousSystem, Relationship
from repro.topology.columnar import from_topology
from repro.topology.geography import get_city
from repro.topology.network import Topology

from tests.routing.oracles import converge_fixpoint


def _gadget(n: int, links: list[tuple[int, int, Relationship]]) -> Topology:
    """AS-only topology; rel is of b from a's viewpoint ('b is a's rel')."""
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


def _assert_identical_tables(topo: Topology) -> None:
    """Converge everything with both solvers and compare exhaustively."""
    table = BGPTable(topo)
    table.converge_all()
    for dest in sorted(topo.ases):
        oracle, _rounds = converge_fixpoint(topo, dest)
        for asn in sorted(topo.ases):
            assert table.route(asn, dest) == oracle.get(asn), (
                f"route divergence at AS{asn} -> AS{dest}"
            )


def _assert_valley_free(topo: Topology, path: tuple[int, ...]) -> None:
    """No path may go down (or across a peer edge) and then up again."""
    descended = False
    peers_crossed = 0
    for a, b in zip(path, path[1:]):
        rel = topo.relationship(a, b)
        assert rel is not None, f"adjacent ASes {a},{b} in {path} not linked"
        if rel is Relationship.PROVIDER:
            assert not descended, f"valley in {path}: uphill after downhill"
            assert peers_crossed == 0, f"valley in {path}: uphill after peer"
        elif rel is Relationship.PEER:
            peers_crossed += 1
            assert peers_crossed <= 1, f"two peer edges in {path}"
            assert not descended, f"peer edge after downhill in {path}"
        elif rel is Relationship.CUSTOMER:
            descended = True
        # SIBLING edges launder routes and are exempt (none generated).


@pytest.mark.parametrize("era", ["1995", "1999"])
@pytest.mark.parametrize("seed", [41, 42, 43])
def test_generated_topologies_route_identical(era, seed):
    _assert_identical_tables(generate_topology(TopologyConfig.for_era(era, seed=seed)))


@pytest.mark.parametrize("era", ["1995", "1999"])
def test_generated_topologies_valley_free(era):
    topo = generate_topology(TopologyConfig.for_era(era, seed=42))
    table = BGPTable(topo)
    table.converge_all()
    checked = 0
    for dest in sorted(topo.ases):
        for asn in sorted(topo.ases):
            path = table.as_path(asn, dest)
            if path is None or len(path) < 2:
                continue
            _assert_valley_free(topo, path)
            checked += 1
    assert checked > 0


def test_gadget_topologies_route_identical():
    gadgets = [
        # Peer-peer-peer inexpressibility.
        _gadget(4, [
            (2, 1, Relationship.CUSTOMER),
            (2, 3, Relationship.CUSTOMER),
            (1, 4, Relationship.PEER),
            (4, 3, Relationship.PEER),
        ]),
        # Customer route preferred although longer.
        _gadget(5, [
            (1, 2, Relationship.CUSTOMER),
            (2, 4, Relationship.CUSTOMER),
            (4, 5, Relationship.CUSTOMER),
            (1, 3, Relationship.PEER),
            (3, 5, Relationship.CUSTOMER),
        ]),
        # Next-hop ASN tie-break.
        _gadget(4, [
            (1, 2, Relationship.PROVIDER),
            (1, 3, Relationship.PROVIDER),
            (2, 4, Relationship.CUSTOMER),
            (3, 4, Relationship.CUSTOMER),
        ]),
        # Disconnected AS.
        _gadget(3, [(1, 2, Relationship.PEER)]),
        # Diamond with a peer shortcut at the top.
        _gadget(6, [
            (1, 3, Relationship.PROVIDER),
            (2, 4, Relationship.PROVIDER),
            (3, 5, Relationship.PROVIDER),
            (4, 6, Relationship.PROVIDER),
            (5, 6, Relationship.PEER),
            (3, 4, Relationship.PEER),
        ]),
    ]
    for topo in gadgets:
        _assert_identical_tables(topo)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_random_hierarchies_route_identical(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(4, 12)
    links = []
    for asn in range(2, n + 1):
        provider = rng.randint(1, asn - 1)
        links.append((provider, asn, Relationship.CUSTOMER))
    for _ in range(rng.randint(0, n // 2)):
        a, b = rng.sample(range(1, n + 1), 2)
        if not any({a, b} == {x, y} for x, y, _ in links):
            links.append((a, b, Relationship.PEER))
    _assert_identical_tables(_gadget(n, links))


def test_sibling_topology_raises_bgp_error():
    topo = _gadget(3, [
        (1, 2, Relationship.SIBLING),
        (2, 3, Relationship.PEER),
    ])
    table = BGPTable(topo)
    with pytest.raises(BGPError, match="SIBLING"):
        table.as_path(1, 3)
    with pytest.raises(BGPError, match="SIBLING"):
        table.converge_all()


def test_customer_provider_cycle_raises_bgp_error():
    topo = _gadget(3, [
        (1, 2, Relationship.PROVIDER),   # 2 is 1's provider
        (2, 3, Relationship.PROVIDER),   # 3 is 2's provider
        (3, 1, Relationship.PROVIDER),   # 1 is 3's provider: a cycle
    ])
    assert not topo.relationship_index().acyclic
    with pytest.raises(BGPError, match="customer-provider cycle"):
        BGPTable(topo).converge_all()


def test_converge_all_unknown_destination():
    topo = _gadget(2, [(1, 2, Relationship.PEER)])
    with pytest.raises(BGPError, match="unknown destination"):
        BGPTable(topo).converge_all([99])


def test_converge_all_serial_parallel_and_lazy_identical():
    cfg = TopologyConfig.for_era("1995", seed=44)
    # Distinct topology instances so the shared per-topology route cache
    # cannot make the comparison vacuous (the generator is deterministic).
    topo_serial = generate_topology(cfg)
    topo_lazy = generate_topology(cfg)
    serial = BGPTable(topo_serial)
    lazy = BGPTable(topo_lazy)
    serial.converge_all()
    for dest in sorted(topo_serial.ases):
        for asn in sorted(topo_serial.ases):
            s = serial.route(asn, dest)
            assert s == lazy.route(asn, dest), f"AS{asn}->AS{dest}"


def test_converge_all_subset_and_idempotence():
    topo = generate_topology(TopologyConfig.for_era("1995", seed=45))
    table = BGPTable(topo)
    dests = sorted(topo.ases)[:5]
    table.converge_all(dests)
    table.converge_all(dests)  # second call is a no-op, not an error
    for d in dests:
        assert table.route(d, d) is not None


def test_unknown_source_asns_have_no_route():
    # A negative ASN must not wrap around the dense ASN lookup onto the
    # highest AS, and one past the end must not raise.
    topo = generate_topology(TopologyConfig.for_era("1999", seed=1999))
    dest = min(topo.ases)
    unknown = [-1, 0, max(topo.ases) + 1, 10**6]
    assert all(asn not in topo.ases for asn in unknown)
    columnar = converge_all(from_topology(topo), [dest])
    table = BGPTable(topo)
    for src in unknown:
        assert columnar.as_path(src, dest) is None, src
        assert columnar.route(src, dest) is None, src
        assert table.as_path(src, dest) is None, src
        assert table.route(src, dest) is None, src
    assert columnar.as_path(max(topo.ases), dest) is not None


def test_shared_route_cache_reused_and_invalidated():
    topo = _gadget(3, [
        (1, 2, Relationship.CUSTOMER),
        (2, 3, Relationship.CUSTOMER),
    ])
    first = BGPTable(topo)
    assert first.as_path(3, 1) == (3, 2, 1)
    # A second table over the same topology sees the converged store.
    second = BGPTable(topo)
    assert second._routes is first._routes
    before = first._routes
    # Mutating the AS graph drops the shared store: every table, one
    # built before the mutation included, starts fresh and sees the new
    # link.
    city = get_city("chicago")
    topo.add_as(AutonomousSystem(asn=4, name="as4", tier=ASTier.TRANSIT, cities=[city]))
    topo.add_as_link(ASLink(a=1, b=4, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    third = BGPTable(topo)
    assert third._routes is not before
    assert first._routes is third._routes
    assert not third._routes
    assert third.as_path(4, 1) == (4, 1)
    assert first.as_path(4, 1) == (4, 1)
    assert first.as_path(3, 1) == (3, 2, 1)
