"""Tests for BGP policy routing: preference, export, valley-freeness."""

import pytest

from repro.routing.bgp import BGPError, BGPRoute, BGPTable
from repro.topology.asys import ASLink, ASTier, AutonomousSystem, Relationship
from repro.topology.geography import get_city
from repro.topology.network import Topology

from tests.routing.oracles import preference_key


def _line_topology(rels: list[Relationship]) -> Topology:
    """AS chain 1-2-...-n with given relationships (rel of i+1 from i)."""
    topo = Topology()
    city = get_city("chicago")
    n = len(rels) + 1
    for asn in range(1, n + 1):
        topo.add_as(
            AutonomousSystem(asn=asn, name=f"as{asn}", tier=ASTier.TRANSIT, cities=[city])
        )
    for i, rel in enumerate(rels, start=1):
        topo.add_as_link(
            ASLink(a=i, b=i + 1, rel_ab=rel, exchange_cities=("chicago",))
        )
    return topo


def test_direct_customer_route():
    topo = _line_topology([Relationship.CUSTOMER])  # 2 is 1's customer
    table = BGPTable(topo)
    assert table.as_path(1, 2) == (1, 2)
    assert table.as_path(2, 1) == (2, 1)


def test_valley_free_blocks_stub_transit():
    # 1 and 3 are providers of 2: a path 1-2-3 would be a valley.
    topo = _line_topology([Relationship.CUSTOMER, Relationship.PROVIDER])
    table = BGPTable(topo)
    assert table.as_path(1, 2) == (1, 2)
    assert table.as_path(1, 3) is None  # 2 must not transit its providers
    assert table.as_path(3, 1) is None


def test_peer_peer_not_transitive():
    # 1 peers 2, 2 peers 3: peer routes are not exported to peers.
    topo = _line_topology([Relationship.PEER, Relationship.PEER])
    table = BGPTable(topo)
    assert table.as_path(1, 2) == (1, 2)
    assert table.as_path(1, 3) is None


def test_provider_chain_works():
    # 1 buys from 2, 2 buys from 3: customer routes propagate everywhere.
    topo = _line_topology([Relationship.PROVIDER, Relationship.PROVIDER])
    table = BGPTable(topo)
    assert table.as_path(1, 3) == (1, 2, 3)
    assert table.as_path(3, 1) == (3, 2, 1)


def test_customer_route_preferred_over_peer():
    """Diamond: 1 reaches 4 via customer 2 or peer 3; customer wins even
    though both paths have equal length."""
    topo = Topology()
    city = get_city("chicago")
    for asn in (1, 2, 3, 4):
        topo.add_as(
            AutonomousSystem(asn=asn, name=f"as{asn}", tier=ASTier.TRANSIT, cities=[city])
        )
    # 2 is 1's customer; 3 is 1's peer; 4 is customer of both 2 and 3.
    topo.add_as_link(ASLink(a=1, b=2, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=1, b=3, rel_ab=Relationship.PEER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=2, b=4, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=3, b=4, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    table = BGPTable(topo)
    assert table.as_path(1, 4) == (1, 2, 4)


def test_shorter_as_path_wins_within_class():
    """1 reaches 4 via peer 3 directly or via peer 2 then customer...: among
    same-class routes, AS-path length breaks the tie."""
    topo = Topology()
    city = get_city("chicago")
    for asn in (1, 2, 3, 4):
        topo.add_as(
            AutonomousSystem(asn=asn, name=f"as{asn}", tier=ASTier.TRANSIT, cities=[city])
        )
    # Both 2 and 3 are providers of 1 and of 4; additionally 2 reaches 4
    # through an extra intermediate 5.
    topo.add_as(AutonomousSystem(asn=5, name="as5", tier=ASTier.TRANSIT, cities=[city]))
    topo.add_as_link(ASLink(a=1, b=2, rel_ab=Relationship.PROVIDER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=1, b=3, rel_ab=Relationship.PROVIDER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=2, b=5, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=5, b=4, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    topo.add_as_link(ASLink(a=3, b=4, rel_ab=Relationship.CUSTOMER, exchange_cities=("chicago",)))
    table = BGPTable(topo)
    assert table.as_path(1, 4) == (1, 3, 4)


def test_route_preference_key_ordering():
    better = BGPRoute(dest=9, as_path=(1, 9), learned_from=Relationship.CUSTOMER)
    worse = BGPRoute(dest=9, as_path=(1, 9), learned_from=Relationship.PROVIDER)
    assert preference_key(better) < preference_key(worse)
    shorter = BGPRoute(dest=9, as_path=(1, 9), learned_from=Relationship.PEER)
    longer = BGPRoute(dest=9, as_path=(1, 5, 9), learned_from=Relationship.PEER)
    assert preference_key(shorter) < preference_key(longer)


def test_unknown_destination_raises(topo1999):
    table = BGPTable(topo1999)
    with pytest.raises(BGPError):
        table.route(1, 10**9)


def test_full_reachability_generated_topology(topo1999):
    table = BGPTable(topo1999)
    assert table.reachable_fraction() == 1.0


def test_as_paths_are_valley_free(topo1999):
    """No generated route descends (to a customer) and then ascends."""
    table = BGPTable(topo1999)
    asns = sorted(topo1999.ases)[:20]
    for src in asns:
        for dst in asns:
            if src == dst:
                continue
            path = table.as_path(src, dst)
            assert path is not None
            # Classify each hop: +1 up (to provider), 0 peer, -1 down.
            phases = []
            for a, b in zip(path, path[1:]):
                rel = topo1999.relationship(a, b)
                if rel is Relationship.PROVIDER:
                    phases.append(1)
                elif rel is Relationship.PEER:
                    phases.append(0)
                else:
                    phases.append(-1)
            # Valley-free: ups, then at most one peer hop, then downs.
            descended = False
            peered = False
            for p in phases:
                if p == 1:
                    assert not descended and not peered, f"valley in {path}"
                elif p == 0:
                    assert not descended and not peered, f"double peer in {path}"
                    peered = True
                else:
                    descended = True


def test_as_paths_are_consistent_chains(topo1999):
    """Each AS's chosen path must agree with its next hop's chosen path."""
    table = BGPTable(topo1999)
    asns = sorted(topo1999.ases)[:12]
    for src in asns:
        for dst in asns:
            if src == dst:
                continue
            path = table.as_path(src, dst)
            if path and len(path) > 1:
                assert table.as_path(path[1], dst) == path[1:]
