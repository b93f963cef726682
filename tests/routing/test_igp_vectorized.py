"""IGPTable (scipy all-pairs) vs a per-source heap Dijkstra reference.

The two must agree on every cost and on reachability.  Where equal-cost
shortest paths exist the chosen path may differ (the reference keeps
the first offer within a 1e-12 epsilon, scipy takes the true minimum),
so path assertions on large ASes check validity and optimality.  ASes
under 16 routers must match the reference hop for hop: the committed
replay hashes were recorded with the reference's paths for them.
"""

import heapq
import math

import pytest

from repro.routing.forwarding import PathResolver
from repro.routing.igp import IGPError, IGPTable, link_metric
from repro.topology import TopologyConfig, generate_topology, place_hosts

#: ASes below this router count must match the reference hop for hop.
SMALL_AS_ROUTERS = 16


def _reference(topo, asn, src):
    """Per-source heap Dijkstra over ``asn``'s induced router subgraph.

    Returns ``(dist, pred)`` with ``pred[v] = (u, link_id)``.
    """
    routers = set(topo.routers_of(asn))
    style = topo.ases[asn].igp_style
    dist = {src: 0.0}
    pred = {}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for link in topo.links_of(u):
            v = link.other(u)
            if v not in routers:
                continue
            nd = d + link_metric(link, style)
            if nd < dist.get(v, math.inf) - 1e-12:
                dist[v] = nd
                pred[v] = (u, link.link_id)
                heapq.heappush(heap, (nd, v))
    return dist, pred


def _reference_path(pred, src, dst):
    routers, links = [dst], []
    while routers[-1] != src:
        prev, link_id = pred[routers[-1]]
        routers.append(prev)
        links.append(link_id)
    return tuple(reversed(routers)), tuple(reversed(links))


@pytest.fixture(scope="module")
def topo():
    return generate_topology(TopologyConfig.for_era("1999", seed=42))


def _checkable_ases(topo, limit=6):
    """The largest ASes (the ones with the most equal-cost choices)."""
    sized = sorted(
        topo.ases, key=lambda a: (-len(topo.routers_of(a)), a)
    )
    return sized[:limit]


def _small_ases(topo):
    return [a for a in sorted(topo.ases) if len(topo.routers_of(a)) < SMALL_AS_ROUTERS]


def test_backends_agree_on_all_costs(topo):
    for asn in _checkable_ases(topo) + _small_ases(topo):
        routers = topo.routers_of(asn)
        table = IGPTable(topo, asn)
        for s in routers:
            ref, _pred = _reference(topo, asn, s)
            for d in routers:
                cost = table.cost(s, d)
                if d not in ref:
                    assert math.isinf(cost), (asn, s, d)
                else:
                    assert cost == pytest.approx(ref[d]), (asn, s, d)


def test_small_as_paths_match_reference(topo):
    checked = 0
    for asn in _small_ases(topo):
        routers = topo.routers_of(asn)
        table = IGPTable(topo, asn)
        for s in routers:
            _dist, pred = _reference(topo, asn, s)
            for d in routers:
                path = table.path(s, d)
                assert (path.routers, path.links) == _reference_path(pred, s, d), (
                    asn, s, d,
                )
                checked += 1
    assert checked > 0


def test_vectorized_paths_are_valid_shortest_paths(topo):
    for asn in _checkable_ases(topo, limit=3):
        routers = topo.routers_of(asn)
        table = IGPTable(topo, asn)
        for s in routers[:8]:
            ref, _pred = _reference(topo, asn, s)
            for d in routers:
                if math.isinf(table.cost(s, d)):
                    continue
                path = table.path(s, d)
                assert path.routers[0] == s and path.routers[-1] == d
                assert len(path.links) == len(path.routers) - 1
                total = 0.0
                for (u, v), lid in zip(
                    zip(path.routers, path.routers[1:]), path.links
                ):
                    link = topo.links[lid]
                    assert {link.u, link.v} == {u, v}, (asn, s, d, lid)
                    total += link_metric(link, table.style)
                # Valid AND optimal: cost equals the reference's.
                assert total == pytest.approx(path.cost)
                assert path.cost == pytest.approx(ref[d])


def test_vectorized_error_semantics_match(topo):
    asn = _checkable_ases(topo, limit=1)[0]
    other = next(a for a in sorted(topo.ases) if a != asn)
    foreign = topo.routers_of(other)[0]
    inside = topo.routers_of(asn)[0]
    table = IGPTable(topo, asn)
    with pytest.raises(IGPError, match=f"not in AS{asn}"):
        table.cost(foreign, inside)
    with pytest.raises(IGPError, match=f"not in AS{asn}"):
        table.path(foreign, inside)
    with pytest.raises(IGPError, match="unreachable"):
        table.path(inside, foreign)
    # Trivial self-path.
    self_path = table.path(inside, inside)
    assert self_path.routers == (inside,)
    assert self_path.links == ()
    assert self_path.cost == 0.0


def test_igp_path_memo_returns_same_object(topo):
    asn = _checkable_ases(topo, limit=1)[0]
    routers = topo.routers_of(asn)
    table = IGPTable(topo, asn)
    first = table.path(routers[0], routers[-1])
    assert table.path(routers[0], routers[-1]) is first


def test_resolvers_share_igp_tables_and_bgp_routes(topo):
    place = generate_topology(TopologyConfig.for_era("1995", seed=46))
    place_hosts(place, 6, seed=7)
    r1 = PathResolver(place)
    names = place.host_names()
    p1 = r1.resolve(names[0], names[1])
    # A second resolver over the same topology reuses the shared routing
    # state and produces identical paths.
    r2 = PathResolver(place)
    assert r2._igp.table(place.host(names[0]).asn) is r1._igp.table(
        place.host(names[0]).asn
    )
    assert r2._bgp._routes is r1._bgp._routes
    assert r2.resolve(names[0], names[1]) == p1
