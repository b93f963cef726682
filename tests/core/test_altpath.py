"""Tests for the best-alternate-path search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.altpath import (
    AlternatePathFinder,
    best_one_hop_alternates,
    loss_weight,
)
from repro.core.graph import EdgeData, GraphError, Metric, MetricGraph
from repro.core.stats import SampleStats


def _graph(metric, hosts, weights):
    g = MetricGraph(metric, hosts)
    for (src, dst), value in weights.items():
        g.add_edge(
            (src, dst),
            EdgeData(value=value, stats=SampleStats(n=5, mean=value, var=0.1)),
        )
    return g


def _triangle(direct=100.0, leg1=30.0, leg2=40.0):
    return _graph(
        Metric.RTT,
        ["a", "b", "c"],
        {
            ("a", "b"): direct,
            ("a", "c"): leg1,
            ("c", "b"): leg2,
            ("b", "a"): direct,
            ("c", "a"): leg1,
            ("b", "c"): leg2,
        },
    )


def test_loss_weight_properties():
    assert loss_weight(0.0) >= 0.0
    assert loss_weight(0.5) > loss_weight(0.1)
    assert math.isinf(loss_weight(1.0))


def test_triangle_detour_found():
    finder = AlternatePathFinder(_triangle())
    alt = finder.best(("a", "b"))
    assert alt is not None
    assert alt.via == ("c",)
    assert alt.value == pytest.approx(70.0)
    assert alt.hops == (("a", "c"), ("c", "b"))


def test_direct_edge_never_used():
    """Even when the direct edge is by far the best, the alternate must
    route around it."""
    finder = AlternatePathFinder(_triangle(direct=1.0))
    alt = finder.best(("a", "b"))
    assert alt is not None
    assert alt.value == pytest.approx(70.0)
    assert ("a", "b") not in alt.hops


def test_no_alternate_when_disconnected():
    g = _graph(Metric.RTT, ["a", "b", "c"], {("a", "b"): 10.0})
    finder = AlternatePathFinder(g)
    assert finder.best(("a", "b")) is None


def test_multi_hop_alternate():
    g = _graph(
        Metric.RTT,
        ["a", "b", "c", "d"],
        {
            ("a", "b"): 100.0,
            ("a", "c"): 10.0,
            ("c", "d"): 10.0,
            ("d", "b"): 10.0,
            ("c", "b"): 90.0,
        },
    )
    alt = AlternatePathFinder(g).best(("a", "b"))
    assert alt is not None
    assert alt.via == ("c", "d")
    assert alt.value == pytest.approx(30.0)


def test_best_all_matches_individual(mini_dataset):
    from repro.core.graph import build_graph

    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    finder = AlternatePathFinder(g)
    batch = finder.best_all()
    for pair in sorted(g.edges)[:15]:
        single = finder.best(pair)
        if single is None:
            assert pair not in batch
        else:
            assert batch[pair].value == pytest.approx(single.value)


def test_alternate_invariants_on_real_graph(mini_dataset):
    from repro.core.graph import build_graph

    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    alternates = AlternatePathFinder(g).best_all()
    assert alternates
    for pair, alt in alternates.items():
        # Path endpoints and continuity.
        assert alt.hops[0][0] == pair[0]
        assert alt.hops[-1][1] == pair[1]
        for (a, b), (c, d) in zip(alt.hops, alt.hops[1:]):
            assert b == c
        # The direct edge is not a constituent hop.
        assert pair not in alt.hops
        # Simple path: no repeated intermediate.
        assert len(set(alt.via)) == len(alt.via)
        # Value equals the hop-sum.
        assert alt.value == pytest.approx(sum(g.edge(h).value for h in alt.hops))


def test_one_hop_never_beats_full_search(mini_dataset):
    from repro.core.graph import build_graph

    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    full = AlternatePathFinder(g).best_all()
    one_hop = best_one_hop_alternates(g)
    for pair, alt1 in one_hop.items():
        assert len(alt1.via) == 1
        if pair in full:
            assert full[pair].value <= alt1.value + 1e-9


def test_loss_alternates_compose_multiplicatively():
    g = _graph(
        Metric.LOSS,
        ["a", "b", "c"],
        {
            ("a", "b"): 0.2,
            ("a", "c"): 0.05,
            ("c", "b"): 0.05,
        },
    )
    alt = AlternatePathFinder(g).best(("a", "b"))
    assert alt is not None
    assert alt.value == pytest.approx(1 - 0.95 * 0.95)


def test_loss_zero_edges_usable():
    """Zero loss edges must survive the sparse representation."""
    g = _graph(
        Metric.LOSS,
        ["a", "b", "c"],
        {
            ("a", "b"): 0.3,
            ("a", "c"): 0.0,
            ("c", "b"): 0.0,
        },
    )
    alt = AlternatePathFinder(g).best(("a", "b"))
    assert alt is not None
    assert alt.value == pytest.approx(0.0)


def test_bandwidth_graph_rejected():
    g = MetricGraph(Metric.BANDWIDTH, ["a", "b"])
    with pytest.raises(GraphError):
        AlternatePathFinder(g)


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_direct_edge_never_its_own_alternate(seed):
    """Property: best_all never returns the direct edge as its own
    alternate, even when the direct edge is the unconstrained shortest
    path (the patched-CSR re-run path)."""
    rng = np.random.default_rng(seed)
    hosts = ["a", "b", "c", "d", "e", "f"]
    weights = {}
    for x in hosts:
        for y in hosts:
            if x == y or rng.random() < 0.2:
                continue  # leave some pairs unmeasured
            # Half the direct edges are far cheaper than any detour, so
            # the unconstrained shortest path IS the direct edge and the
            # finder must take the exclusion re-run.
            lo, hi = (0.01, 0.1) if rng.random() < 0.5 else (50.0, 100.0)
            weights[(x, y)] = float(rng.uniform(lo, hi))
    g = _graph(Metric.RTT, hosts, weights)
    alternates = AlternatePathFinder(g).best_all()
    for pair, alt in alternates.items():
        assert pair not in alt.hops
        assert alt.hops[0][0] == pair[0]
        assert alt.hops[-1][1] == pair[1]
        assert len(alt.hops) >= 2
        assert alt.value == pytest.approx(
            sum(g.edge(h).value for h in alt.hops)
        )


def _first_rows(g, limit=10, graph=0):
    """``limit`` measured pairs, every fifth in sorted order, as
    ``(graph, src, dst)`` rows."""
    return np.array(
        [
            (graph, g.host_index(s), g.host_index(d))
            for s, d in sorted(g.edges)[::5][:limit]
        ],
        dtype=np.int64,
    )


def test_rerun_matches_dense_exclusion(mini_dataset):
    """Each block of the batched exclusion stack searches the same graph
    as naively rebuilding the CSR from a dense matrix with the entry
    removed.  The stack mixes blocks of several sources and of two
    graphs."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from repro.core.altpath import _edge_slots, _excluding_stack, _stack_csr
    from repro.core.graph import build_graph

    finders = [
        AlternatePathFinder(build_graph(mini_dataset, Metric.RTT, min_samples=k))
        for k in (5, 1)
    ]
    n = len(finders[0].graph.hosts)
    stack = _stack_csr(np.stack([f._weights for f in finders]))
    rows = np.concatenate(
        [_first_rows(f.graph, limit=5, graph=i) for i, f in enumerate(finders)]
    )
    graphs, src, dst = rows.T
    assert len(set(src.tolist())) > 1
    blocks = _excluding_stack(stack, n, graphs, _edge_slots(stack, n, graphs, src, dst))
    fast = dijkstra(
        blocks, directed=True, indices=np.arange(len(rows)) * n + src, min_only=True
    )
    checked = 0
    for k, (g, i, j) in enumerate(rows.tolist()):
        dense = finders[g]._weights.copy()
        dense[i, j] = np.inf
        finite = np.isfinite(dense)
        r, c = np.nonzero(finite)
        slow = csr_matrix((dense[r, c], (r, c)), shape=dense.shape)
        np.testing.assert_allclose(
            fast[k * n : (k + 1) * n],
            dijkstra(slow, directed=True, indices=i),
        )
        checked += 1
    assert checked == 10


def test_exclusion_does_not_mutate_base(mini_dataset):
    from repro.core.altpath import _edge_slots, _excluding_stack
    from repro.core.graph import build_graph

    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    finder = AlternatePathFinder(g)
    before = finder._csr().data.copy()
    graphs, src, dst = _first_rows(g).T
    stack = finder._csr()
    n = len(g.hosts)
    _excluding_stack(stack, n, graphs, _edge_slots(stack, n, graphs, src, dst))
    finder.best_all(sorted(g.edges)[::5][:10])
    np.testing.assert_array_equal(finder._csr().data, before)


def test_composed_values_sum_left_to_right_on_every_interpreter():
    """0.1 + 0.2 + 0.3 adds up to 0.6000000000000001 one addition at a
    time; Python 3.12's compensated ``sum`` would say 0.6."""
    from repro.core.altpath import _composed_value

    g = _graph(
        Metric.RTT,
        ["a", "b", "c", "d"],
        {("a", "b"): 0.1, ("b", "c"): 0.2, ("c", "d"): 0.3, ("a", "d"): 0.05},
    )
    hops = (("a", "b"), ("b", "c"), ("c", "d"))
    assert _composed_value(g, hops) == 0.6000000000000001
    alt = AlternatePathFinder(g).best(("a", "d"))
    assert alt is not None and alt.hops == hops
    assert alt.value == 0.6000000000000001


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=25, deadline=None)
def test_random_graph_invariants(seed):
    """On random complete digraphs, the batch result equals a brute-force
    search over all simple paths (n=5 keeps enumeration cheap)."""
    rng = np.random.default_rng(seed)
    hosts = ["a", "b", "c", "d", "e"]
    weights = {
        (x, y): float(rng.uniform(1, 100))
        for x in hosts
        for y in hosts
        if x != y
    }
    g = _graph(Metric.RTT, hosts, weights)
    alternates = AlternatePathFinder(g).best_all()
    for pair in [("a", "b"), ("c", "e")]:
        best = math.inf
        src, dst = pair
        others = [h for h in hosts if h not in pair]
        for r in range(1, len(others) + 1):
            for mids in itertools.permutations(others, r):
                nodes = [src, *mids, dst]
                cost = sum(weights[(x, y)] for x, y in zip(nodes, nodes[1:]))
                best = min(best, cost)
        assert alternates[pair].value == pytest.approx(best)
