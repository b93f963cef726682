"""Differential tests: the core fast paths vs their reference oracles.

* ``AlternatePathFinder.best_all`` runs all of one source's direct-edge
  re-runs as one Dijkstra call over a stack of edge-excluded copies; it
  must equal one Dijkstra call per pair (``oracles.best_all_per_pair``)
  hop for hop and value for value, ties included.
* ``greedy_host_removal`` prices each candidate by re-solving only the
  pairs routed via it; it must equal re-analysing every candidate graph
  (``oracles.greedy_host_removal_full``): the same removals, bit-identical
  means and bit-identical improvement vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import altpath
from repro.core.altpath import AlternatePathFinder
from repro.core.analysis import analyze_graph
from repro.core.graph import EdgeData, Metric, MetricGraph, build_graph
from repro.core.hosts import _candidate_improvements, greedy_host_removal
from repro.core.stats import SampleStats
from tests.core.oracles import best_all_per_pair, greedy_host_removal_full

METRICS = [Metric.RTT, Metric.LOSS, Metric.PROP_DELAY]


def _graph(metric, hosts, weights, n=5):
    g = MetricGraph(metric, hosts)
    for pair, value in weights.items():
        g.add_edge(
            pair, EdgeData(value=value, stats=SampleStats(n=n, mean=value, var=0.1))
        )
    return g


def _random_graph(seed, metric, n_hosts, density=0.8):
    """Random digraph; loss graphs get many zero-loss (tied) edges and
    RTT graphs many direct edges cheaper than any detour."""
    rng = np.random.default_rng(seed)
    hosts = [f"h{i:02d}" for i in range(n_hosts)]
    weights = {}
    for a in hosts:
        for b in hosts:
            if a == b or rng.random() > density:
                continue
            if metric is Metric.LOSS:
                value = 0.0 if rng.random() < 0.6 else float(rng.choice([0.01, 0.02]))
            elif rng.random() < 0.5:
                value = float(rng.uniform(0.01, 0.1))
            else:
                value = float(rng.uniform(50.0, 100.0))
            weights[(a, b)] = value
    return _graph(metric, hosts, weights, n=int(rng.integers(3, 40)))


def _assert_same_alternates(fast, oracle):
    assert list(fast) == list(oracle)
    for pair, alt in oracle.items():
        assert fast[pair].hops == alt.hops
        assert fast[pair].value == alt.value


def _assert_same_steps(fast, oracle):
    assert [s.removed for s in fast] == [s.removed for s in oracle]
    for mine, ref in zip(fast, oracle):
        assert np.float64(mine.mean_improvement).tobytes() == (
            np.float64(ref.mean_improvement).tobytes()
        )
        assert mine.result.improvements().tobytes() == (
            ref.result.improvements().tobytes()
        )
        assert [c.via for c in mine.result.comparisons] == [
            c.via for c in ref.result.comparisons
        ]


# -- batched best-alternate search ---------------------------------------------


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("min_samples", [1, 5])
def test_batched_finder_matches_oracle_on_mini_dataset(
    mini_dataset, metric, min_samples
):
    g = build_graph(mini_dataset, metric, min_samples=min_samples)
    _assert_same_alternates(AlternatePathFinder(g).best_all(), best_all_per_pair(g))


@given(seed=st.integers(0, 10_000), metric=st.sampled_from(METRICS))
@settings(max_examples=60, deadline=None)
def test_batched_finder_matches_oracle_on_tie_heavy_graphs(seed, metric):
    g = _random_graph(seed, metric, n_hosts=9)
    _assert_same_alternates(AlternatePathFinder(g).best_all(), best_all_per_pair(g))


def test_rerun_chunks_match_oracle(mini_dataset, monkeypatch):
    """A byte cap of two copies splits each source's re-runs into many
    stacked calls; the answers must not change."""
    g = build_graph(mini_dataset, Metric.LOSS, min_samples=1)
    finder = AlternatePathFinder(g)
    base = finder._csr()
    block = base.data.nbytes + base.indices.nbytes + base.indptr.nbytes
    monkeypatch.setattr(altpath, "_RERUN_STACK_CAP_BYTES", 2 * block)
    calls = []
    real = altpath._dijkstra

    def counting(*args, **kwargs):
        calls.append(kwargs.get("min_only", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(altpath, "_dijkstra", counting)
    fast = finder.best_all()
    stacked = sum(calls)
    assert stacked > len(calls) - stacked  # more chunks than sources
    _assert_same_alternates(fast, best_all_per_pair(g))


def test_batched_finder_matches_oracle_on_pair_subsets(mini_dataset):
    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    pairs = sorted(g.edges)[::3]
    _assert_same_alternates(
        AlternatePathFinder(g).best_all(pairs), best_all_per_pair(g, pairs)
    )


@given(seed=st.integers(0, 10_000), metric=st.sampled_from(METRICS))
@settings(max_examples=25, deadline=None)
def test_without_host_matches_smaller_graph(seed, metric):
    """Isolating a host in place answers every other pair exactly as the
    graph rebuilt without it does."""
    g = _random_graph(seed, metric, n_hosts=8)
    finder = AlternatePathFinder(g)
    for host in g.hosts:
        smaller = g.without_hosts({host})
        pairs = sorted(smaller.edges)
        _assert_same_alternates(
            finder.without_host(host).best_all(pairs),
            AlternatePathFinder(smaller).best_all(pairs),
        )


# -- incremental greedy host removal -------------------------------------------


def _assert_candidates_match_reanalysis(g):
    base = analyze_graph(g)
    for host, improvements in _candidate_improvements(base):
        full = analyze_graph(g.without_hosts({host})).improvements()
        assert improvements.tobytes() == full.tobytes(), host


def test_incremental_greedy_matches_oracle_on_mini_dataset(mini_dataset):
    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    _assert_same_steps(
        greedy_host_removal(g, k=4, dataset_name="MINI"),
        greedy_host_removal_full(g, k=4, dataset_name="MINI"),
    )


def test_candidate_improvements_match_reanalysis(mini_dataset):
    _assert_candidates_match_reanalysis(
        build_graph(mini_dataset, Metric.RTT, min_samples=5)
    )


def _hub_graph(seed, n_hosts=10):
    """Every spoke-to-spoke edge is slow and the hub's edges fast, so
    every spoke-to-spoke best alternate routes via the hub."""
    rng = np.random.default_rng(seed)
    hosts = ["hub"] + [f"s{i}" for i in range(n_hosts - 1)]
    weights = {}
    for a in hosts:
        for b in hosts:
            if a == b:
                continue
            fast = "hub" in (a, b)
            weights[(a, b)] = float(rng.uniform(1, 5) if fast else rng.uniform(40, 90))
    return _graph(Metric.RTT, hosts, weights)


def test_hub_host_is_removed_first_and_matches_oracle():
    g = _hub_graph(3)
    base = analyze_graph(g)
    assert all(
        "hub" in c.via for c in base.comparisons if "hub" not in (c.src, c.dst)
    )
    steps = greedy_host_removal(g, k=3)
    assert steps[0].removed == "hub"
    _assert_same_steps(steps, greedy_host_removal_full(g, k=3))
    _assert_candidates_match_reanalysis(g)


def test_removal_that_strands_pairs_matches_oracle():
    """In a ring with one chord, removing a ring host leaves some pairs
    with no alternate at all; they must drop out of the candidate's
    vector exactly as in the re-analysis."""
    hosts = [f"r{i}" for i in range(7)]
    weights = {}
    for i, a in enumerate(hosts):
        b = hosts[(i + 1) % len(hosts)]
        weights[(a, b)] = 10.0 + i
        weights[(b, a)] = 12.0 + i
    weights[("r0", "r3")] = 50.0
    weights[("r3", "r0")] = 55.0
    g = _graph(Metric.RTT, hosts, weights)
    base = analyze_graph(g)
    stranded = analyze_graph(g.without_hosts({"r1"}))
    survivors = {(c.src, c.dst) for c in stranded.comparisons}
    lost = [
        (c.src, c.dst)
        for c in base.comparisons
        if "r1" in c.via and (c.src, c.dst) not in survivors
    ]
    assert lost
    _assert_candidates_match_reanalysis(g)
    _assert_same_steps(greedy_host_removal(g, k=3), greedy_host_removal_full(g, k=3))


@given(
    seed=st.integers(0, 10_000),
    metric=st.sampled_from(METRICS),
    density=st.sampled_from([0.35, 0.6, 0.9]),
)
@settings(max_examples=30, deadline=None)
def test_incremental_greedy_matches_oracle_on_random_graphs(seed, metric, density):
    g = _random_graph(seed, metric, n_hosts=8, density=density)
    _assert_same_steps(greedy_host_removal(g, k=3), greedy_host_removal_full(g, k=3))


def test_greedy_on_a_graph_without_alternates():
    g = _graph(Metric.RTT, ["a", "b", "c", "d", "e"], {("a", "b"): 1.0})
    assert greedy_host_removal(g, k=2) == greedy_host_removal_full(g, k=2) == []
