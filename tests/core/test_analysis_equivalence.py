"""Differential tests: the core fast paths vs their reference oracles.

* ``AlternatePathFinder.best_all`` runs one multi-source Dijkstra call
  over every source, then every direct-edge re-run of every source as
  one call over a stack of edge-excluded copies; it must equal one
  Dijkstra call per source and one per re-run
  (``oracles.best_all_per_pair``) hop for hop and value for value, ties
  included.
* ``greedy_host_removal`` prices each candidate by re-solving only the
  pairs routed via it, all candidates of a step in one stacked search;
  it must equal re-analysing every candidate graph
  (``oracles.greedy_host_removal_full``): the same removals,
  bit-identical means and bit-identical improvement vectors.
* ``analyze_episodes`` searches every UW4-A episode graph together; it
  must equal building and analysing one graph per episode
  (``oracles.analyze_episodes_per_episode``), observation for
  observation.
* With the stack cap forced down to two blocks, chunk boundaries fall
  inside one source and inside one graph, and nothing may change.
* A counting ``_dijkstra`` wrapper pins the number of scipy calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import altpath
from repro.core.altpath import AlternatePathFinder
from repro.core.analysis import analyze_graph
from repro.core.episodes import analyze_episodes
from repro.core.graph import EdgeData, Metric, MetricGraph, build_graph
from repro.core.hosts import _candidate_improvements, greedy_host_removal
from repro.core.stats import SampleStats
from repro.datasets.dataset import Dataset, DatasetMeta
from repro.measurement.records import TracerouteRecord
from tests.core.oracles import (
    analyze_episodes_per_episode,
    best_all_per_pair,
    greedy_host_removal_full,
)

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
    graph rebuilt without it does.  Every host's isolated copy is
    searched in one stack, as a greedy step prices its candidates."""
    g = _random_graph(seed, metric, n_hosts=8)
    n = len(g.hosts)
    values = np.repeat(g.weight_matrix()[None], n, axis=0)
    values[np.arange(n), np.arange(n), :] = np.inf
    values[np.arange(n), :, np.arange(n)] = np.inf
    rows, expected = [], []
    for h, host in enumerate(g.hosts):
        smaller = g.without_hosts({host})
        pairs = sorted(smaller.edges)
        reference = AlternatePathFinder(smaller).best_all(pairs)
        for src, dst in pairs:
            rows.append((h, g.host_index(src), g.host_index(dst)))
            expected.append(reference.get((src, dst)))
    stack = altpath._stack_csr(altpath._search_weights(values, metric))
    found, chains = altpath._alternates(
        stack, values, metric is Metric.LOSS, np.array(rows).reshape(-1, 3),
        with_chains=True,
    )
    for value, chain, ref in zip(found.tolist(), chains, expected):
        if ref is None:
            assert np.isnan(value)
            continue
        names = [g.hosts[i] for i in chain]
        assert tuple(zip(names, names[1:])) == ref.hops
        assert value == ref.value


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


# -- tie-heavy graphs ------------------------------------------------------------


def _tied_graph(seed, metric, n_hosts, density=0.8):
    """Random digraph whose edges all cost the same or twice as much:
    zero loss on loss graphs, equal RTTs otherwise, so most shortest
    paths tie with another."""
    rng = np.random.default_rng(seed)
    hosts = [f"t{i:02d}" for i in range(n_hosts)]
    weights = {}
    for a in hosts:
        for b in hosts:
            if a == b or rng.random() > density:
                continue
            if metric is Metric.LOSS:
                weights[(a, b)] = 0.0 if rng.random() < 0.8 else 0.02
            else:
                weights[(a, b)] = float(rng.choice([10.0, 20.0]))
    return _graph(metric, hosts, weights)


@given(seed=st.integers(0, 10_000), metric=st.sampled_from(METRICS))
@settings(max_examples=40, deadline=None)
def test_batched_finder_matches_oracle_on_equal_cost_graphs(seed, metric):
    g = _tied_graph(seed, metric, n_hosts=8)
    _assert_same_alternates(AlternatePathFinder(g).best_all(), best_all_per_pair(g))


@given(seed=st.integers(0, 10_000), metric=st.sampled_from(METRICS))
@settings(max_examples=20, deadline=None)
def test_incremental_greedy_matches_oracle_on_equal_cost_graphs(seed, metric):
    g = _tied_graph(seed, metric, n_hosts=8)
    _assert_same_steps(greedy_host_removal(g, k=3), greedy_host_removal_full(g, k=3))


# -- simultaneous episodes (Figure 11) ------------------------------------------


def _assert_same_episodes(fast, oracle):
    assert fast.episodes_analyzed == oracle.episodes_analyzed
    assert list(fast.diffs) == list(oracle.diffs)
    assert fast.diffs == oracle.diffs


def _episode_records(seed, n_hosts=6, n_episodes=6):
    """Tie-heavy episodes: RTTs drawn from two values, lost probes,
    records with no answered probe, repeated pairs (the first answered
    one counts), an episode with nothing answered, and records outside
    any episode."""
    rng = np.random.default_rng(seed)
    hosts = [f"e{i}" for i in range(n_hosts)][::-1]  # index order != name order
    records = []
    t = 0.0
    for ep in range(n_episodes):
        silent = ep == 2
        for a in hosts:
            for b in hosts:
                if a == b or rng.random() < 0.2:
                    continue
                for _ in range(int(rng.integers(1, 3))):
                    probes = tuple(
                        float("nan") if silent or rng.random() < 0.2
                        else float(rng.choice([10.0, 20.0]))
                        for _ in range(int(rng.integers(1, 4)))
                    )
                    t += 1.0
                    records.append(TracerouteRecord(t, a, b, probes, episode=ep))
    records.append(TracerouteRecord(t + 1.0, hosts[0], hosts[1], (5.0,)))
    order = rng.permutation(len(records))
    return hosts, [records[i] for i in order]


def _episode_dataset(seed, **kwargs):
    hosts, records = _episode_records(seed, **kwargs)
    meta = DatasetMeta(
        name="TIES", method="traceroute", year=1999, duration_days=1.0,
        location="North America",
    )
    return Dataset(meta=meta, hosts=hosts, traceroutes=records)


@pytest.mark.parametrize("max_episodes", [None, 1, 5])
def test_episode_analysis_matches_oracle(episode_dataset, max_episodes):
    _assert_same_episodes(
        analyze_episodes(episode_dataset, max_episodes=max_episodes),
        analyze_episodes_per_episode(episode_dataset, max_episodes=max_episodes),
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_episode_analysis_matches_oracle_on_tie_heavy_episodes(seed):
    ds = _episode_dataset(seed)
    _assert_same_episodes(analyze_episodes(ds), analyze_episodes_per_episode(ds))


# -- stack chunks and scipy call counts -----------------------------------------


def _count_dijkstra(monkeypatch):
    """Record ``(min_only, number of sources)`` for every scipy call."""
    calls = []
    real = altpath._dijkstra

    def counting(graph, **kwargs):
        sources = len(np.atleast_1d(kwargs["indices"]))
        calls.append((kwargs.get("min_only", False), sources))
        return real(graph, **kwargs)

    monkeypatch.setattr(altpath, "_dijkstra", counting)
    return calls


def _two_complete_blocks(n):
    """Stack bytes of two complete ``n``-host graphs (see _rerun_chunks)."""
    return 2 * (n * (n - 1) * (8 + 4) + (n + 1) * 4)


def test_two_block_cap_matches_oracles(monkeypatch, episode_dataset, mini_dataset):
    """Re-run chunks of two blocks split sources and graphs, and base
    passes split into one graph each; every answer must stay the same."""
    n = len(episode_dataset.hosts)
    monkeypatch.setattr(altpath, "_RERUN_STACK_CAP_BYTES", _two_complete_blocks(n))
    calls = _count_dijkstra(monkeypatch)
    fast = analyze_episodes(episode_dataset)
    base = [c for c in calls if not c[0]]
    stacked = [c for c in calls if c[0]]
    assert len(base) > 1 and len(stacked) > len(base)
    _assert_same_episodes(fast, analyze_episodes_per_episode(episode_dataset))

    g = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    monkeypatch.setattr(
        altpath, "_RERUN_STACK_CAP_BYTES", _two_complete_blocks(len(g.hosts))
    )
    _assert_same_steps(
        greedy_host_removal(g, k=3, dataset_name="MINI"),
        greedy_host_removal_full(g, k=3, dataset_name="MINI"),
    )
    _assert_same_alternates(AlternatePathFinder(g).best_all(), best_all_per_pair(g))


@given(seed=st.integers(0, 10_000), metric=st.sampled_from(METRICS))
@settings(max_examples=20, deadline=None)
def test_two_block_cap_matches_oracles_on_equal_cost_graphs(seed, metric):
    g = _tied_graph(seed, metric, n_hosts=7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(altpath, "_RERUN_STACK_CAP_BYTES", _two_complete_blocks(7))
        fast = AlternatePathFinder(g).best_all()
        steps = greedy_host_removal(g, k=2)
        episodes = analyze_episodes(_episode_dataset(seed))
    _assert_same_alternates(fast, best_all_per_pair(g))
    _assert_same_steps(steps, greedy_host_removal_full(g, k=2))
    _assert_same_episodes(
        episodes, analyze_episodes_per_episode(_episode_dataset(seed))
    )


@pytest.mark.parametrize("n_hosts", [5, 12, 30])
def test_best_all_makes_one_base_call_plus_one_per_chunk(monkeypatch, n_hosts):
    """However many sources the graph has, one base call; the re-runs
    take one call per chunk of the stack."""
    g = _random_graph(n_hosts, Metric.RTT, n_hosts=n_hosts, density=1.0)
    calls = _count_dijkstra(monkeypatch)
    AlternatePathFinder(g).best_all()
    assert [k for min_only, k in calls if not min_only] == [n_hosts]
    reruns = sum(k for min_only, k in calls if min_only)
    assert reruns > 0
    cap = altpath._RERUN_STACK_CAP_BYTES
    block = n_hosts * (n_hosts - 1) * 12 + (n_hosts + 1) * 4
    assert len(calls) == 1 + len(np.unique(np.arange(reruns) * block // cap))

    calls.clear()
    monkeypatch.setattr(altpath, "_RERUN_STACK_CAP_BYTES", 2 * block)
    AlternatePathFinder(g).best_all()
    assert len(calls) == 1 + -(-reruns // 2)


def test_episode_and_greedy_calls_do_not_grow(monkeypatch, episode_dataset):
    """Without a cap to split the stacks, every episode (or every greedy
    candidate) shares one base call and one re-run call."""
    monkeypatch.setattr(altpath, "_RERUN_STACK_CAP_BYTES", 1 << 40)
    calls = _count_dijkstra(monkeypatch)
    for max_episodes in (2, None):
        calls.clear()
        analysis = analyze_episodes(episode_dataset, max_episodes=max_episodes)
        assert analysis.episodes_analyzed > 1
        assert [min_only for min_only, _ in calls] == [False, True]
    for n_hosts in (8, 16):
        result = analyze_graph(_hub_graph(n_hosts, n_hosts=n_hosts))
        calls.clear()
        priced = list(_candidate_improvements(result))
        assert len(priced) == n_hosts
        assert [min_only for min_only, _ in calls] == [False, True]
