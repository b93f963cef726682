"""Differential tests: the one-hop kernel vs the loops it replaced.

``altpath.one_hop_search`` takes intermediates in chunks under
``_RERUN_STACK_CAP_BYTES`` and keeps, for every pair, the lowest-index
relay with the lowest score.  Every caller must equal its reference in
``tests/core/oracles.py`` bit for bit:

* ``best_one_hop_alternates`` (RTT, loss, propagation delay) against
  both the ``(n, n, n)`` broadcast and the per-intermediate loop;
* ``best_bandwidth_alternates`` under every ``LossComposition`` against
  the per-pair loop over scalar ``compose_bandwidth`` calls;
* ``triangulate`` against the per-pair landmark loop.

Values are compared as int64 bit patterns; relays, landmarks and lower
bounds exactly.  The cases cover exact ties, missing legs, graphs too
small to have an intermediate, and chunks of one intermediate and of a
width that does not divide the host count.  Nothing may warn.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import altpath
from repro.core.altpath import best_one_hop_alternates, one_hop_search
from repro.core.bandwidth import LossComposition, best_bandwidth_alternates
from repro.core.graph import EdgeData, Metric, MetricGraph, build_graph
from repro.core.stats import SampleStats
from repro.core.triangulation import triangulate
from tests.core.oracles import (
    best_bandwidth_alternates_per_pair,
    best_one_hop_reference,
    triangulate_per_pair,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

METRICS = [Metric.RTT, Metric.LOSS, Metric.PROP_DELAY]
COMPOSITIONS = list(LossComposition)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_same_alternates(fast, oracle):
    assert list(fast) == list(oracle)
    assert [a.hops for a in fast.values()] == [a.hops for a in oracle.values()]
    assert _bits([a.value for a in fast.values()]) == _bits(
        [a.value for a in oracle.values()]
    )


def _assert_same_points(fast, oracle):
    key = [(p.src, p.dst, p.landmark) for p in oracle]
    assert [(p.src, p.dst, p.landmark) for p in fast] == key
    for field in ("actual_ms", "upper_ms", "lower_ms"):
        assert _bits([getattr(p, field) for p in fast]) == _bits(
            [getattr(p, field) for p in oracle]
        )


def _assert_one_hop_matches(graph):
    fast = best_one_hop_alternates(graph)
    _assert_same_alternates(fast, best_one_hop_reference(graph))
    _assert_same_alternates(fast, best_one_hop_reference(graph, broadcast=False))


def _assert_bandwidth_matches(graph):
    for composition in COMPOSITIONS:
        _assert_same_alternates(
            best_bandwidth_alternates(graph, composition),
            best_bandwidth_alternates_per_pair(graph, composition),
        )


def _graph(metric, hosts, weights):
    g = MetricGraph(metric, hosts)
    for pair, value in weights.items():
        g.add_edge(
            pair, EdgeData(value=value, stats=SampleStats(n=5, mean=value, var=0.1))
        )
    return g


def _bandwidth_graph(hosts, legs):
    """``legs`` maps each pair to its ``(rtt_mean, loss_mean)``."""
    g = MetricGraph(Metric.BANDWIDTH, hosts)
    for pair, (rtt, loss) in legs.items():
        g.add_edge(
            pair,
            EdgeData(
                value=100.0,
                stats=SampleStats(n=3, mean=100.0, var=1.0),
                aux={"rtt_mean": rtt, "loss_mean": loss},
            ),
        )
    return g


def _random_legs(seed, n_hosts, density):
    """Random leg values drawn from a few levels, so exact ties abound."""
    rng = np.random.default_rng(seed)
    hosts = [f"h{i:02d}" for i in range(n_hosts)]
    legs = {
        (a, b): (
            float(rng.choice([10.0, 20.0, 30.0])),
            float(rng.choice([0.0, 0.0, 0.01, 0.02, 1.0])),
        )
        for a in hosts
        for b in hosts
        if a != b and rng.random() < density
    }
    return hosts, legs


def _cap_for_width(monkeypatch, width, n):
    """Chunks of ``width`` intermediates on ``n``-host graphs (None: as is)."""
    if width is not None:
        monkeypatch.setattr(altpath, "_RERUN_STACK_CAP_BYTES", width * 8 * n * n)


# -- the Table 1-shaped fixtures ----------------------------------------------


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
@pytest.mark.parametrize("min_samples", [1, 5])
def test_one_hop_matches_oracles_on_mini_dataset(mini_dataset, metric, min_samples):
    _assert_one_hop_matches(build_graph(mini_dataset, metric, min_samples=min_samples))


@pytest.mark.parametrize("composition", COMPOSITIONS, ids=lambda c: c.value)
def test_bandwidth_matches_oracle_on_mini_transfers(mini_transfers, composition):
    graph = build_graph(mini_transfers, Metric.BANDWIDTH, min_samples=1)
    fast = best_bandwidth_alternates(graph, composition)
    assert fast
    _assert_same_alternates(
        fast, best_bandwidth_alternates_per_pair(graph, composition)
    )


@pytest.mark.parametrize("min_samples", [1, 5])
def test_triangulation_matches_oracle_on_mini_dataset(mini_dataset, min_samples):
    graph = build_graph(mini_dataset, Metric.PROP_DELAY, min_samples=min_samples)
    fast = triangulate(graph)
    assert fast
    _assert_same_points(fast, triangulate_per_pair(graph))


def test_pair_subsets_match_oracles(mini_dataset, mini_transfers):
    graph = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    wanted = sorted(graph.edges)[::3]
    _assert_same_alternates(
        best_one_hop_alternates(graph, wanted), best_one_hop_reference(graph, wanted)
    )
    bw = build_graph(mini_transfers, Metric.BANDWIDTH, min_samples=1)
    wanted = sorted(bw.edges)[::3]
    _assert_same_alternates(
        best_bandwidth_alternates(bw, LossComposition.PESSIMISTIC, wanted),
        best_bandwidth_alternates_per_pair(bw, LossComposition.PESSIMISTIC, wanted),
    )


# -- ties and missing legs ------------------------------------------------------


@pytest.mark.parametrize("width", [None, 1, 2])
def test_exact_ties_pick_the_lowest_index_relay(monkeypatch, width):
    """Relays a, b and c tie for (d, e); a later chunk must not win."""
    hosts = ["a", "b", "c", "d", "e"]
    _cap_for_width(monkeypatch, width, len(hosts))
    full = {(x, y): 0.1 for x in hosts for y in hosts if x != y}
    for metric in METRICS:
        alt = best_one_hop_alternates(_graph(metric, hosts, full))[("d", "e")]
        assert alt.via == ("a",)
    bw = _bandwidth_graph(hosts, {pair: (10.0, 0.01) for pair in full})
    for composition in COMPOSITIONS:
        alt = best_bandwidth_alternates(bw, composition)[("d", "e")]
        assert alt.via == ("a",)
    points = triangulate(_graph(Metric.PROP_DELAY, hosts, full))
    assert {p.landmark for p in points if "a" not in (p.src, p.dst)} == {"a"}
    assert {p.landmark for p in points if (p.src, p.dst) == ("a", "c")} == {"b"}


def test_missing_legs_are_never_relays():
    """``c`` has only one leg towards ``b``; ``d`` has both."""
    hosts = ["a", "b", "c", "d"]
    weights = {("a", "b"): 50.0, ("a", "c"): 1.0, ("a", "d"): 20.0, ("d", "b"): 20.0}
    for metric in (Metric.RTT, Metric.PROP_DELAY):
        alt = best_one_hop_alternates(_graph(metric, hosts, weights))[("a", "b")]
        assert alt.via == ("d",)
    bw = _bandwidth_graph(hosts, {pair: (v, 0.01) for pair, v in weights.items()})
    for composition in COMPOSITIONS:
        assert best_bandwidth_alternates(bw, composition)[("a", "b")].via == ("d",)
    (point,) = triangulate(_graph(Metric.PROP_DELAY, hosts, weights))
    assert (point.src, point.dst, point.landmark) == ("a", "b", "d")
    assert point.lower_ms == 0.0
    lonely = _graph(Metric.RTT, hosts, {("a", "b"): 5.0, ("a", "c"): 1.0})
    assert best_one_hop_alternates(lonely) == {}


@given(
    seed=st.integers(0, 10_000),
    n_hosts=st.integers(3, 9),
    density=st.sampled_from([0.3, 0.7, 1.0]),
    width=st.sampled_from([None, 1, 2]),
)
@settings(max_examples=60, deadline=None)
def test_tie_heavy_random_graphs_match_oracles(seed, n_hosts, density, width):
    hosts, legs = _random_legs(seed, n_hosts, density)
    rtts = {pair: rtt for pair, (rtt, _) in legs.items()}
    losses = {pair: loss for pair, (_, loss) in legs.items()}
    with pytest.MonkeyPatch.context() as mp:
        _cap_for_width(mp, width, n_hosts)
        _assert_one_hop_matches(_graph(Metric.RTT, hosts, rtts))
        _assert_one_hop_matches(_graph(Metric.PROP_DELAY, hosts, rtts))
        _assert_one_hop_matches(_graph(Metric.LOSS, hosts, losses))
        _assert_bandwidth_matches(_bandwidth_graph(hosts, legs))
        graph = _graph(Metric.PROP_DELAY, hosts, rtts)
        _assert_same_points(triangulate(graph), triangulate_per_pair(graph))


@pytest.mark.parametrize("n_hosts", [0, 1, 2])
def test_graphs_without_an_intermediate(n_hosts):
    hosts = ["a", "b"][:n_hosts]
    weights = {(x, y): 0.1 for x in hosts for y in hosts if x != y}
    for metric in METRICS:
        graph = _graph(metric, hosts, weights)
        assert best_one_hop_alternates(graph) == {}
        assert best_one_hop_reference(graph) == {}
        assert best_one_hop_reference(graph, broadcast=False) == {}
    bw = _bandwidth_graph(hosts, {pair: (10.0, 0.01) for pair in weights})
    for composition in COMPOSITIONS:
        assert best_bandwidth_alternates(bw, composition) == {}
    assert triangulate(_graph(Metric.PROP_DELAY, hosts, weights)) == []
    via, best = one_hop_search(
        n_hosts, lambda ks: np.full((n_hosts, n_hosts, len(ks)), np.inf)
    )
    assert via.shape == best.shape == (n_hosts, n_hosts)
    assert (via == -1).all() and np.isinf(best).all()


# -- chunking -------------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 5], ids=["one-intermediate", "non-dividing"])
def test_chunk_width_changes_nothing(mini_dataset, mini_transfers, monkeypatch, width):
    """12 hosts in chunks of 1, or of 5, 5 and 2 intermediates."""
    graphs = [build_graph(mini_dataset, m, min_samples=1) for m in METRICS]
    bw = build_graph(mini_transfers, Metric.BANDWIDTH, min_samples=1)
    n = len(bw.hosts)
    assert all(len(g.hosts) == n for g in graphs) and n % 5
    calls = []
    real = altpath.one_hop_search

    def counting(n_hosts, score):
        def chunked(ks):
            calls.append(len(ks))
            return score(ks)

        return real(n_hosts, chunked)

    _cap_for_width(monkeypatch, width, n)
    for graph in graphs:
        _assert_one_hop_matches(graph)
    _assert_bandwidth_matches(bw)
    prop = graphs[-1]
    _assert_same_points(triangulate(prop), triangulate_per_pair(prop))
    monkeypatch.setattr(altpath, "one_hop_search", counting)
    altpath.best_one_hop_alternates(graphs[0])
    assert calls == [width] * (n // width) + ([n % width] if n % width else [])
