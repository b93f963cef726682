"""Tests for synthetic bandwidth composition."""

import pytest
from hypothesis import given, strategies as st

from repro.core.bandwidth import (
    LOSS_FLOOR,
    LossComposition,
    best_bandwidth_alternates,
)
from repro.core.graph import EdgeData, GraphError, Metric, MetricGraph, build_graph
from repro.core.stats import SampleStats
from repro.measurement.tcp import mathis_bandwidth_kbps
from tests.core.oracles import compose_bandwidth

losses = st.floats(min_value=0.0, max_value=0.5)


def _two_legs(rtt1, loss1, rtt2, loss2):
    """a -> c -> b is the only relay for (a, b); the direct edge is slow."""
    g = MetricGraph(Metric.BANDWIDTH, ["a", "b", "c"])
    legs = {
        ("a", "b"): (500.0, 0.3),
        ("a", "c"): (rtt1, loss1),
        ("c", "b"): (rtt2, loss2),
    }
    for pair, (rtt, loss) in legs.items():
        g.add_edge(
            pair,
            EdgeData(
                value=1.0,
                stats=SampleStats(n=3, mean=1.0, var=0.1),
                aux={"rtt_mean": rtt, "loss_mean": loss},
            ),
        )
    return g


def test_composition_modes():
    assert LossComposition.OPTIMISTIC.combine(0.1, 0.02) == pytest.approx(0.1)
    assert LossComposition.PESSIMISTIC.combine(0.1, 0.02) == pytest.approx(
        1 - 0.9 * 0.98
    )
    assert LossComposition.SUM.combine(0.1, 0.02) == pytest.approx(0.12)
    assert LossComposition.SUM.combine(0.9, 0.9) == 1.0


@given(p1=losses, p2=losses)
def test_composition_ordering(p1, p2):
    opt = LossComposition.OPTIMISTIC.combine(p1, p2)
    pes = LossComposition.PESSIMISTIC.combine(p1, p2)
    add = LossComposition.SUM.combine(p1, p2)
    assert opt <= pes + 1e-12 <= add + 1e-9


def test_compose_bandwidth_adds_rtts():
    graph = _two_legs(50.0, 0.01, 70.0, 0.02)
    alt = best_bandwidth_alternates(graph, LossComposition.OPTIMISTIC)[("a", "b")]
    assert alt.via == ("c",)
    # RTTs add; the optimistic loss is the larger leg's.
    assert alt.value == mathis_bandwidth_kbps(120.0, 0.02)
    pes = best_bandwidth_alternates(graph, LossComposition.PESSIMISTIC)[("a", "b")]
    assert pes.value == mathis_bandwidth_kbps(120.0, 1.0 - (1.0 - 0.01) * (1.0 - 0.02))


def test_compose_bandwidth_loss_floor():
    graph = _two_legs(50.0, 0.0, 50.0, 0.0)
    for composition in LossComposition:
        alt = best_bandwidth_alternates(graph, composition)[("a", "b")]
        assert alt.value == mathis_bandwidth_kbps(100.0, LOSS_FLOOR)


def test_optimistic_alternates_dominate_pessimistic(mini_transfers):
    graph = build_graph(mini_transfers, Metric.BANDWIDTH, min_samples=1)
    opt = best_bandwidth_alternates(graph, LossComposition.OPTIMISTIC)
    pes = best_bandwidth_alternates(graph, LossComposition.PESSIMISTIC)
    assert opt.keys() == pes.keys()
    for pair in opt:
        assert opt[pair].value >= pes[pair].value - 1e-9


def test_alternates_structure(mini_transfers):
    graph = build_graph(mini_transfers, Metric.BANDWIDTH, min_samples=1)
    alternates = best_bandwidth_alternates(graph, LossComposition.PESSIMISTIC)
    assert alternates
    for (src, dst), alt in alternates.items():
        assert alt.src == src and alt.dst == dst
        (via,) = alt.via
        assert via not in (src, dst)
        assert alt.hops == ((src, via), (via, dst))
        assert alt.value > 0
        # Composed RTT equals the two legs' means.
        leg1, leg2 = (graph.edge(hop).aux for hop in alt.hops)
        loss = LossComposition.PESSIMISTIC.combine(
            leg1["loss_mean"], leg2["loss_mean"]
        )
        assert alt.value == pytest.approx(
            mathis_bandwidth_kbps(
                leg1["rtt_mean"] + leg2["rtt_mean"], max(loss, LOSS_FLOOR)
            )
        )


def test_best_is_actually_best(mini_transfers):
    graph = build_graph(mini_transfers, Metric.BANDWIDTH, min_samples=1)
    alternates = best_bandwidth_alternates(graph, LossComposition.PESSIMISTIC)
    pair = next(iter(alternates))
    best = alternates[pair]
    src, dst = pair
    for via in graph.hosts:
        if via in (src, dst):
            continue
        if not (graph.has_edge((src, via)) and graph.has_edge((via, dst))):
            continue
        bw, _, _ = compose_bandwidth(
            graph.edge((src, via)).aux["rtt_mean"],
            graph.edge((src, via)).aux["loss_mean"],
            graph.edge((via, dst)).aux["rtt_mean"],
            graph.edge((via, dst)).aux["loss_mean"],
            LossComposition.PESSIMISTIC,
        )
        assert bw <= best.value + 1e-9


def test_non_bandwidth_graph_rejected(mini_dataset):
    graph = build_graph(mini_dataset, Metric.RTT, min_samples=5)
    with pytest.raises(GraphError):
        best_bandwidth_alternates(graph, LossComposition.OPTIMISTIC)
