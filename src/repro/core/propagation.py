"""Congestion vs. propagation delay decomposition (§7.2, Figures 15/16).

Mean round-trip latency splits into **propagation delay** (all fixed
costs, estimated as the 10th percentile of a path's RTT samples) and
**queuing delay** (the congestion-dependent remainder).  Two questions:

* Figure 15 — how much inefficiency remains when alternates are chosen
  and judged by propagation delay alone?
* Figure 16 — for alternates chosen by *mean RTT*, how much of each
  pair's improvement is propagation vs. queuing?  Each pair lands in one
  of six qualitative groups formed by the axes and the line y = x.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.analysis import AnalysisResult, analyze
from repro.core.graph import Metric, Pair, build_graph
from repro.core.stats import CDFSeries, left_sum, make_cdf
from repro.datasets.dataset import Dataset


class DelayGroup(enum.Enum):
    """The six qualitative groups of Figure 16.

    With x = Δtotal (mean-RTT improvement) and y = Δprop (propagation
    improvement), groups 1–3 lie in the default-superior half (x < 0) and
    4–6 in the alternate-superior half (x > 0):

    * ``1`` — x<0, y<0, y>x: default better in both components.
    * ``2`` — x<0, y<x: propagation difference exceeds total (queuing
      actually favors the alternate).
    * ``3`` — x<0, y>0: default wins on queuing despite worse propagation.
    * ``4`` — x>0, y>0, y<x: alternate better in both components.
    * ``5`` — x>0, y>x: propagation gain exceeds total (queuing favors
      the default).
    * ``6`` — x>0, y<0: alternate goes *out of its way* — longer
      propagation, much less queuing (avoiding congestion).
    """

    G1 = 1
    G2 = 2
    G3 = 3
    G4 = 4
    G5 = 5
    G6 = 6


@dataclass(frozen=True, slots=True)
class DelayDecomposition:
    """One pair's (Δtotal, Δprop) point for Figure 16.

    Attributes:
        src: Source host.
        dst: Destination host.
        total_improvement: Default minus alternate mean RTT (ms).
        prop_improvement: Default minus alternate propagation delay (ms),
            for the *same* alternate path (selected by mean RTT).
        queueing_improvement: The remainder (total − prop).
    """

    src: str
    dst: str
    total_improvement: float
    prop_improvement: float

    @property
    def queueing_improvement(self) -> float:
        """Improvement attributable to queuing delay."""
        return self.total_improvement - self.prop_improvement

    @property
    def group(self) -> DelayGroup:
        """The Figure 16 group this point falls in."""
        x, y = self.total_improvement, self.prop_improvement
        if x <= 0:
            if y > 0:
                return DelayGroup.G3
            return DelayGroup.G2 if y < x else DelayGroup.G1
        if y < 0:
            return DelayGroup.G6
        return DelayGroup.G5 if y > x else DelayGroup.G4


def analyze_propagation(
    dataset: Dataset, *, min_samples: int = 30
) -> AnalysisResult:
    """Figure 15's main curve: alternates chosen *and judged* by
    propagation delay (10th-percentile RTT)."""
    return analyze(dataset, Metric.PROP_DELAY, min_samples=min_samples)


def propagation_cdfs(
    dataset: Dataset, *, min_samples: int = 30
) -> tuple[CDFSeries, CDFSeries]:
    """Both Figure 15 curves: propagation-delay and mean-RTT improvements."""
    prop = analyze_propagation(dataset, min_samples=min_samples)
    rtt = analyze(dataset, Metric.RTT, min_samples=min_samples)
    return (
        prop.improvement_cdf(label="propagation delay"),
        rtt.improvement_cdf(label="mean round-trip"),
    )


def decompose_improvements(
    dataset: Dataset, *, min_samples: int = 30
) -> list[DelayDecomposition]:
    """Figure 16's scatter: decompose each mean-RTT improvement.

    Alternates are selected by mean RTT; each pair's improvement is then
    split into the propagation component (difference of 10th-percentile
    estimates along the same paths) and the queuing remainder.
    """
    rtt_result = analyze(dataset, Metric.RTT, min_samples=min_samples)
    prop_graph = build_graph(dataset, Metric.PROP_DELAY, min_samples=min_samples)
    points: list[DelayDecomposition] = []
    for comp in rtt_result.comparisons:
        pair: Pair = (comp.src, comp.dst)
        if not prop_graph.has_edge(pair):
            continue
        hop_hosts = [comp.src, *comp.via, comp.dst]
        legs = list(zip(hop_hosts, hop_hosts[1:]))
        if not all(prop_graph.has_edge(leg) for leg in legs):
            continue
        default_prop = prop_graph.edge(pair).value
        alt_prop = left_sum(prop_graph.edge(leg).value for leg in legs)
        points.append(
            DelayDecomposition(
                src=comp.src,
                dst=comp.dst,
                total_improvement=comp.improvement,
                prop_improvement=default_prop - alt_prop,
            )
        )
    return points


def group_counts(points: list[DelayDecomposition]) -> dict[DelayGroup, int]:
    """Population of each Figure 16 group.

    The paper's reading: "there are very few paths in group 3 [...] while
    group 6 is much more populated, indicating that many superior
    alternate paths are in fact going out of their way to avoid
    congestion."
    """
    counts = {g: 0 for g in DelayGroup}
    for p in points:
        counts[p.group] += 1
    return counts


def propagation_share(points: list[DelayDecomposition]) -> float:
    """Among improved pairs, the mean share of improvement that is
    propagation (clipped to [0, 1] per pair)."""
    shares = [
        min(max(p.prop_improvement / p.total_improvement, 0.0), 1.0)
        for p in points
        if p.total_improvement > 0
    ]
    return float(np.mean(shares)) if shares else 0.0


def prop_improvement_cdf(
    points: list[DelayDecomposition], label: str = "propagation component"
) -> CDFSeries:
    """CDF of the propagation components of the Figure 16 points."""
    return make_cdf([p.prop_improvement for p in points], label)
