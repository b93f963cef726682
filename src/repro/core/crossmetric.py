"""Cross-metric quality of alternate paths.

The paper selects and judges alternates one metric at a time.  A real
alternate-path system (Detour, RON) must pick *one* relay per flow, so a
natural question the paper leaves open is: **does the RTT-best alternate
also improve loss (and vice versa)?**  This module evaluates each metric's
best alternates under the other metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.altpath import _composed_value
from repro.core.analysis import analyze
from repro.core.graph import Metric, Pair, build_graph
from repro.datasets.dataset import Dataset


class CrossMetricError(RuntimeError):
    """Raised on unsupported cross-metric combinations."""


@dataclass(frozen=True, slots=True)
class CrossMetricPoint:
    """One pair's alternate judged under both metrics.

    Attributes:
        src: Source host.
        dst: Destination host.
        selected_by: The metric the alternate was chosen to optimize.
        primary_improvement: Improvement under the selection metric.
        secondary_improvement: Improvement of the *same* alternate under
            the other metric.
    """

    src: str
    dst: str
    selected_by: Metric
    primary_improvement: float
    secondary_improvement: float

    @property
    def wins_both(self) -> bool:
        """Whether the alternate improves both metrics simultaneously."""
        return self.primary_improvement > 0 and self.secondary_improvement > 0


def cross_metric_analysis(
    dataset: Dataset,
    select_by: Metric,
    judge_by: Metric,
    *,
    min_samples: int = 30,
) -> list[CrossMetricPoint]:
    """Evaluate ``select_by``-best alternates under ``judge_by``.

    Args:
        dataset: A traceroute dataset.
        select_by: Metric used to pick each pair's best alternate
            (RTT or LOSS).
        judge_by: Metric the chosen alternate is re-evaluated under.

    Raises:
        CrossMetricError: if the metrics are equal or unsupported.
    """
    supported = (Metric.RTT, Metric.LOSS, Metric.PROP_DELAY)
    if select_by not in supported or judge_by not in supported:
        raise CrossMetricError("cross-metric analysis supports RTT/LOSS/PROP_DELAY")
    if select_by is judge_by:
        raise CrossMetricError("select_by and judge_by must differ")
    selection = analyze(dataset, select_by, min_samples=min_samples)
    judge_graph = build_graph(dataset, judge_by, min_samples=min_samples)
    points: list[CrossMetricPoint] = []
    for comp in selection.comparisons:
        pair: Pair = (comp.src, comp.dst)
        legs = tuple(zip((comp.src, *comp.via), (*comp.via, comp.dst)))
        if not all(map(judge_graph.has_edge, (pair, *legs))):
            continue
        alt_value = _composed_value(judge_graph, legs)
        default_value = judge_graph.edge(pair).value
        points.append(
            CrossMetricPoint(
                src=comp.src,
                dst=comp.dst,
                selected_by=select_by,
                primary_improvement=comp.improvement,
                secondary_improvement=default_value - alt_value,
            )
        )
    return points


@dataclass(frozen=True, slots=True)
class CrossMetricSummary:
    """Aggregate cross-metric statistics."""

    n: int
    primary_improved: float
    secondary_improved: float
    both_improved: float
    secondary_improved_given_primary: float


def summarize_cross_metric(points: list[CrossMetricPoint]) -> CrossMetricSummary:
    """Fractions of pairs improved under each metric and jointly.

    Raises:
        CrossMetricError: on empty input.
    """
    if not points:
        raise CrossMetricError("no cross-metric points")
    primary = np.array([p.primary_improvement > 0 for p in points])
    secondary = np.array([p.secondary_improvement > 0 for p in points])
    both = primary & secondary
    given = float(both.sum() / primary.sum()) if primary.any() else 0.0
    return CrossMetricSummary(
        n=len(points),
        primary_improved=float(primary.mean()),
        secondary_improved=float(secondary.mean()),
        both_improved=float(both.mean()),
        secondary_improved_given_primary=given,
    )
