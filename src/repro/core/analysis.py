"""The paper's core computation: default vs. best-alternate comparisons.

:func:`analyze` runs the full §4.1 methodology for one dataset and one
metric: aggregate measurements into a graph, find the best alternate path
per measured pair, and produce per-pair comparisons with confidence
information.  Everything in Sections 5–7 of the paper is a view over the
resulting :class:`AnalysisResult`.

Sign conventions (matching the paper's figures): ``improvement`` is
oriented so **positive means the alternate path is superior** —
``default − alternate`` for RTT, loss, and propagation delay;
``alternate − default`` for bandwidth.  ``ratio`` is oriented so values
**above 1 mean the alternate is superior** (Figures 2 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.altpath import AlternatePath, AlternatePathFinder, best_one_hop_alternates
from repro.core.bandwidth import LossComposition, best_bandwidth_alternates
from repro.core.graph import Metric, MetricGraph, Pair, build_graph
from repro.core.stats import (
    CDFSeries,
    Comparison,
    DiffEstimate,
    diff_of_loss_rates,
    diff_of_means,
    make_cdf,
)
from repro.datasets.dataset import Dataset


class AnalysisError(RuntimeError):
    """Raised on invalid analysis configuration."""


@dataclass(frozen=True, slots=True)
class PairComparison:
    """Default path vs. best alternate for one ordered host pair.

    Attributes:
        src: Source host.
        dst: Destination host.
        default_value: Metric value of the default (measured) path.
        alt_value: Composed metric value of the best alternate.
        via: Intermediate hosts of the best alternate.
        estimate: Difference estimate with uncertainty (None when the
            metric has no meaningful per-sample variance, e.g. the
            propagation-delay percentile and composed bandwidth).
    """

    src: str
    dst: str
    metric: Metric
    default_value: float
    alt_value: float
    via: tuple[str, ...]
    estimate: DiffEstimate | None = None

    @property
    def improvement(self) -> float:
        """Positive iff the alternate is superior (paper orientation)."""
        if self.metric.higher_is_better:
            return self.alt_value - self.default_value
        return self.default_value - self.alt_value

    @property
    def ratio(self) -> float:
        """Above 1 iff the alternate is superior (Figures 2 and 5)."""
        if self.metric.higher_is_better:
            if self.default_value == 0:
                return np.inf
            return self.alt_value / self.default_value
        if self.alt_value == 0:
            return np.inf
        return self.default_value / self.alt_value

    def classify(self, confidence: float = 0.95) -> Comparison:
        """t-test verdict (Tables 2/3); ZERO for loss pairs with no signal.

        Raises:
            AnalysisError: when no estimate is attached.
        """
        if self.estimate is None:
            raise AnalysisError("this comparison carries no variance estimate")
        if (
            self.metric is Metric.LOSS
            and self.default_value == 0.0
            and self.alt_value == 0.0
        ):
            return Comparison.ZERO
        return self.estimate.classify(confidence)


@dataclass
class AnalysisResult:
    """All pair comparisons for one (dataset, metric) analysis."""

    dataset_name: str
    metric: Metric
    comparisons: list[PairComparison]
    graph: MetricGraph

    def __post_init__(self) -> None:
        self.comparisons.sort(key=lambda c: (c.src, c.dst))

    def __len__(self) -> int:
        return len(self.comparisons)

    def improvements(self) -> np.ndarray:
        """Per-pair improvements, paper orientation."""
        return np.array([c.improvement for c in self.comparisons])

    def ratios(self) -> np.ndarray:
        """Per-pair ratios, paper orientation (inf-free pairs only)."""
        vals = np.array([c.ratio for c in self.comparisons])
        return vals[np.isfinite(vals)]

    def improvement_cdf(self, label: str | None = None) -> CDFSeries:
        """CDF of improvements (Figures 1, 3, 15 and friends)."""
        return make_cdf(self.improvements(), label or self.dataset_name)

    def ratio_cdf(self, label: str | None = None) -> CDFSeries:
        """CDF of ratios (Figures 2 and 5)."""
        return make_cdf(self.ratios(), label or self.dataset_name)

    def fraction_improved(self) -> float:
        """Fraction of pairs whose best alternate is strictly superior."""
        if not self.comparisons:
            return 0.0
        return float(np.mean(self.improvements() > 0))

    def fraction_improved_by(self, threshold: float) -> float:
        """Fraction of pairs improved by more than ``threshold``."""
        if not self.comparisons:
            return 0.0
        return float(np.mean(self.improvements() > threshold))

    def classification_counts(
        self, confidence: float = 0.95
    ) -> dict[Comparison, int]:
        """Counts of better/indeterminate/worse (/zero) pairs (Tables 2/3)."""
        counts = {c: 0 for c in Comparison}
        for comp in self.comparisons:
            counts[comp.classify(confidence)] += 1
        return counts

    def classification_percentages(
        self, confidence: float = 0.95
    ) -> dict[Comparison, float]:
        """Classification shares in percent, as the paper's tables report."""
        counts = self.classification_counts(confidence)
        total = sum(counts.values())
        if total == 0:
            return {c: 0.0 for c in Comparison}
        return {c: 100.0 * v / total for c, v in counts.items()}


def analyze(
    dataset: Dataset,
    metric: Metric,
    *,
    min_samples: int = 30,
    one_hop_only: bool = False,
    pairs: list[Pair] | None = None,
) -> AnalysisResult:
    """Run the §4.1 methodology for one dataset and metric.

    Args:
        dataset: Measurements to analyze.
        metric: RTT, LOSS, or PROP_DELAY.  (Bandwidth has its own entry
            point, :func:`analyze_bandwidth`, because its composition is
            not a shortest-path problem.)
        min_samples: Minimum records per pair for an edge to exist.
        one_hop_only: Restrict alternates to a single intermediate host.
        pairs: Restrict output to these ordered pairs.

    Returns:
        An :class:`AnalysisResult` with one comparison per measured pair
        for which an alternate exists.

    Raises:
        AnalysisError: if called with :data:`Metric.BANDWIDTH`.
    """
    if metric is Metric.BANDWIDTH:
        raise AnalysisError("use analyze_bandwidth for the bandwidth metric")
    graph = build_graph(dataset, metric, min_samples=min_samples)
    return analyze_graph(
        graph, dataset_name=dataset.meta.name, one_hop_only=one_hop_only, pairs=pairs
    )


def analyze_graph(
    graph: MetricGraph,
    *,
    dataset_name: str = "",
    one_hop_only: bool = False,
    pairs: list[Pair] | None = None,
) -> AnalysisResult:
    """Like :func:`analyze`, but over an already-built graph.

    This is the entry point used by the robustness studies, which rebuild
    graphs from data subsets (time-of-day, per-episode, host-removal).
    """
    if one_hop_only:
        alternates = best_one_hop_alternates(graph, pairs)
    else:
        alternates = AlternatePathFinder(graph).best_all(pairs)
    return _compare(graph, alternates, dataset_name, pairs)


def analyze_bandwidth(
    dataset: Dataset,
    composition: LossComposition,
    *,
    min_samples: int = 1,
    pairs: list[Pair] | None = None,
) -> AnalysisResult:
    """Bandwidth analysis (Figures 4/5): one-hop Mathis composition.

    The paper does not apply the 30-measurement floor to N2, so
    ``min_samples`` defaults to 1 here.
    """
    graph = build_graph(dataset, Metric.BANDWIDTH, min_samples=min_samples)
    alternates = best_bandwidth_alternates(graph, composition, pairs)
    name = f"{dataset.meta.name} {composition.value}"
    return _compare(graph, alternates, name, pairs)


def _compare(
    graph: MetricGraph,
    alternates: dict[Pair, AlternatePath],
    dataset_name: str,
    pairs: list[Pair] | None,
) -> AnalysisResult:
    """One comparison per measured pair of ``pairs`` that has an alternate."""
    comparisons: list[PairComparison] = []
    wanted: Iterable[Pair] = pairs if pairs is not None else sorted(graph.edges)
    for pair in wanted:
        if not graph.has_edge(pair):
            continue
        alt = alternates.get(pair)
        if alt is None:
            continue
        default = graph.edge(pair)
        components = [graph.edge(h).stats for h in alt.hops]
        if graph.metric is Metric.LOSS:
            estimate = diff_of_loss_rates(default.stats, components)
        elif graph.metric is Metric.RTT:
            estimate = diff_of_means(default.stats, components)
        else:
            estimate = None  # percentile and composed metrics carry no simple SE
        comparisons.append(
            PairComparison(
                src=pair[0],
                dst=pair[1],
                metric=graph.metric,
                default_value=default.value,
                alt_value=alt.value,
                via=alt.via,
                estimate=estimate,
            )
        )
    return AnalysisResult(
        dataset_name=dataset_name,
        metric=graph.metric,
        comparisons=comparisons,
        graph=graph,
    )
