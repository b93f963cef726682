"""Host-distance triangulation (the Francis et al. validation, paper §2).

Francis et al. (IDMaps, INFOCOM '99) estimate the minimum propagation
delay between two hosts from pair-wise measurements through shared
landmarks: the triangle inequality gives an upper bound
``min_k d(A,k) + d(k,B)`` and a lower bound ``max_k |d(A,k) − d(k,B)|``.
The paper notes its tool suite can "independently generate their graphs";
this module does exactly that over a propagation-delay measurement graph.

The connection to the paper's headline is direct: a pair whose *upper
bound* undercuts its measured direct delay is a triangle-inequality
violation — a one-hop alternate with a shorter propagation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.altpath import legs, one_hop_search
from repro.core.graph import Metric, MetricGraph, build_graph
from repro.datasets.dataset import Dataset
from repro.obs import runtime as obs


class TriangulationError(RuntimeError):
    """Raised when triangulation preconditions fail."""


@dataclass(frozen=True, slots=True)
class TrianglePoint:
    """One host pair's triangulated distance estimate.

    Attributes:
        src: Source host.
        dst: Destination host.
        actual_ms: Measured propagation delay of the direct path.
        upper_ms: Best triangle upper bound through any landmark.
        lower_ms: Best triangle lower bound through any landmark.
        landmark: The host realizing the upper bound.
    """

    src: str
    dst: str
    actual_ms: float
    upper_ms: float
    lower_ms: float
    landmark: str

    @property
    def violates_triangle_inequality(self) -> bool:
        """Whether a relayed route is shorter than the direct one."""
        return self.upper_ms < self.actual_ms

    @property
    def upper_relative_error(self) -> float:
        """Relative error of the upper bound as a distance predictor."""
        if self.actual_ms <= 0:
            return float("inf")
        return (self.upper_ms - self.actual_ms) / self.actual_ms


def triangulate(graph: MetricGraph) -> list[TrianglePoint]:
    """Triangle bounds for every measured pair of a propagation graph.

    Both bounds range over the landmarks with both legs measured: the
    upper bound is the smallest ``a + b`` (ties to the lowest-index
    landmark), the lower bound the largest ``|a - b|``, floored at 0.
    Pairs with no common landmark are skipped.

    Raises:
        TriangulationError: for non-propagation-delay graphs.
    """
    if graph.metric is not Metric.PROP_DELAY:
        raise TriangulationError("triangulation expects a PROP_DELAY graph")
    hosts = graph.hosts
    n = len(hosts)
    weights = graph.weight_matrix()
    # Missing legs read 0 here so no difference meets inf - inf; the
    # upper-bound sum, inf exactly where a leg is missing, masks them.
    known = np.where(np.isfinite(weights), weights, 0.0)

    def spread(ks: np.ndarray) -> np.ndarray:
        a, b = legs(known, ks)
        missing = np.isinf(np.add(*legs(weights, ks)))
        return np.where(missing, np.inf, -np.abs(a - b))

    edges = sorted(graph.edges.items())
    with obs.span("core.altpath.one_hop") as sp:
        sp.set("pairs", len(edges))
        via, upper = one_hop_search(n, lambda ks: np.add(*legs(weights, ks)))
        _, spread_min = one_hop_search(n, spread)
    lower = np.maximum(-spread_min, 0.0)
    points: list[TrianglePoint] = []
    for (src, dst), data in edges:
        i, j = graph.host_index(src), graph.host_index(dst)
        k = int(via[i, j])
        if k < 0:
            continue
        points.append(
            TrianglePoint(
                src=src,
                dst=dst,
                actual_ms=data.value,
                upper_ms=float(upper[i, j]),
                lower_ms=float(lower[i, j]),
                landmark=hosts[k],
            )
        )
    return points


def triangulate_dataset(
    dataset: Dataset, *, min_samples: int = 30
) -> list[TrianglePoint]:
    """Convenience wrapper: build the propagation graph and triangulate."""
    graph = build_graph(dataset, Metric.PROP_DELAY, min_samples=min_samples)
    return triangulate(graph)


def violation_rate(points: list[TrianglePoint]) -> float:
    """Fraction of pairs whose triangle upper bound beats the direct path.

    In a metric space this would be zero; on the Internet it is the
    paper's one-hop propagation-delay improvement fraction.
    """
    if not points:
        raise TriangulationError("no triangulated points")
    return float(np.mean([p.violates_triangle_inequality for p in points]))


@dataclass(frozen=True, slots=True)
class PredictionQuality:
    """Aggregate accuracy of triangulated distance estimates."""

    n: int
    median_relative_error: float
    within_factor_two: float
    bracketing_rate: float


def prediction_quality(points: list[TrianglePoint]) -> PredictionQuality:
    """How well the triangle upper bound predicts measured distance.

    ``bracketing_rate`` is the fraction of pairs where the measured value
    falls inside [lower, upper] — the Francis et al. success criterion.
    """
    if not points:
        raise TriangulationError("no triangulated points")
    errors = np.array([abs(p.upper_relative_error) for p in points])
    within2 = np.mean(
        [0.5 <= p.upper_ms / p.actual_ms <= 2.0 for p in points if p.actual_ms > 0]
    )
    bracketing = np.mean(
        [p.lower_ms <= p.actual_ms <= p.upper_ms for p in points]
    )
    return PredictionQuality(
        n=len(points),
        median_relative_error=float(np.median(errors)),
        within_factor_two=float(within2),
        bracketing_rate=float(bracketing),
    )
