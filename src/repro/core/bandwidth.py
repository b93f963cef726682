"""Synthetic alternate-path bandwidth (Figures 4 and 5).

"We construct alternate path bandwidth measurements by combining the
round-trip times and loss rates observed along each default path [...] We
compute the resulting TCP bandwidth according to the TCP model of Mathis
et al.  We combine round-trip times via addition.  However it is less
clear how to compose loss rates [...] Therefore, we present the results
using two different methods" (§5):

* **optimistic** — the maximum of the constituent loss rates (the sending
  TCP causes the loss, so the lossiest hop is the bottleneck);
* **pessimistic** — the independence combination ``1 - ∏(1 - p_i)`` (all
  losses are background).

"To be computationally tractable, we only consider alternate paths of
length one hop."
"""

from __future__ import annotations

import enum

import numpy as np

from repro.core.altpath import AlternatePath, legs, one_hop_alternates
from repro.core.graph import GraphError, Metric, MetricGraph, Pair
from repro.measurement.tcp import mathis_bandwidth_kbps_array

#: Loss floor applied before the Mathis formula: a measured loss rate of
#: exactly zero would imply infinite bandwidth.
LOSS_FLOOR = 1e-4


class LossComposition(enum.Enum):
    """How constituent loss rates combine on a synthetic path."""

    OPTIMISTIC = "optimistic"     # max of the components
    PESSIMISTIC = "pessimistic"   # independence: 1 - prod(1 - p)
    #: Sum of the components — not in the paper; used by the loss-composition
    #: ablation benchmark as an upper-bound sanity check.
    SUM = "sum"

    def combine(
        self, p1: float | np.ndarray, p2: float | np.ndarray
    ) -> float | np.ndarray:
        """Compose two loss rates, scalars or arrays alike."""
        if self is LossComposition.OPTIMISTIC:
            return np.maximum(p1, p2)
        if self is LossComposition.PESSIMISTIC:
            return 1.0 - (1.0 - p1) * (1.0 - p2)
        return np.minimum(p1 + p2, 1.0)


def best_bandwidth_alternates(
    graph: MetricGraph,
    composition: LossComposition,
    pairs: list[Pair] | None = None,
) -> dict[Pair, AlternatePath]:
    """Best one-hop bandwidth alternates for every measured pair.

    A candidate's RTT is the sum of its legs' ``rtt_mean``, its loss the
    ``composition`` of their ``loss_mean`` floored at
    :data:`LOSS_FLOOR`; the winner maximizes the Mathis bandwidth of
    the two, and its ``value`` is that bandwidth in kB/s.

    Args:
        graph: A :data:`Metric.BANDWIDTH` graph whose edges carry
            ``rtt_mean`` and ``loss_mean`` aux values.
        composition: Loss-combination mode.
        pairs: Restrict to these pairs (default: all measured pairs).

    Raises:
        GraphError: if ``graph`` is not a bandwidth graph.
    """
    if graph.metric is not Metric.BANDWIDTH:
        raise GraphError("best_bandwidth_alternates requires a bandwidth graph")
    n = len(graph.hosts)
    # A missing leg has infinite RTT; its zero loss keeps the composition
    # finite until the score masks it.
    rtt = np.full((n, n), np.inf)
    loss = np.zeros((n, n))
    for (src, dst), data in graph.edges.items():
        at = graph.host_index(src), graph.host_index(dst)
        rtt[at], loss[at] = data.aux["rtt_mean"], data.aux["loss_mean"]

    def score(ks: np.ndarray) -> np.ndarray:
        rtt1, rtt2 = legs(rtt, ks)
        loss1, loss2 = legs(loss, ks)
        composed = rtt1 + rtt2
        floored = np.maximum(composition.combine(loss1, loss2), LOSS_FLOOR)
        bandwidth = mathis_bandwidth_kbps_array(composed, floored)
        return np.where(np.isinf(composed), np.inf, -bandwidth)

    return one_hop_alternates(graph, pairs, score, lambda _, best: -float(best))
