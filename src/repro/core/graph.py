"""The measurement graph: hosts as vertices, measured paths as edges.

"We identify alternate paths by constructing a weighted graph in which
each host is represented by a vertex and each path is represented by a
corresponding edge.  [...] the weight of the edge is set according to the
long term time average of the measurements taken along that path" (§4.1).

A :class:`MetricGraph` is specific to one metric; its edges carry both the
scalar weight used for shortest-path composition and the full sample
statistics needed for confidence intervals (and, optionally, the raw
samples needed for convolution medians).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.stats import SampleStats, row_stats
from repro.datasets.dataset import Dataset

Pair = tuple[str, str]

#: Percentile of the RTT samples used to estimate propagation delay.
#: "We chose to take the tenth percentile rather than the actual minimum
#: observation to protect against noise" (§7.2).
PROPAGATION_PERCENTILE = 10.0


class Metric(enum.Enum):
    """Path-quality metrics the paper evaluates."""

    RTT = "rtt"                     # mean round-trip time (ms)
    LOSS = "loss"                   # mean loss rate (fraction)
    PROP_DELAY = "prop-delay"       # estimated propagation delay (ms)
    BANDWIDTH = "bandwidth"         # TCP throughput (kB/s)

    @property
    def higher_is_better(self) -> bool:
        """Whether larger values are superior (bandwidth only)."""
        return self is Metric.BANDWIDTH


class GraphError(RuntimeError):
    """Raised on invalid graph construction or queries."""


@dataclass(frozen=True, slots=True)
class EdgeData:
    """Measurements aggregated on one directed host-to-host edge.

    Attributes:
        value: The edge's weight under its graph's metric (mean RTT, mean
            loss rate, 10th-percentile RTT, or mean bandwidth).
        stats: Sample statistics of the metric's samples.
        samples: Raw samples, kept only when the graph was built with
            ``keep_samples=True`` (needed for convolution medians).
        aux: Metric-specific extras; bandwidth edges carry ``rtt_mean``
            and ``loss_mean`` so synthetic bandwidths can be composed via
            the Mathis model.
    """

    value: float
    stats: SampleStats
    samples: np.ndarray | None = None
    aux: dict[str, float] = field(default_factory=dict)


class MetricGraph:
    """A directed measurement graph for one metric."""

    def __init__(self, metric: Metric, hosts: list[str]) -> None:
        if len(set(hosts)) != len(hosts):
            raise GraphError("duplicate host names")
        self.metric = metric
        self.hosts = list(hosts)
        self._host_index = {h: i for i, h in enumerate(self.hosts)}
        self.edges: dict[Pair, EdgeData] = {}

    # -- construction --------------------------------------------------------

    def add_edge(self, pair: Pair, data: EdgeData) -> None:
        """Insert a directed edge.

        Raises:
            GraphError: for unknown hosts, self-loops, or duplicates.
        """
        src, dst = pair
        if src == dst:
            raise GraphError("self-loop edges are not allowed")
        if src not in self._host_index or dst not in self._host_index:
            raise GraphError(f"edge {pair} references unknown hosts")
        if pair in self.edges:
            raise GraphError(f"duplicate edge {pair}")
        self.edges[pair] = data

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.edges)

    def host_index(self, host: str) -> int:
        """Dense index of a host.

        Raises:
            GraphError: for unknown hosts.
        """
        try:
            return self._host_index[host]
        except KeyError:
            raise GraphError(f"unknown host {host!r}") from None

    def has_edge(self, pair: Pair) -> bool:
        """Whether the ordered pair was measured (post-filter)."""
        return pair in self.edges

    def edge(self, pair: Pair) -> EdgeData:
        """Edge data for an ordered pair.

        Raises:
            GraphError: if the edge is absent.
        """
        try:
            return self.edges[pair]
        except KeyError:
            raise GraphError(f"no edge for pair {pair}") from None

    def without_hosts(self, names: set[str] | list[str]) -> "MetricGraph":
        """A copy of the graph with some hosts (and their edges) removed."""
        drop = set(names)
        sub = MetricGraph(self.metric, [h for h in self.hosts if h not in drop])
        for pair, data in self.edges.items():
            if pair[0] not in drop and pair[1] not in drop:
                sub.add_edge(pair, data)
        return sub

    def weight_matrix(self, transform=None) -> np.ndarray:
        """Dense V×V weight matrix; missing edges (and the diagonal) are inf.

        Args:
            transform: Optional callable applied to each edge's value
                (e.g. loss-rate to additive ``-log(1-p)`` weights).
        """
        n = len(self.hosts)
        mat = np.full((n, n), np.inf)
        for (src, dst), data in self.edges.items():
            value = data.value if transform is None else transform(data.value)
            mat[self._host_index[src], self._host_index[dst]] = value
        return mat


# ---------------------------------------------------------------------------
# Graph builders from datasets.
# ---------------------------------------------------------------------------

def build_graph(
    dataset: Dataset,
    metric: Metric,
    *,
    min_samples: int = 30,
    keep_samples: bool = False,
) -> MetricGraph:
    """Aggregate a dataset into a :class:`MetricGraph`.

    Edges are created for ordered pairs with at least ``min_samples``
    measurement records ("we removed paths for which there were fewer
    than 30 measurements", §4.2).

    Args:
        dataset: Source measurements.
        metric: Which metric to aggregate.
        min_samples: Minimum records per pair.
        keep_samples: Retain raw samples on each edge (costs memory;
            required for convolution medians and percentile recomputation).

    Raises:
        GraphError: when the metric is unavailable for this dataset kind
            (bandwidth needs a transfer dataset).
    """
    if metric is Metric.BANDWIDTH and not dataset.is_bandwidth:
        raise GraphError("bandwidth graphs require an npd (transfer) dataset")
    graph = MetricGraph(metric, list(dataset.hosts))
    pairs = [p for p in dataset.pairs() if dataset.n_measurements_for(p) >= min_samples]
    if metric is Metric.BANDWIDTH:
        for pair in pairs:
            data = _bandwidth_edge(dataset, pair, keep_samples)
            if data is not None:
                graph.add_edge(pair, data)
        return graph
    sampler = dataset.loss_samples if metric is Metric.LOSS else dataset.rtt_samples
    measured = [(pair, s) for pair in pairs if (s := sampler(pair)).size]
    counts = np.array([s.size for _, s in measured], dtype=np.int64)
    flat = np.concatenate([s for _, s in measured]) if measured else np.empty(0)
    means, variances = row_stats(flat.astype(float, copy=False), counts)
    for (pair, samples), n, mean, var in zip(
        measured, counts.tolist(), means.tolist(), variances.tolist()
    ):
        value = mean
        if metric is Metric.PROP_DELAY:
            value = float(np.percentile(samples, PROPAGATION_PERCENTILE))
        graph.add_edge(
            pair,
            EdgeData(
                value=value,
                stats=SampleStats(n=n, mean=mean, var=var),
                samples=samples if keep_samples else None,
            ),
        )
    return graph


def _bandwidth_edge(
    dataset: Dataset, pair: Pair, keep_samples: bool
) -> EdgeData | None:
    bw = dataset.bandwidth_samples(pair)
    if bw.size == 0:
        return None
    stats = SampleStats.from_samples(bw)
    rtts = dataset.rtt_samples(pair)
    losses = dataset.loss_samples(pair)
    return EdgeData(
        value=stats.mean,
        stats=stats,
        samples=bw if keep_samples else None,
        aux={
            "rtt_mean": float(rtts.mean()),
            "loss_mean": float(losses.mean()),
        },
    )
