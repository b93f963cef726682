"""Host-popularity evaluation (§7.1, Figures 12 and 13).

Two experiments test whether a handful of well-connected hosts explain
the prevalence of superior alternates:

* **greedy top-k removal** (Figure 12) — repeatedly remove the host whose
  removal shifts the improvement CDF farthest left; if ten removals barely
  move the curve, no small host set is responsible;
* **normalized improvement contribution** (Figure 13) — credit every host
  for each superior alternate path it appears in (not necessarily the
  very best), weighted by how much better that path is; a heavy tail
  would betray a few dominant hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.altpath import alternate_values
from repro.core.analysis import AnalysisResult, analyze_graph
from repro.core.graph import Metric, MetricGraph
from repro.core.stats import CDFSeries, make_cdf
from repro.obs import runtime as obs


@dataclass(frozen=True, slots=True)
class RemovalStep:
    """One step of the greedy host-removal experiment.

    Attributes:
        removed: The host removed at this step.
        mean_improvement: Mean improvement of the remaining dataset
            *after* the removal (the quantity greedily minimized).
        result: The post-removal analysis.
    """

    removed: str
    mean_improvement: float
    result: AnalysisResult


def _mean_improvement(result: AnalysisResult) -> float:
    imp = result.improvements()
    return float(imp.mean()) if imp.size else 0.0


def _candidate_improvements(
    result: AnalysisResult,
) -> Iterator[tuple[str, np.ndarray]]:
    """Each host's removal, priced without re-analysing the whole graph.

    Yields ``(host, improvements)`` per host of ``result.graph``, in host
    order, where ``improvements`` equals
    ``analyze_graph(graph.without_hosts({host})).improvements()`` element
    for element.  Removing a vertex never shortens a path, and Dijkstra
    accumulates a path's cost in the same order whatever else the graph
    holds, so every pair whose best alternate avoids ``host`` keeps it;
    only the pairs routed via ``host`` are searched again.  Those
    searches run on a copy of the graph with every edge of ``host``
    removed but its index kept, so each makes the same heap moves as on
    the smaller graph, and all candidates' copies are searched together
    (:func:`~repro.core.altpath.alternate_values`).  (Where another path
    ties the old one exactly, keeping it relies on Dijkstra breaking the
    tie the same way without ``host``; the differential tests check
    tie-heavy graphs against the full re-analysis.)  Comparisons stay in
    the result's sorted-pair order, so the vector's mean is bit-identical
    to the full re-analysis.
    """
    graph = result.graph
    comparisons = result.comparisons
    base = result.improvements()
    defaults = np.array([c.default_value for c in comparisons])
    ends = np.array(
        [(graph.host_index(c.src), graph.host_index(c.dst)) for c in comparisons],
        dtype=np.int64,
    ).reshape(-1, 2)
    routed: dict[str, list[int]] = {h: [] for h in graph.hosts}
    for i, comp in enumerate(comparisons):
        for mid in comp.via:
            routed[mid].append(i)
    candidates = [i for i, h in enumerate(graph.hosts) if routed[h]]
    rows = [
        (k, *ends[i])
        for k, h_idx in enumerate(candidates)
        for i in routed[graph.hosts[h_idx]]
    ]
    obs.count("core.hosts.pairs_resolved", len(rows))
    values = np.repeat(graph.weight_matrix()[None], len(candidates), axis=0)
    copies = np.arange(len(candidates))
    values[copies, candidates, :] = np.inf
    values[copies, :, candidates] = np.inf
    alternates = alternate_values(
        values, graph.metric, np.array(rows, dtype=np.int64).reshape(-1, 3)
    )
    resolved = 0
    for h_idx, host in enumerate(graph.hosts):
        keep = (ends[:, 0] != h_idx) & (ends[:, 1] != h_idx)
        improvements = base.copy()
        if routed[host]:
            idx = routed[host]
            alt = alternates[resolved : resolved + len(idx)]
            resolved += len(idx)
            keep[idx] &= ~np.isnan(alt)
            # alternate_values serves lower-is-better metrics only, so
            # this is PairComparison.improvement.
            improvements[idx] = defaults[idx] - alt
        yield host, improvements[keep]


def greedy_host_removal(
    graph: MetricGraph,
    k: int = 10,
    *,
    dataset_name: str = "",
) -> list[RemovalStep]:
    """Greedily remove the ``k`` hosts with the greatest CDF impact.

    "We use a simple greedy algorithm to select the hosts; at each step we
    remove the host whose removal shifts the CDF the farthest to the
    left."  The left-shift is measured by the post-removal mean
    improvement.  Each step prices every candidate incrementally from
    the current graph's analysis (see :func:`_candidate_improvements`)
    and analyses only the chosen host's graph in full.

    Returns:
        One :class:`RemovalStep` per removal, in removal order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    steps: list[RemovalStep] = []
    n_steps = min(k, max(len(graph.hosts) - 3, 0))
    candidates = 0
    with obs.span("core.hosts.greedy_removal") as sp:
        current = analyze_graph(graph, dataset_name=dataset_name) if n_steps else None
        for _ in range(n_steps):
            best_host: str | None = None
            best_mean = np.inf
            for host, improvements in _candidate_improvements(current):
                candidates += 1
                if not improvements.size:
                    continue
                mean = float(improvements.mean())
                if mean < best_mean:
                    best_host, best_mean = host, mean
            if best_host is None:
                break
            current = analyze_graph(
                current.graph.without_hosts({best_host}), dataset_name=dataset_name
            )
            steps.append(
                RemovalStep(
                    removed=best_host,
                    mean_improvement=_mean_improvement(current),
                    result=current,
                )
            )
        sp.set("steps", len(steps))
        sp.set("candidates", candidates)
    return steps


def removal_cdfs(
    baseline: AnalysisResult, steps: list[RemovalStep]
) -> tuple[CDFSeries, CDFSeries]:
    """Figure 12's two curves: all hosts vs. after the top-k removal."""
    full = baseline.improvement_cdf(label="all hosts")
    if steps:
        pruned = steps[-1].result.improvement_cdf(label=f"without top {len(steps)}")
    else:
        pruned = full
    return full, pruned


def improvement_contributions(
    graph: MetricGraph, *, normalize_to: float = 100.0
) -> dict[str, float]:
    """Per-host normalized improvement contribution (Figure 13).

    For every ordered pair and every intermediate host whose one-hop
    alternate is superior to the default path, the host is credited with
    that improvement; each pair's best multi-hop alternate additionally
    credits its intermediate hosts.  Contributions are normalized so the
    mean over hosts equals ``normalize_to`` (the paper's x-axis reaches
    ~250 under mean-100 normalization).
    """
    hosts = graph.hosts
    contributions = {h: 0.0 for h in hosts}
    weights = graph.weight_matrix()
    index = {h: i for i, h in enumerate(hosts)}
    # Credit every superior one-hop alternate (not only the single best).
    for (src, dst), data in graph.edges.items():
        i, j = index[src], index[dst]
        default = data.value
        for k, mid in enumerate(hosts):
            if k in (i, j):
                continue
            w1, w2 = weights[i, k], weights[k, j]
            if not (np.isfinite(w1) and np.isfinite(w2)):
                continue
            if graph.metric is Metric.LOSS:
                composed = 1.0 - (1.0 - w1) * (1.0 - w2)
            else:
                composed = w1 + w2
            improvement = default - composed
            if improvement > 0:
                contributions[mid] += improvement
    # Credit the best (possibly multi-hop) alternate's intermediates too.
    result = analyze_graph(graph)
    for comp in result.comparisons:
        if comp.improvement > 0 and len(comp.via) > 1:
            for mid in comp.via:
                contributions[mid] += comp.improvement / len(comp.via)
    mean = np.mean(list(contributions.values()))
    if mean > 0:
        scale = normalize_to / mean
        contributions = {h: v * scale for h, v in contributions.items()}
    return contributions


def contribution_cdf(
    contributions: dict[str, float], label: str = "contribution"
) -> CDFSeries:
    """CDF over hosts of their normalized contributions (Figure 13)."""
    return make_cdf(list(contributions.values()), label)


def tail_heaviness(contributions: dict[str, float]) -> float:
    """Share of total contribution held by the top 10 % of hosts.

    A diagnostic for Figure 13's claim: the distribution "lacks the heavy
    tail that would indicate the existence of a few hosts with abnormally
    large contributions".
    """
    values = np.sort(np.array(list(contributions.values())))[::-1]
    if values.size == 0 or values.sum() == 0:
        return 0.0
    top = max(1, int(round(values.size * 0.1)))
    return float(values[:top].sum() / values.sum())
