"""Reference implementations the core fast paths are checked against.

* :func:`best_all_per_pair` is the best-alternate search with one
  Dijkstra call per source on the full graph and one excluded-edge call
  per direct-edge pair, each on a freshly patched CSR copy
  (:func:`csr_excluding`).  ``AlternatePathFinder.best_all`` answers all
  sources with one multi-source call and all re-runs with one call over
  a stack of such copies.
* :func:`greedy_host_removal_full` is Figure 12's greedy loop with every
  candidate graph re-analysed from scratch.  ``greedy_host_removal``
  re-solves only the pairs routed via each candidate, all candidates of
  a step in one stacked search.
* :func:`analyze_episodes_per_episode` is Figure 11's loop: one
  ``MetricGraph`` and one ``analyze_graph`` per UW4-A episode.
  ``analyze_episodes`` searches the episode graphs together.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.altpath import AlternatePath, AlternatePathFinder, _composed_value
from repro.core.analysis import analyze_graph
from repro.core.episodes import EpisodeAnalysis
from repro.core.graph import EdgeData, GraphError, Metric, MetricGraph, Pair
from repro.core.hosts import RemovalStep
from repro.core.stats import SampleStats
from repro.datasets.dataset import Dataset


def _reconstruct(
    hosts: list[str], predecessors: np.ndarray, src_idx: int, dst_idx: int
) -> tuple[Pair, ...]:
    """Walk a scipy predecessor row from dst back to src."""
    chain = [dst_idx]
    node = dst_idx
    while node != src_idx:
        node = int(predecessors[node])
        if node < 0:
            raise GraphError("broken predecessor chain")
        chain.append(node)
    chain.reverse()
    return tuple((hosts[a], hosts[b]) for a, b in zip(chain, chain[1:]))


def csr_excluding(base: csr_matrix, src_idx: int, dst_idx: int) -> csr_matrix:
    """``base`` with one directed edge patched to +inf (absent to Dijkstra).

    Only the data vector is copied; the sparsity structure is shared.
    """
    start, end = base.indptr[src_idx], base.indptr[src_idx + 1]
    row_cols = base.indices[start:end]
    pos = int(np.searchsorted(row_cols, dst_idx))
    if pos == len(row_cols) or row_cols[pos] != dst_idx:
        return base  # edge not stored; nothing to exclude
    data = base.data.copy()
    data[start + pos] = np.inf
    return csr_matrix((data, base.indices, base.indptr), shape=base.shape)


def _rerun(
    graph: MetricGraph, base: csr_matrix, src_idx: int, dst_idx: int
) -> AlternatePath | None:
    hosts = graph.hosts
    dist, pred = dijkstra(
        csr_excluding(base, src_idx, dst_idx),
        directed=True,
        indices=src_idx,
        return_predecessors=True,
    )
    if not np.isfinite(dist[dst_idx]):
        return None
    hops = _reconstruct(hosts, pred, src_idx, dst_idx)
    return AlternatePath(
        src=hosts[src_idx],
        dst=hosts[dst_idx],
        hops=hops,
        value=_composed_value(graph, hops),
    )


def best_all_per_pair(
    graph: MetricGraph, pairs: list[Pair] | None = None
) -> dict[Pair, AlternatePath]:
    """``AlternatePathFinder(graph).best_all(pairs)``, one re-run per pair."""
    hosts = graph.hosts
    wanted = pairs if pairs is not None else sorted(graph.edges)
    by_src: dict[int, list[int]] = {}
    for src, dst in wanted:
        by_src.setdefault(graph.host_index(src), []).append(graph.host_index(dst))
    base = AlternatePathFinder(graph)._csr()
    out: dict[Pair, AlternatePath] = {}
    for src_idx, dst_idxs in sorted(by_src.items()):
        dist, pred = dijkstra(
            base, directed=True, indices=src_idx, return_predecessors=True
        )
        for dst_idx in dst_idxs:
            pair = (hosts[src_idx], hosts[dst_idx])
            if not np.isfinite(dist[dst_idx]):
                continue
            if pred[dst_idx] == src_idx:
                alt = _rerun(graph, base, src_idx, dst_idx)
                if alt is not None:
                    out[pair] = alt
                continue
            hops = _reconstruct(hosts, pred, src_idx, dst_idx)
            out[pair] = AlternatePath(
                src=pair[0],
                dst=pair[1],
                hops=hops,
                value=_composed_value(graph, hops),
            )
    return out


def greedy_host_removal_full(
    graph: MetricGraph, k: int = 10, *, dataset_name: str = ""
) -> list[RemovalStep]:
    """``greedy_host_removal`` re-analysing every candidate graph in full."""
    steps: list[RemovalStep] = []
    current = graph
    for _ in range(min(k, max(len(current.hosts) - 3, 0))):
        best_host: str | None = None
        best_mean = np.inf
        best_result = None
        for host in current.hosts:
            result = analyze_graph(
                current.without_hosts({host}), dataset_name=dataset_name
            )
            if not result.comparisons:
                continue
            mean = float(result.improvements().mean())
            if mean < best_mean:
                best_host, best_mean, best_result = host, mean, result
        if best_host is None or best_result is None:
            break
        steps.append(
            RemovalStep(
                removed=best_host, mean_improvement=best_mean, result=best_result
            )
        )
        current = current.without_hosts({best_host})
    return steps


def _episode_graph(
    dataset: Dataset, episode: int, hosts: list[str]
) -> MetricGraph | None:
    """One episode's RTT graph, each edge from the pair's first answered
    traceroute."""
    graph = MetricGraph(Metric.RTT, hosts)
    n_edges = 0
    for rec in dataset.traceroutes:
        if rec.episode != episode:
            continue
        rtts = rec.successful_rtts
        if not rtts:
            continue
        pair = (rec.src, rec.dst)
        if graph.has_edge(pair):
            continue  # keep the first measurement if duplicated
        mean = float(np.mean(rtts))
        var = float(np.var(rtts, ddof=1)) if len(rtts) > 1 else 0.0
        graph.add_edge(
            pair,
            EdgeData(value=mean, stats=SampleStats(n=len(rtts), mean=mean, var=var)),
        )
        n_edges += 1
    return graph if n_edges else None


def analyze_episodes_per_episode(
    dataset: Dataset, *, max_episodes: int | None = None
) -> EpisodeAnalysis:
    """``analyze_episodes`` building and analysing one graph per episode."""
    diffs: dict[Pair, list[tuple[int, float]]] = {}
    analyzed = 0
    for ep in dataset.episodes()[:max_episodes]:
        graph = _episode_graph(dataset, ep, dataset.hosts)
        if graph is None:
            continue
        result = analyze_graph(graph, dataset_name=f"{dataset.meta.name} ep{ep}")
        if not result.comparisons:
            continue
        analyzed += 1
        for comp in result.comparisons:
            if math.isfinite(comp.improvement):
                pair = (comp.src, comp.dst)
                diffs.setdefault(pair, []).append((ep, comp.improvement))
    return EpisodeAnalysis(diffs=diffs, episodes_analyzed=analyzed)
