"""Best-alternate-path search over measurement graphs.

"For each pair of hosts, A and B, we remove the edge connecting them and
perform a shortest-path computation between A and B using the remaining
edges.  The result is the best alternate path between A and B using other
Internet paths as constituent hops" (§4.1).

Loss rates compose multiplicatively (``1 - ∏(1 - p_i)``); taking
``-log(1 - p)`` as the additive edge weight makes shortest-path search
valid for loss, after which the composed loss is recomputed exactly.

The batch search runs one Dijkstra per source on the full graph; the
direct edge can only appear as the *entire* shortest path (a simple path
from A to B cannot use edge (A,B) mid-path), so the exclusion only forces
a re-run for destinations whose shortest path IS the direct edge.  All of
one source's re-runs share a single Dijkstra call over a block-diagonal
stack of edge-excluded copies of the graph.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from repro.core.graph import GraphError, Metric, MetricGraph, Pair
from repro.obs import runtime as obs

#: Guard so zero-weight loss edges survive sparse-matrix storage (scipy
#: treats exact zeros as missing entries).
_EPSILON = 1e-12

#: Memory ceiling for the one-hop search's (n, n, n) candidate broadcast;
#: larger graphs fall back to the O(n^2)-memory per-intermediate loop.
#: 64 MiB covers ~200 hosts — far above any Table 1 dataset.
_ONE_HOP_BROADCAST_CAP_BYTES = 64 * 1024 * 1024

#: Memory ceiling for the CSR arrays of one stacked re-run search; a
#: source with more direct-edge re-runs is split into chunks.  64 MiB
#: holds ~3,500 copies of a complete 40-host graph.
_RERUN_STACK_CAP_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class AlternatePath:
    """The best alternate path found for one ordered pair.

    Attributes:
        src: Source host.
        dst: Destination host.
        hops: Directed edges (ordered pairs) composing the path.
        value: Composed metric value (sum for RTT/propagation; the
            independence combination for loss).
    """

    src: str
    dst: str
    hops: tuple[Pair, ...]
    value: float

    @property
    def via(self) -> tuple[str, ...]:
        """Intermediate hosts, in traversal order."""
        return tuple(h for h, _ in self.hops[1:])

    @property
    def n_hops(self) -> int:
        """Number of constituent host-to-host edges."""
        return len(self.hops)


def loss_weight(p: float) -> float:
    """Additive shortest-path weight for a loss rate."""
    if p >= 1.0:
        return math.inf
    return -math.log1p(-p) + _EPSILON


def _edge_weight_transform(metric: Metric):
    if metric is Metric.LOSS:
        return loss_weight
    if metric is Metric.BANDWIDTH:
        raise GraphError(
            "bandwidth alternates are one-hop Mathis compositions; "
            "use repro.core.bandwidth"
        )
    return None


def _composed_value(graph: MetricGraph, hops: tuple[Pair, ...]) -> float:
    values = [graph.edge(h).value for h in hops]
    if graph.metric is Metric.LOSS:
        survive = 1.0
        for p in values:
            survive *= 1.0 - p
        return 1.0 - survive
    return float(sum(values))


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
    return tuple(
        (hosts[a], hosts[b]) for a, b in zip(chain, chain[1:])
    )


class AlternatePathFinder:
    """Computes best alternate paths for every measured pair of a graph."""

    def __init__(self, graph: MetricGraph) -> None:
        self.graph = graph
        self._weights = graph.weight_matrix(_edge_weight_transform(graph.metric))
        # scipy sparse graphs drop explicit zeros; shift by epsilon instead.
        self._weights = np.where(
            np.isfinite(self._weights), self._weights + _EPSILON, np.inf
        )
        self._base: csr_matrix | None = None

    def _csr(self) -> csr_matrix:
        """The full graph as CSR, built from the dense weights once."""
        if self._base is None:
            mat = self._weights
            finite = np.isfinite(mat)
            rows, cols = np.nonzero(finite)
            base = csr_matrix(
                (mat[rows, cols], (rows, cols)), shape=mat.shape
            )
            base.sort_indices()
            self._base = base
        return self._base

    def without_host(self, host: str) -> AlternatePathFinder:
        """This finder with every edge of ``host`` removed.

        For pairs not touching ``host`` it answers exactly as
        ``AlternatePathFinder(graph.without_hosts({host}))`` does: the
        host keeps its index but no stored edge reaches it, so every
        Dijkstra run makes the same heap moves, in the same order, as on
        the smaller graph.  Pairs touching ``host`` get no alternate.
        """
        i = self.graph.host_index(host)
        sub = copy.copy(self)
        sub._weights = self._weights.copy()
        sub._weights[i, :] = np.inf
        sub._weights[:, i] = np.inf
        sub._base = None
        return sub

    def best(self, pair: Pair) -> AlternatePath | None:
        """Best alternate path for one ordered pair, or None if none exists."""
        return self.best_all(pairs=[pair]).get(pair)

    def best_all(
        self, pairs: list[Pair] | None = None
    ) -> dict[Pair, AlternatePath]:
        """Best alternate paths for ``pairs`` (default: every measured pair).

        Pairs with no alternate route (disconnected after removing the
        direct edge) are omitted from the result.
        """
        with obs.span("core.altpath.best_all") as sp:
            out = self._best_all(pairs)
            sp.set("found", len(out))
        return out

    def _best_all(
        self, pairs: list[Pair] | None = None
    ) -> dict[Pair, AlternatePath]:
        graph = self.graph
        hosts = graph.hosts
        wanted = pairs if pairs is not None else sorted(graph.edges)
        by_src: dict[int, list[int]] = {}
        for src, dst in wanted:
            by_src.setdefault(graph.host_index(src), []).append(
                graph.host_index(dst)
            )
        out: dict[Pair, AlternatePath] = {}
        obs.count("core.altpath.pairs", len(wanted))
        base = self._csr()
        for src_idx, dst_idxs in sorted(by_src.items()):
            dist, pred = _dijkstra(
                base,
                directed=True,
                indices=src_idx,
                return_predecessors=True,
            )
            # Where the unconstrained shortest path is the direct edge,
            # search again with that single edge excluded.
            direct = [
                d for d in dst_idxs if np.isfinite(dist[d]) and pred[d] == src_idx
            ]
            excluded = self._best_excluding(src_idx, direct) if direct else {}
            for dst_idx in dst_idxs:
                pair = (hosts[src_idx], hosts[dst_idx])
                if not np.isfinite(dist[dst_idx]):
                    continue
                if pred[dst_idx] == src_idx:
                    hops = excluded.get(dst_idx)
                    if hops is None:
                        continue
                else:
                    hops = _reconstruct(hosts, pred, src_idx, dst_idx)
                out[pair] = AlternatePath(
                    src=pair[0],
                    dst=pair[1],
                    hops=hops,
                    value=_composed_value(graph, hops),
                )
        return out

    def _excluding_stack(self, src_idx: int, dst_idxs: list[int]) -> csr_matrix:
        """Block-diagonal stack of base-CSR copies, one per destination.

        Block ``k`` holds nodes ``k*n .. k*n + n - 1`` and is the base
        graph with edge ``(src_idx, dst_idxs[k])`` patched to +inf, which
        Dijkstra treats as absent.  Every ``(src_idx, dst)`` must be a
        stored edge; the base matrix is not modified.
        """
        base = self._csr()
        n, nnz, m = base.shape[0], base.nnz, len(dst_idxs)
        row_start = base.indptr[src_idx]
        row_cols = base.indices[row_start : base.indptr[src_idx + 1]]
        slots = row_start + np.searchsorted(row_cols, dst_idxs)
        blocks = np.arange(m)
        data = np.tile(base.data, m)
        data[blocks * nnz + slots] = np.inf
        indices = (base.indices[None, :] + (blocks * n)[:, None]).ravel()
        indptr = np.append(
            (base.indptr[None, :-1] + (blocks * nnz)[:, None]).ravel(), m * nnz
        )
        return csr_matrix((data, indices, indptr), shape=(m * n, m * n))

    def _best_excluding(
        self, src_idx: int, dst_idxs: list[int]
    ) -> dict[int, tuple[Pair, ...]]:
        """Shortest src->dst hops avoiding the direct edge, per destination.

        One multi-source Dijkstra per chunk of the excluding stack: the
        blocks are disconnected, so each source's search stays inside
        its own copy, and ``min_only=True`` keeps the output one row over
        the stack instead of one row per source.  Destinations left
        unreachable are omitted.
        """
        obs.count("core.altpath.reruns", len(dst_idxs))
        base = self._csr()
        n = base.shape[0]
        block_bytes = base.data.nbytes + base.indices.nbytes + base.indptr.nbytes
        per_chunk = max(1, _RERUN_STACK_CAP_BYTES // block_bytes)
        out: dict[int, tuple[Pair, ...]] = {}
        for lo in range(0, len(dst_idxs), per_chunk):
            chunk = dst_idxs[lo : lo + per_chunk]
            offsets = np.arange(len(chunk)) * n
            dist, pred, _ = _dijkstra(
                self._excluding_stack(src_idx, chunk),
                directed=True,
                indices=offsets + src_idx,
                return_predecessors=True,
                min_only=True,
            )
            for offset, dst_idx in zip(offsets.tolist(), chunk):
                if np.isfinite(dist[offset + dst_idx]):
                    # Shift the block's predecessors back to host indices
                    # (scipy's negative "none" marker stays negative).
                    block_pred = pred[offset : offset + n] - offset
                    out[dst_idx] = _reconstruct(
                        self.graph.hosts, block_pred, src_idx, dst_idx
                    )
        return out


def best_one_hop_alternates(
    graph: MetricGraph, pairs: list[Pair] | None = None
) -> dict[Pair, AlternatePath]:
    """Best single-intermediate alternate for each pair.

    Used where the paper restricts itself to one-hop alternates "to keep
    the computational costs reasonable" (Figure 6) or "to be
    computationally tractable" (bandwidth, §5 — though bandwidth
    composition itself lives in :mod:`repro.core.bandwidth`).
    """
    transform = _edge_weight_transform(graph.metric)
    weights = graph.weight_matrix(transform)
    hosts = graph.hosts
    n = len(hosts)
    wanted = pairs if pairs is not None else sorted(graph.edges)
    if n > 0 and n ** 3 * 8 <= _ONE_HOP_BROADCAST_CAP_BYTES:
        # One 3-D broadcast: cand[i, j, k] = w[i, k] + w[k, j].  argmin
        # returns the first k attaining the minimum — the same tie-break
        # as the chunked loop below (a later equal candidate never
        # displaces an earlier one).
        cand = weights[:, None, :] + weights.T[None, :, :]
        best_mid = np.argmin(cand, axis=2)
        best_val = np.take_along_axis(cand, best_mid[:, :, None], axis=2)[:, :, 0]
        best_mid = np.where(np.isfinite(best_val), best_mid, -1)
    else:
        # Chunked fallback: one intermediate at a time, O(n^2) memory.
        best_val = np.full((n, n), np.inf)
        best_mid = np.full((n, n), -1, dtype=int)
        for k in range(n):
            # Candidate: src -> k -> dst for all (src, dst) at once.
            cand = weights[:, k][:, None] + weights[k, :][None, :]
            improved = cand < best_val
            best_val[improved] = cand[improved]
            best_mid[improved] = k
    out: dict[Pair, AlternatePath] = {}
    for src, dst in wanted:
        i, j = graph.host_index(src), graph.host_index(dst)
        k = int(best_mid[i, j])
        if k < 0 or not np.isfinite(best_val[i, j]):
            continue
        hops = ((src, hosts[k]), (hosts[k], dst))
        out[(src, dst)] = AlternatePath(
            src=src,
            dst=dst,
            hops=hops,
            value=_composed_value(graph, hops),
        )
    return out
