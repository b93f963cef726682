"""Best-alternate-path search over measurement graphs.

"For each pair of hosts, A and B, we remove the edge connecting them and
perform a shortest-path computation between A and B using the remaining
edges.  The result is the best alternate path between A and B using other
Internet paths as constituent hops" (§4.1).

Loss rates compose multiplicatively (``1 - ∏(1 - p_i)``); taking
``-log(1 - p)`` as the additive edge weight makes shortest-path search
valid for loss, after which the composed loss is recomputed exactly.

One search (:func:`_alternates`) answers a whole batch of pairs, over one
graph or over a stack of same-sized graphs, with a constant number of
scipy calls.  The base pass is one multi-source Dijkstra over every
wanted source, the graphs laid side by side as one block-diagonal
matrix, so each source's search stays inside its own graph.  The direct
edge can only appear as the *entire* shortest path (a simple path from A
to B cannot use edge (A,B) mid-path), so the exclusion only forces a
re-run for destinations whose shortest path IS the direct edge.  Every
re-run, of every source and every graph, shares one ``min_only`` Dijkstra
call over a block-diagonal stack of edge-excluded copies, one copy per
re-run.  Both calls split into chunks under :data:`_RERUN_STACK_CAP_BYTES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _dijkstra

from repro.core.graph import GraphError, Metric, MetricGraph, Pair
from repro.core.stats import left_sum
from repro.obs import runtime as obs

#: Guard so zero-weight loss edges survive sparse-matrix storage (scipy
#: treats exact zeros as missing entries).
_EPSILON = 1e-12

#: Memory ceiling for the one-hop search's (n, n, n) candidate broadcast;
#: larger graphs fall back to the O(n^2)-memory per-intermediate loop.
#: 64 MiB covers ~200 hosts — far above any Table 1 dataset.
_ONE_HOP_BROADCAST_CAP_BYTES = 64 * 1024 * 1024

#: Memory ceiling for one stacked Dijkstra call: the CSR arrays of a
#: re-run stack, or the distance and predecessor rows a base pass over
#: several graphs returns.  Larger batches are split into chunks.
#: 256 KiB holds ~100 copies of a complete 15-host graph.  Stacks that
#: span sources and graphs get large: at 64 MiB, perfbench
#: paper-reproduce peaked at 124 MB against 100 MB at 256 KiB.
_RERUN_STACK_CAP_BYTES = 256 * 1024


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
    return float(left_sum(values))


def _search_weights(values: np.ndarray, metric: Metric) -> np.ndarray:
    """Dijkstra weights for edge ``values`` (+inf where no edge is stored)."""
    transform = _edge_weight_transform(metric)
    weights = values
    if transform is not None:
        finite = np.isfinite(values)
        weights = np.full(values.shape, np.inf)
        weights[finite] = [transform(v) for v in values[finite].tolist()]
    # scipy sparse graphs drop explicit zeros; shift by epsilon instead.
    return np.where(np.isfinite(weights), weights + _EPSILON, np.inf)


def _stack_csr(weights: np.ndarray) -> csr_matrix:
    """The graphs ``weights[g]`` side by side as one block-diagonal CSR.

    Graph ``g`` holds nodes ``g*n .. g*n + n - 1``; +inf entries are not
    stored, and every row's columns ascend.
    """
    count, n, _ = weights.shape
    flat = weights.reshape(count * n, n)
    finite = np.isfinite(flat)
    rows, cols = np.nonzero(finite)
    indptr = np.zeros(count * n + 1, dtype=np.int32)
    np.cumsum(finite.sum(axis=1), out=indptr[1:])
    indices = (cols + rows // n * n).astype(np.int32)
    return csr_matrix(
        (flat[rows, cols], indices, indptr), shape=(count * n, count * n)
    )


def _graphs_csr(stack: csr_matrix, n: int, first: int, end: int) -> csr_matrix:
    """Graphs ``first .. end - 1`` of ``stack`` as a block-diagonal CSR."""
    if first == 0 and end * n == stack.shape[0]:
        return stack
    lo, hi = stack.indptr[first * n], stack.indptr[end * n]
    return csr_matrix(
        (
            stack.data[lo:hi],
            stack.indices[lo:hi] - first * n,
            stack.indptr[first * n : end * n + 1] - lo,
        ),
        shape=((end - first) * n,) * 2,
    )


def _edge_slots(
    stack: csr_matrix, n: int, graphs: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Index into ``stack.data`` of stored edge ``(src, dst)`` of each graph."""
    size = stack.shape[0]
    keys = np.repeat(np.arange(size), np.diff(stack.indptr)) * size + stack.indices
    return np.searchsorted(keys, (graphs * n + src) * size + graphs * n + dst)


def _excluding_stack(  # hotpath
    stack: csr_matrix, n: int, graphs: np.ndarray, slots: np.ndarray
) -> csr_matrix:
    """Block-diagonal stack of graph copies, one per re-run.

    Block ``k`` holds nodes ``k*n .. k*n + n - 1`` and is graph
    ``graphs[k]`` of ``stack`` with its stored entry ``slots[k]`` (an
    index into ``stack.data``, see :func:`_edge_slots`) patched to +inf,
    which Dijkstra treats as absent.  ``graphs`` must be sorted; each run
    of blocks on one graph is filled with a single broadcast copy.
    ``stack`` is not modified.
    """
    indptr = stack.indptr
    lo = indptr[graphs * n].astype(np.int64)
    sizes = indptr[(graphs + 1) * n] - lo
    ends = np.cumsum(sizes)
    starts = ends - sizes
    data = np.empty(ends[-1])
    indices = np.empty(ends[-1], dtype=np.int32)
    offsets = (np.arange(len(graphs)) * n).astype(np.int32)
    cuts = (np.flatnonzero(np.diff(graphs)) + 1).tolist()
    firsts = [0, *cuts]
    runs = zip(
        firsts,
        [*cuts, len(graphs)],
        (graphs[firsts] * n).tolist(),
        sizes[firsts].tolist(),
        starts[firsts].tolist(),
        lo[firsts].tolist(),
    )
    for first, end, node0, nnz, at, begin in runs:
        span = slice(at, at + (end - first) * nnz)
        data[span].reshape(end - first, nnz)[:] = stack.data[begin : begin + nnz]
        np.add(
            stack.indices[begin : begin + nnz] - np.int32(node0),
            offsets[first:end, None],
            out=indices[span].reshape(end - first, nnz),
        )
    data[slots - lo + starts] = np.inf
    rows = (graphs * n)[:, None] + np.arange(n)[None, :]
    indptr_out = np.append(
        (indptr[rows] - lo[:, None] + starts[:, None]).ravel(), ends[-1]
    ).astype(np.int32)
    nodes = len(graphs) * n
    return csr_matrix((data, indices, indptr_out), shape=(nodes, nodes))


def _walk(  # hotpath
    pred: np.ndarray,
    row: np.ndarray,
    base: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Follow predecessors from each ``dst`` back to its ``src``, all at once.

    ``src`` and ``dst`` number nodes within their own graph, which starts
    at node ``base[p]`` of the Dijkstra call; node ``v``'s predecessor is
    ``pred[row[p] + base[p] + v]`` in the call's numbering (``pred`` is
    scipy's predecessor output, flattened).  Returns ``back``, where
    ``back[p, t]`` is the node ``t`` hops before ``dst[p]`` in its graph's
    numbering, and the hop count of every path.
    """
    back = np.zeros((len(dst), n), dtype=np.int64)
    back[:, 0] = dst
    hops = np.zeros(len(dst), dtype=np.int64)
    cur = dst.copy()
    live = np.flatnonzero(cur != src)
    for step in range(1, n):
        if not live.size:
            break
        nxt = pred[row[live] + base[live] + cur[live]]
        if (nxt < 0).any():
            raise GraphError("broken predecessor chain")
        nxt -= base[live]
        cur[live] = nxt
        back[live, step] = nxt
        hops[live] = step
        live = live[nxt != src[live]]
    if live.size:
        raise GraphError("broken predecessor chain")
    return back, hops


def _compose(  # hotpath
    values: np.ndarray,
    loss: bool,
    graphs: np.ndarray,
    back: np.ndarray,
    hops: np.ndarray,
) -> np.ndarray:
    """Composed value of each walked path, exactly as :func:`_composed_value`.

    Hops are folded in from the source on, one hop position for all
    paths at a time: a left-to-right sum, or the survival product for loss.
    """
    acc = np.ones(len(hops)) if loss else np.zeros(len(hops))
    for k in range(int(hops.max(initial=0))):
        paths = np.flatnonzero(hops > k)
        head = hops[paths] - k
        edge = values[graphs[paths], back[paths, head], back[paths, head - 1]]
        if loss:
            acc[paths] = acc[paths] * (1.0 - edge)
        else:
            acc[paths] = acc[paths] + edge
    return 1.0 - acc if loss else acc


def _base_groups(sources_per_graph: list[int], n: int) -> list[tuple[int, int]]:
    """Split the graphs into runs whose base-pass output fits the cap.

    A base call over graphs ``[g0, g1)`` returns a float64 distance row
    and an int32 predecessor row per source, each as long as all those
    graphs' nodes.  A single graph is never split.
    """
    groups: list[tuple[int, int]] = []
    first, sources = 0, 0
    for g, count in enumerate(sources_per_graph):
        grown = (sources + count) * (g + 1 - first) * n * 12
        if g > first and grown > _RERUN_STACK_CAP_BYTES:
            groups.append((first, g))
            first, sources = g, 0
        sources += count
    groups.append((first, len(sources_per_graph)))
    return groups


def _rerun_chunks(stack: csr_matrix, n: int, graphs: np.ndarray) -> list[np.ndarray]:
    """Split re-runs on ``graphs`` into runs whose stack fits the cap."""
    indptr = stack.indptr
    nnz = indptr[(graphs + 1) * n] - indptr[graphs * n]
    sizes = nnz * (stack.data.itemsize + stack.indices.itemsize) + (
        (n + 1) * indptr.itemsize
    )
    chunk_of = (np.cumsum(sizes) - sizes) // _RERUN_STACK_CAP_BYTES
    return np.split(np.arange(len(graphs)), np.flatnonzero(np.diff(chunk_of)) + 1)


def _alternates(
    stack: csr_matrix,
    values: np.ndarray,
    loss: bool,
    pairs: np.ndarray,
    *,
    with_chains: bool = False,
) -> tuple[np.ndarray, list[list[int]]]:
    """Best alternates for ``pairs`` rows ``(graph, src, dst)`` over a stack.

    ``stack`` holds the graphs side by side (:func:`_stack_csr`) and
    ``values`` their edge values, shape ``(G, n, n)``.  Returns each
    pair's composed alternate value, NaN where no alternate exists, and,
    with ``with_chains``, each found pair's node chain from src to dst.
    """
    n = values.shape[-1]
    graphs, src, dst = pairs[:, 0], pairs[:, 1], pairs[:, 2]
    composed = np.full(len(pairs), np.nan)
    chains: list[list[int]] = [[] for _ in range(len(pairs))] if with_chains else []
    obs.count("core.altpath.pairs", len(pairs))
    if not len(pairs):
        return composed, chains

    def settle(idx: np.ndarray, back: np.ndarray, hops: np.ndarray) -> None:
        composed[idx] = _compose(values, loss, graphs[idx], back, hops)
        if with_chains:
            for p, row, h in zip(idx.tolist(), back.tolist(), hops.tolist()):
                chains[p] = row[h::-1]

    # Base pass: one Dijkstra row per distinct (graph, source).
    sources, source_row = np.unique(graphs * n + src, return_inverse=True)
    per_graph = np.bincount(sources // n, minlength=values.shape[0]).tolist()
    by_graph = np.argsort(graphs, kind="stable")
    graph_order = graphs[by_graph]
    reruns = []
    first_row = 0
    for g0, g1 in _base_groups(per_graph, n):
        rows = sum(per_graph[g0:g1])
        dist, pred = _dijkstra(
            _graphs_csr(stack, n, g0, g1),
            directed=True,
            indices=sources[first_row : first_row + rows] - g0 * n,
            return_predecessors=True,
        )
        lo, hi = np.searchsorted(graph_order, [g0, g1])
        idx = by_graph[lo:hi]
        row = (source_row[idx] - first_row) * dist.shape[1]
        base = (graphs[idx] - g0) * n
        first_row += rows
        at_dst = row + base + dst[idx]
        reach = np.isfinite(dist.ravel()[at_dst])
        # Where the unconstrained shortest path is the direct edge,
        # search again with that single edge excluded.
        direct = reach & (pred.ravel()[at_dst] == base + src[idx])
        reruns.append(idx[direct])
        walk = reach & ~direct
        back, hops = _walk(
            pred.ravel(), row[walk], base[walk], src[idx[walk]], dst[idx[walk]], n
        )
        settle(idx[walk], back, hops)

    # Re-runs: one block per excluded edge, all graphs and sources together.
    rerun = np.concatenate(reruns)
    obs.count("core.altpath.reruns", len(rerun))
    if not len(rerun):
        return composed, chains
    slots = _edge_slots(stack, n, graphs[rerun], src[rerun], dst[rerun])
    for chunk in _rerun_chunks(stack, n, graphs[rerun]):
        idx = rerun[chunk]
        base = np.arange(len(idx)) * n
        dist, pred, _ = _dijkstra(
            _excluding_stack(stack, n, graphs[idx], slots[chunk]),
            directed=True,
            indices=base + src[idx],
            return_predecessors=True,
            min_only=True,
        )
        ok = np.isfinite(dist[base + dst[idx]])
        back, hops = _walk(
            pred, np.zeros_like(base[ok]), base[ok], src[idx[ok]], dst[idx[ok]], n
        )
        settle(idx[ok], back, hops)
    return composed, chains


def alternate_values(
    values: np.ndarray, metric: Metric, pairs: np.ndarray
) -> np.ndarray:
    """Best alternate values for pairs spread over a stack of graphs.

    ``values[g]`` is graph ``g``'s ``(n, n)`` edge-value matrix, +inf
    where no edge is stored; ``pairs`` holds one ``(graph, src, dst)``
    row per wanted pair.  Each value equals
    ``AlternatePathFinder(graph).best_all()[pair].value`` for the graph
    those edges form; NaN marks pairs with no alternate.  All graphs are
    searched together, in a number of Dijkstra calls that grows only
    with the stack chunks.
    """
    stack = _stack_csr(_search_weights(values, metric))
    return _alternates(stack, values, metric is Metric.LOSS, pairs)[0]


def graphs_per_search(n: int) -> int:
    """How many ``n``-host graphs' dense weights fit the stack cap.

    Callers that build graphs by the thousand (Figure 11's episodes)
    hand :func:`alternate_values` this many at a time, so their own
    per-graph arrays stay as small as the search's.
    """
    return max(1, _RERUN_STACK_CAP_BYTES // (8 * n * n))


class AlternatePathFinder:
    """Computes best alternate paths for every measured pair of a graph."""

    def __init__(self, graph: MetricGraph) -> None:
        self.graph = graph
        self._values = graph.weight_matrix()
        self._weights = _search_weights(self._values, graph.metric)
        self._base: csr_matrix | None = None

    def _csr(self) -> csr_matrix:
        """The full graph as CSR, built from the dense weights once."""
        if self._base is None:
            self._base = _stack_csr(self._weights[None])
        return self._base

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
        ends = np.array(
            [(graph.host_index(s), graph.host_index(d)) for s, d in wanted],
            dtype=np.int64,
        ).reshape(-1, 2)
        # Sources in index order, each source's pairs in wanted order.
        order = np.argsort(ends[:, 0], kind="stable")
        ends = ends[order]
        rows = np.column_stack([np.zeros(len(ends), dtype=np.int64), ends])
        composed, chains = _alternates(
            self._csr(),
            self._values[None],
            graph.metric is Metric.LOSS,
            rows,
            with_chains=True,
        )
        out: dict[Pair, AlternatePath] = {}
        for (src, dst), value, chain in zip(ends.tolist(), composed.tolist(), chains):
            if math.isnan(value):
                continue
            pair = (hosts[src], hosts[dst])
            out[pair] = AlternatePath(
                src=pair[0],
                dst=pair[1],
                hops=tuple((hosts[a], hosts[b]) for a, b in zip(chain, chain[1:])),
                value=value,
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
