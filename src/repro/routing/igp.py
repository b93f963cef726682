"""Interior gateway protocol: intra-AS shortest-path routing.

Each AS routes internally with its own metric (paper §3): small ASes use
raw hop counts, larger ones use statically configured metrics that track
propagation delay.  This module computes, per AS, all-pairs shortest paths
over the AS's induced router subgraph and exposes cost/path lookups used
by the forwarding layer to pick egress points and expand AS-level routes
into router-level hops.

One rule computes every AS's state, for object and columnar topologies
alike (:func:`shortest_paths`): parallel links collapse to the
``(metric, link_id)``-minimal edge per router pair, then a single
``scipy.sparse.csgraph.dijkstra`` call solves the all-pairs distance and
predecessor matrices in C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.obs import runtime as obs

from repro.topology.asys import IGPStyle
from repro.topology.links import Link
from repro.topology.network import Topology


class IGPError(RuntimeError):
    """Raised when an IGP lookup cannot be satisfied."""


def link_metric(link: Link, style: IGPStyle) -> float:
    """IGP metric of a link under the given style.

    Hop-count ASes weigh every link equally; delay-metric ASes use the
    propagation delay (what an operator tuning static metrics to avoid
    high-latency trunks effectively achieves).
    """
    if style is IGPStyle.HOP_COUNT:
        return 1.0
    return link.prop_delay_ms


def shortest_paths(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    metric: np.ndarray,
    link_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All-pairs shortest paths over one AS's router graph.

    Parallel links collapse to the ``(metric, link_id)``-minimal edge per
    router pair; the kept edges, in ``(row, col)`` order, form the CSR
    directly, so equal-cost predecessor choices are a function of the
    graph alone.

    Args:
        n: Router count; routers are local indices ``0..n-1``.
        u, v: Local endpoint indices of each link.
        metric: IGP metric of each link.
        link_ids: Global link id of each link.

    Returns:
        ``(dist, pred, (rows, cols, links))``: the ``(n, n)`` cost matrix
        (``inf`` when disconnected), scipy's predecessor matrix, and the
        kept directed edges with the link realizing each.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pair = lo * n + hi
    order = np.lexsort((link_ids, metric, pair))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = pair[order][1:] != pair[order][:-1]
    sel = order[keep]
    rows = np.concatenate([lo[sel], hi[sel]])
    cols = np.concatenate([hi[sel], lo[sel]])
    edge_order = np.lexsort((cols, rows))
    rows, cols = rows[edge_order], cols[edge_order]
    data = np.concatenate([metric[sel], metric[sel]])[edge_order]
    links = np.concatenate([link_ids[sel], link_ids[sel]])[edge_order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    graph = csr_matrix((data, cols, indptr), shape=(n, n))
    dist, pred = dijkstra(graph, directed=True, return_predecessors=True)
    return dist, pred, (rows, cols, links)


@dataclass(frozen=True, slots=True)
class IGPPath:
    """A resolved intra-AS path.

    Attributes:
        routers: Router ids from source to destination inclusive.
        links: Link ids between consecutive routers (one fewer than
            ``routers``).
        cost: Total metric cost.
        prop_delay_ms: Total one-way propagation delay along the path.
    """

    routers: tuple[int, ...]
    links: tuple[int, ...]
    cost: float
    prop_delay_ms: float


class IGPTable:
    """All-pairs intra-AS routing state for one AS.

    The distance/predecessor matrices are built by :func:`shortest_paths`
    on the first lookup; paths are memoized per router pair.
    """

    def __init__(self, topo: Topology, asn: int) -> None:
        """
        Args:
            topo: The owning topology.
            asn: The AS whose induced router subgraph this table covers.
        """
        self._topo = topo
        self.asn = asn
        self.style = topo.ases[asn].igp_style
        self._routers = list(topo.routers_of(asn))
        self._idx: dict[int, int] = {r: i for i, r in enumerate(self._routers)}
        # All-pairs state, stored as plain nested lists: scalar lookups
        # dominate and python-level indexing beats numpy scalar
        # extraction on this access pattern.
        self._dist_rows: list[list[float]] | None = None
        self._pred_rows: list[list[int]] | None = None
        self._link_by_pair: dict[tuple[int, int], int] = {}
        # Resolved-path memo: IGPPath objects are immutable and the
        # forwarding layer re-requests the same border-to-border segments
        # for many host pairs.
        self._path_cache: dict[tuple[int, int], IGPPath] = {}

    # hotpath
    def _ensure_matrix(self) -> None:
        """Build the all-pairs distance/predecessor matrices once."""
        if self._dist_rows is not None:
            return
        with obs.span("routing.igp.matrix") as sp:
            sp.set("asn", self.asn)
            sp.set("routers", len(self._routers))
            idx = self._idx
            # Each intra-AS link once, from its lower-id endpoint.
            links = [
                link
                for r in self._routers
                for link in self._topo.links_of(r)
                if link.u == r and link.v in idx
            ]
            dist, pred, (rows, cols, link_ids) = shortest_paths(
                len(self._routers),
                np.array([idx[link.u] for link in links], dtype=np.int64),
                np.array([idx[link.v] for link in links], dtype=np.int64),
                np.array([link_metric(link, self.style) for link in links]),
                np.array([link.link_id for link in links], dtype=np.int64),
            )
            self._dist_rows = dist.tolist()
            self._pred_rows = pred.tolist()
            self._link_by_pair = dict(
                zip(zip(rows.tolist(), cols.tolist()), link_ids.tolist())
            )
        obs.count("routing.igp.matrix_builds")

    def _check_source(self, src: int) -> None:
        if src not in self._idx:
            raise IGPError(f"router {src} is not in AS{self.asn}")

    # -- lookups -----------------------------------------------------------

    def cost(self, src: int, dst: int) -> float:
        """Metric cost from ``src`` to ``dst``; ``inf`` if unreachable."""
        self._check_source(src)
        self._ensure_matrix()
        assert self._dist_rows is not None
        j = self._idx.get(dst)
        if j is None:
            return float("inf")
        return self._dist_rows[self._idx[src]][j]

    def reachable(self, src: int, dst: int) -> bool:
        """Whether ``dst`` is reachable from ``src`` inside this AS."""
        return not math.isinf(self.cost(src, dst))

    def path(self, src: int, dst: int) -> IGPPath:
        """Shortest intra-AS path from ``src`` to ``dst``.

        Raises:
            IGPError: if ``src`` is not in this AS or ``dst`` is
                unreachable from it.
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        self._check_source(src)
        self._ensure_matrix()
        assert self._dist_rows is not None and self._pred_rows is not None
        i = self._idx[src]
        j = self._idx.get(dst)
        if j is None or math.isinf(self._dist_rows[i][j]):
            raise IGPError(f"router {dst} unreachable from {src} within AS{self.asn}")
        routers = [dst]
        links: list[int] = []
        pred_row = self._pred_rows[i]
        cur = j
        while cur != i:
            prev = pred_row[cur]
            links.append(self._link_by_pair[(prev, cur)])
            routers.append(self._routers[prev])
            cur = prev
        routers.reverse()
        links.reverse()
        path = IGPPath(
            routers=tuple(routers),
            links=tuple(links),
            cost=self._dist_rows[i][j],
            prop_delay_ms=sum(self._topo.links[k].prop_delay_ms for k in links),
        )
        self._path_cache[(src, dst)] = path
        return path


class IGPSuite:
    """Lazy per-AS collection of :class:`IGPTable` objects.

    Tables are held in the topology's routing cache, so suites built over
    the same topology (one per :class:`~repro.routing.forwarding.PathResolver`)
    share them instead of recomputing identical shortest-path state; the
    cache is cleared when an AS, router or link is added.  A suite
    reads the bag on every access, so one built before a mutation
    answers like one built after it.
    """

    def __init__(self, topo: Topology) -> None:
        self._topo = topo

    @property
    def _tables(self) -> dict[int, IGPTable]:
        """The topology's current IGP table bag (``asn -> IGPTable``)."""
        return self._topo.routing_cache("igp")

    def table(self, asn: int) -> IGPTable:
        """The IGP table for ``asn``, building it on first use.

        Raises:
            IGPError: if the ASN is unknown.
        """
        table = self._tables.get(asn)
        if table is None:
            if asn not in self._topo.ases:
                raise IGPError(f"unknown ASN {asn}")
            with obs.span("routing.igp.table") as sp:
                sp.set("asn", asn)
                table = IGPTable(self._topo, asn)
                self._tables[asn] = table
            obs.count("routing.igp.tables")
        return table
