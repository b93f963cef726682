"""The Gao-Rexford route engine: CSR kernels over typed AS arrays.

Every BGP route in the project comes from this module.  It runs the
classic single-pass three-stage solver (customer routes climb the
customer->provider hierarchy, cross one peer edge, then descend
provider->customer edges) as array kernels over the
:class:`~repro.topology.relationships.RelationshipArrays` index that both
topology representations build:

* destinations are processed in *blocks* of width ``D`` — route state is
  a pair of ``(n_as, D)`` arrays (path length + next-hop index), one
  column per destination;
* each stage is a handful of ``np.minimum.reduceat`` reductions over
  precomputed edge groupings.  Candidate routes are packed into a single
  int64 key ``(path_len << 32) | neighbor_asn``, so the reduction's
  minimum *is* the decision process's ``(AS-path length, next-hop ASN)``
  tie-break within a local-pref class;
* stage 1 processes providers grouped by customer-DAG level (all
  customers of a level-``L`` provider live at levels ``< L``, so one
  reduceat per level band sees only final state), stage 2 is a single
  reduction over peer edges against the stage-1 snapshot, stage 3
  descends provider->customer edges grouped by provider-DAG level.

On an acyclic, sibling-free hierarchy a per-candidate loop check can
never bind — stage-1 paths climb strictly increasing levels, stage-2/3
adopters are routeless while every AS on a candidate path is routed — so
the kernels need no loop detection.  Siblings or provider cycles have no
such schedule and raise :class:`BGPError`.

The kernels' columns are the only route store: a :class:`RouteColumn`
holds one destination's next-hop, provenance and path-length column and
walks AS paths along the next-hop chain on demand.
:class:`~repro.routing.bgp.BGPTable` keeps one column per converged
destination; :func:`converge_all` returns a whole
:class:`ColumnarRouteTable` for :class:`TopologyArrays` at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.obs import runtime as obs

from repro.routing.igp import shortest_paths
from repro.topology.asys import IGPStyle, Relationship
from repro.topology.columnar import IGP_CODES, TopologyArrays
from repro.topology.relationships import RelationshipArrays

class BGPError(RuntimeError):
    """Raised on BGP computation failures (unknown destination, a
    hierarchy the solver cannot order, non-convergence)."""


@dataclass(frozen=True, slots=True)
class BGPRoute:
    """A route installed at some AS toward a destination AS.

    Attributes:
        dest: Destination ASN.
        as_path: ASNs from the route's holder to ``dest``, inclusive of
            both endpoints.  For the destination itself the path is
            ``(dest,)``.
        learned_from: Relationship class of the neighbor the route was
            learned from; ``None`` for the origin.
    """

    dest: int
    as_path: tuple[int, ...]
    learned_from: Relationship | None


#: Path-length sentinel for "no route"; real lengths are <= n_as + 1.
#: Packed keys are ``len << 32 | asn`` so the sentinel must stay well
#: under 2**31 for the shifted key to fit an int64.
SENTINEL_LEN = 1 << 24

_ASN_MASK = (1 << 32) - 1

#: Provenance codes stored per (AS, destination) cell.
VIA_NONE = -1
VIA_ORIGIN = 0
VIA_CUSTOMER = 1
VIA_PEER = 2
VIA_PROVIDER = 3

_VIA_RELATIONSHIP = {
    VIA_ORIGIN: None,
    VIA_CUSTOMER: Relationship.CUSTOMER,
    VIA_PEER: Relationship.PEER,
    VIA_PROVIDER: Relationship.PROVIDER,
}


def _gather_csr(
    indptr: np.ndarray, flat: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows ``owners`` (in that order).

    Returns ``(edges, starts)`` where ``starts[i]`` is the offset of
    ``owners[i]``'s slice in ``edges`` — the exact shape
    ``np.minimum.reduceat`` wants.  Callers pass only owners with
    non-empty rows.
    """
    counts = indptr[owners + 1] - indptr[owners]
    total = int(counts.sum())
    starts = np.zeros(len(owners), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    pos = np.arange(total, dtype=np.int64) - np.repeat(starts, counts) + np.repeat(
        indptr[owners], counts
    )
    return flat[pos].astype(np.int64), starts


@dataclass(frozen=True)
class SolverIndex:
    """Edge groupings precomputed once per AS graph for the block solver.

    Attributes:
        asn: ASN of each AS index.
        asn_index: Dense ASN -> AS-index lookup.
        s1_owners / s1_edges / s1_starts / s1_bands: Stage-1 schedule —
            providers with customers, ordered by customer-DAG level;
            their concatenated customer lists; per-owner offsets; and
            ``(band_start, band_end)`` owner-index ranges per level.
        s2_owners / s2_edges / s2_starts: Stage-2 peer reduction (every
            AS with peers, one group each).
        s3_owners / s3_edges / s3_starts / s3_bands: Stage-3 schedule —
            ASes with providers ordered by provider-DAG level, with
            their provider lists.
    """

    asn: np.ndarray
    asn_index: np.ndarray
    s1_owners: np.ndarray
    s1_edges: np.ndarray
    s1_starts: np.ndarray
    s1_bands: list[tuple[int, int]]
    s2_owners: np.ndarray
    s2_edges: np.ndarray
    s2_starts: np.ndarray
    s3_owners: np.ndarray
    s3_edges: np.ndarray
    s3_starts: np.ndarray
    s3_bands: list[tuple[int, int]]

    @cached_property
    def asn_list(self) -> list[int]:
        """:attr:`asn` as a Python list, for path walks."""
        return self.asn.tolist()

    def index_of(self, asn: int) -> int:
        """AS index of ``asn``, or -1 when the graph has no such AS."""
        lookup = self.asn_index
        return int(lookup[asn]) if 0 <= asn < len(lookup) else -1


def _banded_schedule(
    indptr: np.ndarray, flat: np.ndarray, order_key: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """Group CSR owners by ``order_key`` level into contiguous bands."""
    counts = np.diff(indptr)
    owners = np.nonzero(counts > 0)[0]
    owners = owners[np.argsort(order_key[owners], kind="stable")]
    edges, starts = _gather_csr(indptr, flat, owners)
    bands: list[tuple[int, int]] = []
    if len(owners):
        key = order_key[owners]
        cuts = np.nonzero(np.diff(key))[0] + 1
        bounds = [0, *cuts.tolist(), len(owners)]
        bands = [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    return owners, edges, starts, bands


def build_solver_index(rel: RelationshipArrays) -> SolverIndex:
    """Precompute the staged-solver schedule for one relationship index.

    Raises:
        BGPError: when the hierarchy has SIBLING adjacencies or a
            customer/provider cycle — neither has a staged schedule.
    """
    if rel.has_siblings:
        raise BGPError(
            "SIBLING adjacencies are not supported: the Gao-Rexford "
            "solver needs a customer/provider/peer hierarchy"
        )
    if not rel.acyclic:
        raise BGPError(
            "customer-provider cycle: the Gao-Rexford solver needs an "
            "acyclic provider hierarchy"
        )
    s1_owners, s1_edges, s1_starts, s1_bands = _banded_schedule(
        rel.customers_indptr, rel.customers, rel.levels
    )
    counts = np.diff(rel.peers_indptr)
    s2_owners = np.nonzero(counts > 0)[0]
    s2_edges, s2_starts = _gather_csr(rel.peers_indptr, rel.peers, s2_owners)
    s3_owners, s3_edges, s3_starts, s3_bands = _banded_schedule(
        rel.providers_indptr, rel.providers, rel.down_levels
    )
    return SolverIndex(
        asn=rel.asn,
        asn_index=rel.asn_index,
        s1_owners=s1_owners,
        s1_edges=s1_edges,
        s1_starts=s1_starts,
        s1_bands=s1_bands,
        s2_owners=s2_owners,
        s2_edges=s2_edges,
        s2_starts=s2_starts,
        s3_owners=s3_owners,
        s3_edges=s3_edges,
        s3_starts=s3_starts,
        s3_bands=s3_bands,
    )


def _apply_stage(  # hotpath
    lens: np.ndarray,
    nxt: np.ndarray,
    via: np.ndarray,
    asn: np.ndarray,
    asn_index: np.ndarray,
    owners: np.ndarray,
    edges: np.ndarray,
    starts: np.ndarray,
    adopt_mask: np.ndarray,
    via_code: int,
) -> None:
    """One reduceat stage: minimize packed keys, adopt where allowed.

    ``adopt_mask`` (owners x D) gates which cells may take a new route
    (stage 1: everyone but the destination row; stages 2/3: routeless
    cells only).  State arrays are updated in place.
    """
    cand = lens[edges]
    cand <<= 32
    cand |= asn[edges, None]
    best = np.minimum.reduceat(cand, starts, axis=0)
    best_len = best >> 32
    sel = adopt_mask & (best_len < SENTINEL_LEN)
    cur_lens = lens[owners]
    cur_nxt = nxt[owners]
    cur_via = via[owners]
    lens[owners] = np.where(sel, best_len + 1, cur_lens)
    nxt[owners] = np.where(sel, asn_index[best & _ASN_MASK], cur_nxt)
    via[owners] = np.where(sel, via_code, cur_via)


def converge_block(
    index: SolverIndex, dest_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Converge a block of destinations in one vectorized pass.

    Args:
        index: Precomputed solver schedule.
        dest_idx: Destination AS *indices* (one column each).

    Returns:
        ``(lens, next_idx, via)``, each ``(n_as, len(dest_idx))``:
        AS-path node count (``SENTINEL_LEN`` when unreachable), the
        next-hop AS index (the destination row points at itself), and
        the provenance code (``VIA_*``).
    """
    n = len(index.asn)
    dest_idx = np.asarray(dest_idx, dtype=np.int64)
    d = len(dest_idx)
    asn = index.asn
    asn_index = index.asn_index
    lens = np.full((n, d), SENTINEL_LEN, dtype=np.int64)
    nxt = np.full((n, d), -1, dtype=np.int64)
    via = np.full((n, d), VIA_NONE, dtype=np.int8)
    cols = np.arange(d)
    lens[dest_idx, cols] = 1
    nxt[dest_idx, cols] = dest_idx
    via[dest_idx, cols] = VIA_ORIGIN

    # Stage 1 — customer routes climb the hierarchy level by level.
    for lo, hi in index.s1_bands:
        owners = index.s1_owners[lo:hi]
        e0, e1 = int(index.s1_starts[lo]), (
            int(index.s1_starts[hi]) if hi < len(index.s1_starts) else len(index.s1_edges)
        )
        _apply_stage(
            lens, nxt, via, asn, asn_index,
            owners, index.s1_edges[e0:e1], index.s1_starts[lo:hi] - e0,
            owners[:, None] != dest_idx[None, :], VIA_CUSTOMER,
        )
    # Stage 2 — one peer exchange against the stage-1 snapshot.  A
    # single batched reduction reads pre-update state, so no copy is
    # needed; only routeless cells adopt (a customer route always wins).
    if len(index.s2_owners):
        _apply_stage(
            lens, nxt, via, asn, asn_index,
            index.s2_owners, index.s2_edges, index.s2_starts,
            lens[index.s2_owners] == SENTINEL_LEN, VIA_PEER,
        )
    # Stage 3 — provider routes descend; providers are final before any
    # of their customers look (ascending provider-DAG level).
    for lo, hi in index.s3_bands:
        owners = index.s3_owners[lo:hi]
        e0, e1 = int(index.s3_starts[lo]), (
            int(index.s3_starts[hi]) if hi < len(index.s3_starts) else len(index.s3_edges)
        )
        _apply_stage(
            lens, nxt, via, asn, asn_index,
            owners, index.s3_edges[e0:e1], index.s3_starts[lo:hi] - e0,
            lens[owners] == SENTINEL_LEN, VIA_PROVIDER,
        )
    return lens, nxt, via


class RouteColumn:
    """One destination's converged routes: its column of the kernel tables.

    ``next_idx``, ``via`` and ``lens`` are the destination's ``(n_as,)``
    next-hop index, provenance code and path node count (see
    :func:`converge_block`).  AS paths are walked along the next-hop
    chain on demand — exact, because every route extends its next hop's
    own final choice — and memoized per holder, so a repeated lookup is
    one dict hit.
    """

    __slots__ = ("index", "dest", "next_idx", "via", "lens", "_next", "_paths")

    def __init__(
        self,
        index: SolverIndex,
        dest: int,
        next_idx: np.ndarray,
        via: np.ndarray,
        lens: np.ndarray,
    ) -> None:
        self.index = index
        self.dest = dest
        self.next_idx = next_idx
        self.via = via
        self.lens = lens
        self._next: list[int] | None = None
        self._paths: dict[int, tuple[int, ...] | None] = {}

    def as_path(self, src_asn: int) -> tuple[int, ...] | None:
        """AS-level path from ``src_asn`` to the destination, or None.

        None when ``src_asn`` holds no route, including ASNs the graph
        does not have.
        """
        try:
            return self._paths[src_asn]
        except KeyError:
            pass
        src = self.index.index_of(src_asn)
        path = None if src < 0 or self.via[src] == VIA_NONE else self._walk(src)
        self._paths[src_asn] = path
        return path

    def route(self, src_asn: int) -> BGPRoute | None:
        """The :class:`BGPRoute` installed at ``src_asn``, or None."""
        path = self.as_path(src_asn)
        if path is None:
            return None
        via = int(self.via[self.index.index_of(src_asn)])
        return BGPRoute(
            dest=self.dest, as_path=path, learned_from=_VIA_RELATIONSHIP[via]
        )

    def longest_path(self) -> int:
        """Node count of the longest AS path any holder installs."""
        return int(self.lens[self.via != VIA_NONE].max())

    def without(self, holders: np.ndarray) -> RouteColumn:
        """This column with the routes held at AS indices ``holders`` dropped."""
        via = self.via.copy()
        via[holders] = VIA_NONE
        return RouteColumn(self.index, self.dest, self.next_idx, via, self.lens)

    def _walk(self, src: int) -> tuple[int, ...]:
        """Path of routed AS index ``src``, memoizing every holder on it."""
        if self._next is None:
            self._next = self.next_idx.tolist()
        asn, nxt, paths = self.index.asn_list, self._next, self._paths
        chain: list[int] = []
        path: tuple[int, ...] = ()
        node = src
        while True:
            known = paths.get(asn[node])
            if known is not None:
                path = known
                break
            chain.append(node)
            hop = nxt[node]
            if hop == node:  # the destination row points at itself
                break
            node = hop
        for node in reversed(chain):
            path = (asn[node], *path)
            paths[asn[node]] = path
        return path


class ColumnarRouteTable:
    """Converged routes for an explicit destination list, array-backed.

    State is three ``(n_as, n_dest)`` arrays; :meth:`column` hands out
    one destination's :class:`RouteColumn`, which ``route()`` /
    ``as_path()`` read.
    """

    def __init__(
        self,
        index: SolverIndex,
        dest_idx: np.ndarray,
        lens: np.ndarray,
        nxt: np.ndarray,
        via: np.ndarray,
    ) -> None:
        self._index = index
        self._col = {int(index.asn[d]): j for j, d in enumerate(dest_idx)}
        self._columns: dict[int, RouteColumn] = {}
        self.lens = lens
        self.next_idx = nxt
        self.via = via

    def column(self, dst_asn: int) -> RouteColumn:
        """The route column of destination ``dst_asn``.

        Raises:
            KeyError: if ``dst_asn`` is not one of the table's destinations.
        """
        column = self._columns.get(dst_asn)
        if column is None:
            j = self._col[dst_asn]
            column = self._columns[dst_asn] = RouteColumn(
                self._index, dst_asn,
                self.next_idx[:, j], self.via[:, j], self.lens[:, j],
            )
        return column

    def as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS-level path from ``src_asn`` to ``dst_asn``, or None."""
        return self.column(dst_asn).as_path(src_asn)

    def route(self, src_asn: int, dst_asn: int) -> BGPRoute | None:
        """The :class:`BGPRoute` installed at ``src_asn``, or None."""
        return self.column(dst_asn).route(src_asn)


#: Destination-block width: bounds per-block scratch to
#: ``O(n_as * block)`` while keeping the reductions wide enough to
#: amortize kernel launches.
DEFAULT_BLOCK = 128


def converge_columns(
    index: SolverIndex, dest_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Converge destination AS indices into ``(n_as, d)`` route tables.

    Returns ``(lens, next_idx, via)`` as int32/int32/int8, column ``j``
    for ``dest_idx[j]`` (see :func:`converge_block`), filled
    :data:`DEFAULT_BLOCK` destinations at a time.  int32 is plenty: path
    node counts top out at ``n_as + 1`` and ``SENTINEL_LEN`` still fits.
    """
    dest_idx = np.asarray(dest_idx, dtype=np.int64)
    n, d = len(index.asn), len(dest_idx)
    lens = np.empty((n, d), dtype=np.int32)
    nxt = np.empty((n, d), dtype=np.int32)
    via = np.empty((n, d), dtype=np.int8)
    for lo in range(0, d, DEFAULT_BLOCK):
        hi = min(lo + DEFAULT_BLOCK, d)
        lens[:, lo:hi], nxt[:, lo:hi], via[:, lo:hi] = converge_block(
            index, dest_idx[lo:hi]
        )
    return lens, nxt, via


def converge_all(
    arrays: TopologyArrays, dests: list[int] | None = None
) -> ColumnarRouteTable:
    """Converge ``dests`` (ASNs; default all) into one route table."""
    asn_index = arrays.asn_index()
    if dests is None:
        dest_asns = sorted(int(a) for a in arrays.as_asn)
    else:
        dest_asns = sorted(set(dests))
    dest_idx = np.array([int(asn_index[d]) for d in dest_asns], dtype=np.int64)
    if len(dest_idx) and dest_idx.min() < 0:
        bad = [d for d in dest_asns if asn_index[d] < 0]
        raise ValueError(f"unknown destination ASNs: {bad}")
    with obs.span("routing.columnar.converge_all") as sp:
        sp.set("destinations", len(dest_idx))
        index = build_solver_index(arrays.relationship_arrays())
        lens, nxt, via = converge_columns(index, dest_idx)
    obs.count("routing.columnar.batch_convergences")
    return ColumnarRouteTable(index, dest_idx, lens, nxt, via)


# ---------------------------------------------------------------------------
# IGP on CSR.
# ---------------------------------------------------------------------------

def igp_matrix(
    arrays: TopologyArrays, as_idx: int
) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs IGP costs for one AS, computed directly on CSR.

    No object translation: the intra-AS sub-graph is sliced out of the
    link table and handed to :func:`~repro.routing.igp.shortest_paths`,
    the rule :class:`~repro.routing.igp.IGPTable` applies to object
    topologies.

    Returns:
        ``(router_ids, dist)``: the AS's router ids (ascending) and the
        dense cost matrix between them (``inf`` when disconnected).
    """
    indptr, rids = arrays.routers_by_as()
    routers = np.sort(rids[indptr[as_idx]: indptr[as_idx + 1]]).astype(np.int64)
    n_r = len(routers)
    local = np.full(arrays.n_routers, -1, dtype=np.int64)
    local[routers] = np.arange(n_r)
    u_loc = local[arrays.link_u]
    v_loc = local[arrays.link_v]
    intra = (u_loc >= 0) & (v_loc >= 0)
    if arrays.as_igp[as_idx] == IGP_CODES[IGPStyle.DELAY_METRIC]:
        metric = arrays.link_prop_ms[intra]
    else:
        metric = np.ones(int(intra.sum()))
    dist, _pred, _edges = shortest_paths(
        n_r, u_loc[intra], v_loc[intra], metric, np.nonzero(intra)[0]
    )
    return routers, dist
