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

:func:`converge_columns` fans destination blocks across a process pool
with the route table in ``multiprocessing.shared_memory``: workers write
disjoint column slices in place and return ``None``, so per-destination
results are never pickled.  :class:`~repro.routing.bgp.BGPTable` reads
the kernels through per-destination route dicts; :func:`converge_all`
keeps the table columnar for :class:`TopologyArrays` at scale.  The
fixpoint relaxation in :mod:`repro.routing.bgp` is the differential
tests' oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.obs import runtime as obs

from repro.routing.igp import shortest_paths
from repro.topology.asys import LOCAL_PREF, IGPStyle, Relationship
from repro.topology.columnar import IGP_CODES, TopologyArrays
from repro.topology.relationships import RelationshipArrays

#: Local-pref of an AS's own prefix (beats every learned route).
_ORIGIN_PREF = max(LOCAL_PREF.values()) + 100

#: Environment variable overriding the worker count for batch
#: convergence; the ``--routing-jobs`` CLI flag sets it so dataset
#: builders running in pool workers inherit the setting.
ROUTING_JOBS_ENV_VAR = "REPRO_ROUTING_JOBS"


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

    @property
    def next_hop(self) -> int:
        """The neighbor ASN traffic is handed to (== self for the origin)."""
        return self.as_path[1] if len(self.as_path) > 1 else self.as_path[0]

    @property
    def local_pref(self) -> int:
        """Local-preference value of this route."""
        if self.learned_from is None:
            return _ORIGIN_PREF  # own prefix beats all
        return LOCAL_PREF[self.learned_from]

    def preference_key(self) -> tuple[int, int, int]:
        """Sort key: smaller is more preferred.

        Orders by descending local-pref, ascending AS-path length,
        ascending next-hop ASN.
        """
        return (-self.local_pref, len(self.as_path), self.next_hop)


def resolve_routing_jobs(jobs: int | None, n_tasks: int) -> int:
    """Worker-process count for a batch of ``n_tasks`` convergence tasks.

    Precedence: explicit ``jobs`` argument, then the
    ``REPRO_ROUTING_JOBS`` environment variable, else 1 (in-process).
    Values are clamped to ``[1, n_tasks]``.
    """
    if n_tasks <= 0:
        return 1
    if jobs is None:
        env = os.environ.get(ROUTING_JOBS_ENV_VAR)
        if env is None or not env.strip():
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{ROUTING_JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return max(1, min(jobs, n_tasks))


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


class ColumnarRouteTable:
    """Converged routes for an explicit destination list, array-backed.

    State is three ``(n_as, n_dest)`` arrays instead of nested dicts.
    ``route()`` / ``as_path()`` materialize individual :class:`BGPRoute`
    objects on demand and ``routes()`` a whole destination's
    (following the next-hop chain, which is exact because every stored
    route references its neighbor's final choice).
    """

    def __init__(
        self,
        index: SolverIndex,
        dest_idx: np.ndarray,
        lens: np.ndarray,
        nxt: np.ndarray,
        via: np.ndarray,
    ) -> None:
        self._asn = index.asn
        self._asn_index = index.asn_index
        self._dest_idx = dest_idx
        self._col = {int(index.asn[d]): j for j, d in enumerate(dest_idx)}
        self.lens = lens
        self.next_idx = nxt
        self.via = via

    @property
    def dest_asns(self) -> list[int]:
        """Destination ASNs, in table column order."""
        return [int(self._asn[d]) for d in self._dest_idx]

    def as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS-level path from ``src_asn`` to ``dst_asn``, or None."""
        col = self._col[dst_asn]
        src = int(self._asn_index[src_asn])
        if src < 0 or self.via[src, col] == VIA_NONE:
            return None
        path = [int(self._asn[src])]
        node = src
        dest = int(self._dest_idx[col])
        while node != dest:
            node = int(self.next_idx[node, col])
            path.append(int(self._asn[node]))
        return tuple(path)

    def route(self, src_asn: int, dst_asn: int) -> BGPRoute | None:
        """The :class:`BGPRoute` installed at ``src_asn``, or None."""
        path = self.as_path(src_asn, dst_asn)
        if path is None:
            return None
        col = self._col[dst_asn]
        src = int(self._asn_index[src_asn])
        return BGPRoute(
            dest=dst_asn,
            as_path=path,
            learned_from=_VIA_RELATIONSHIP[int(self.via[src, col])],
        )

    def routes(self, dst_asn: int) -> dict[int, BGPRoute]:
        """Every route toward ``dst_asn`` as ``{holder ASN: BGPRoute}``.

        Holders are materialized in ascending path length, so each next
        hop's path exists before the holders that extend it.
        """
        col = self._col[dst_asn]
        lens = self.lens[:, col]
        via = self.via[:, col]
        routed = np.nonzero(via != VIA_NONE)[0]
        order = routed[np.argsort(lens[routed], kind="stable")].tolist()
        asn = self._asn.tolist()
        next_hop = self.next_idx[:, col].tolist()
        learned = via.tolist()
        paths: dict[int, tuple[int, ...]] = {}
        routes: dict[int, BGPRoute] = {}
        for i in order:
            hop = next_hop[i]
            path = (asn[i],) if hop == i else (asn[i], *paths[hop])
            paths[i] = path
            routes[asn[i]] = BGPRoute(
                dest=dst_asn,
                as_path=path,
                learned_from=_VIA_RELATIONSHIP[learned[i]],
            )
        return routes


#: Default destination-block width: bounds per-block scratch to
#: ``O(n_as * block)`` while keeping the reductions wide enough to
#: amortize kernel launches.
DEFAULT_BLOCK = 128


def converge_columns(
    index: SolverIndex,
    dest_idx: np.ndarray,
    *,
    jobs: int = 1,
    block: int = DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Converge destination AS indices into ``(n_as, d)`` route tables.

    Returns ``(lens, next_idx, via)`` as int32/int32/int8, column ``j``
    for ``dest_idx[j]`` (see :func:`converge_block`).  With ``jobs > 1``
    contiguous column shards fan out over a process pool with the three
    tables in shared memory — workers write disjoint column slices and
    return nothing, so results are never pickled.  Every column is a
    pure function of the schedule and its destination, so serial and
    sharded runs are bit-identical.
    """
    dest_idx = np.asarray(dest_idx, dtype=np.int64)
    if jobs > 1:
        return _converge_sharded(index, dest_idx, jobs, block)
    n, d = len(index.asn), len(dest_idx)
    lens = np.empty((n, d), dtype=np.int32)
    nxt = np.empty((n, d), dtype=np.int32)
    via = np.empty((n, d), dtype=np.int8)
    _converge_into(index, dest_idx, lens, nxt, via, 0, d, block)
    return lens, nxt, via


def converge_all(
    arrays: TopologyArrays,
    dests: list[int] | None = None,
    *,
    jobs: int | None = None,
    block: int = DEFAULT_BLOCK,
) -> ColumnarRouteTable:
    """Converge ``dests`` (ASNs; default all) into one route table.

    ``jobs`` shards destination blocks across :func:`converge_columns`'
    shared-memory pool; ``jobs=None`` consults ``REPRO_ROUTING_JOBS``
    exactly like :meth:`~repro.routing.bgp.BGPTable.converge_all`.
    """
    asn_index = arrays.asn_index()
    if dests is None:
        dest_asns = sorted(int(a) for a in arrays.as_asn)
    else:
        dest_asns = sorted(set(dests))
    dest_idx = np.array([int(asn_index[d]) for d in dest_asns], dtype=np.int64)
    if len(dest_idx) and dest_idx.min() < 0:
        bad = [d for d in dest_asns if asn_index[d] < 0]
        raise ValueError(f"unknown destination ASNs: {bad}")
    d = len(dest_idx)
    n_jobs = resolve_routing_jobs(jobs, (d + block - 1) // block)
    with obs.span("routing.columnar.converge_all") as sp:
        sp.set("destinations", d)
        sp.set("jobs", n_jobs)
        sp.set("block", block)
        index = build_solver_index(arrays.relationship_arrays())
        lens, nxt, via = converge_columns(index, dest_idx, jobs=n_jobs, block=block)
    obs.count("routing.columnar.batch_convergences")
    return ColumnarRouteTable(index, dest_idx, lens, nxt, via)


def _converge_into(
    index: SolverIndex,
    dest_idx: np.ndarray,
    lens: np.ndarray,
    nxt: np.ndarray,
    via: np.ndarray,
    col_lo: int,
    col_hi: int,
    block: int,
) -> None:
    """Fill table columns ``[col_lo, col_hi)`` block by block."""
    for lo in range(col_lo, col_hi, block):
        hi = min(lo + block, col_hi)
        lens[:, lo:hi], nxt[:, lo:hi], via[:, lo:hi] = converge_block(
            index, dest_idx[lo:hi]
        )


def _converge_shard(
    shm_name: str,
    shape: tuple[int, int],
    index: SolverIndex,
    dest_idx: np.ndarray,
    col_lo: int,
    col_hi: int,
    block: int,
) -> None:
    """Pool-worker task: converge columns ``[col_lo, col_hi)`` in place.

    Attaches the shared route table by name and writes its disjoint
    column slice; nothing is returned, so the only inter-process traffic
    is the (compact) solver schedule on the way in.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        lens, nxt, via = _table_views(shm, shape)
        _converge_into(index, dest_idx, lens, nxt, via, col_lo, col_hi, block)
    finally:
        shm.close()


def _table_bytes(shape: tuple[int, int]) -> int:
    n, d = shape
    return n * d * (4 + 4 + 1)


def _table_views(shm, shape: tuple[int, int]):
    """The three route-state arrays laid out back-to-back in one segment.

    int32 is plenty: path-node counts top out at ``n_as + 1`` and the
    ``SENTINEL_LEN`` marker still fits, while the full-table footprint
    halves versus int64 — the difference between a 10k-AS all-pairs
    table fitting in RAM comfortably or not.
    """
    n, d = shape
    lens = np.ndarray((n, d), dtype=np.int32, buffer=shm.buf, offset=0)
    nxt = np.ndarray((n, d), dtype=np.int32, buffer=shm.buf, offset=n * d * 4)
    via = np.ndarray((n, d), dtype=np.int8, buffer=shm.buf, offset=n * d * 8)
    return lens, nxt, via


def _converge_sharded(
    index: SolverIndex, dest_idx: np.ndarray, n_jobs: int, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fan destination-column shards across a process pool via shm."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import shared_memory

    shape = (len(index.asn), len(dest_idx))
    shm = shared_memory.SharedMemory(create=True, size=max(1, _table_bytes(shape)))
    try:
        # Contiguous column shards, one per worker.
        bounds = np.linspace(0, shape[1], n_jobs + 1).astype(int)
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [
                pool.submit(
                    _converge_shard,
                    shm.name, shape, index, dest_idx,
                    int(bounds[w]), int(bounds[w + 1]), block,
                )
                for w in range(n_jobs)
                if bounds[w] < bounds[w + 1]
            ]
            for future in futures:
                future.result()
        lens_v, nxt_v, via_v = _table_views(shm, shape)
        lens, nxt, via = lens_v.copy(), nxt_v.copy(), via_v.copy()
        del lens_v, nxt_v, via_v
    finally:
        shm.close()
        shm.unlink()
    return lens, nxt, via


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
