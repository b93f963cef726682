"""Columnar topology backend: the whole internetwork as flat arrays.

The object :class:`~repro.topology.network.Topology` keeps one Python
object per AS, router, link, and host.  That representation is ideal for
the paper-scale topologies (a few hundred ASes) but collapses two to
three orders of magnitude earlier than the hardware does: at 100k ASes
the object graph alone costs gigabytes and every traversal pays pointer-
chasing and dict-hashing overhead.

:class:`TopologyArrays` stores the same information column-wise:

* one numpy array per attribute (ASN, tier code, link delay, ...),
  indexed by the same dense ids the object model uses;
* ragged per-entity lists (an AS's cities, an AS link's exchange
  cities) in CSR form (``indptr`` + flat index array);
* the AS graph, the per-relationship Gao-Rexford adjacency (shared
  with the object model, see :mod:`repro.topology.relationships`), and
  the intra-AS router graph as CSR adjacency (see
  :mod:`repro.routing.columnar` for the solvers that consume them).

The two representations convert losslessly in both directions:
:func:`from_topology` reads an object topology into arrays, and
:meth:`TopologyArrays.to_topology` replays the arrays through the object
construction API so the result is *byte-identical* under :mod:`pickle`
to the original (same derived-index ordering, same object sharing).
Both representations route through the same solver, so a converted
topology routes exactly like its source.

Enum attributes are stored as small integer codes; the ``*_CODES`` /
``*_FROM_CODE`` tables below (relationship codes live in
:mod:`repro.topology.relationships`) define the mapping and are part of
the on-disk/shared-memory contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import runtime as obs

from repro.topology.asys import ASLink, ASTier, AutonomousSystem, IGPStyle
from repro.topology.geography import City
from repro.topology.links import Link, LinkKind
from repro.topology.network import Topology
from repro.topology.relationships import (
    REL_CODES,
    REL_FROM_CODE,
    RelationshipArrays,
    asn_lookup,
    build_relationship_arrays,
)
from repro.topology.router import Host, Router, RouterRole

#: Stable enum -> int8 code tables (part of the columnar contract).
TIER_FROM_CODE: tuple[ASTier, ...] = (ASTier.TIER1, ASTier.TRANSIT, ASTier.STUB)
IGP_FROM_CODE: tuple[IGPStyle, ...] = (IGPStyle.HOP_COUNT, IGPStyle.DELAY_METRIC)
ROLE_FROM_CODE: tuple[RouterRole, ...] = (
    RouterRole.CORE,
    RouterRole.BORDER,
    RouterRole.ACCESS,
)
KIND_FROM_CODE: tuple[LinkKind, ...] = (
    LinkKind.BACKBONE,
    LinkKind.METRO,
    LinkKind.EXCHANGE,
    LinkKind.ACCESS,
)

TIER_CODES = {member: i for i, member in enumerate(TIER_FROM_CODE)}
IGP_CODES = {member: i for i, member in enumerate(IGP_FROM_CODE)}
ROLE_CODES = {member: i for i, member in enumerate(ROLE_FROM_CODE)}
KIND_CODES = {member: i for i, member in enumerate(KIND_FROM_CODE)}


class ColumnarError(RuntimeError):
    """Raised on invalid columnar topology operations."""


def _csr_from_lists(lists: list[list[int]], dtype=np.int32) -> tuple[np.ndarray, np.ndarray]:
    indptr = np.zeros(len(lists) + 1, dtype=np.int64)
    for i, row in enumerate(lists):
        indptr[i + 1] = indptr[i] + len(row)
    flat = np.empty(int(indptr[-1]), dtype=dtype)
    for i, row in enumerate(lists):
        flat[indptr[i]: indptr[i + 1]] = row
    return indptr, flat


@dataclass
class TopologyArrays:
    """A complete internetwork in columnar (struct-of-arrays) form.

    Row ``i`` of the AS table is the AS registered ``i``-th; router and
    link rows are indexed by the same dense ``router_id`` / ``link_id``
    the object model uses.  City rows are unique cities in order of
    first appearance.  See the module docstring for the conversion
    contract.
    """

    # -- city table --------------------------------------------------------
    city_names: list[str] = field(default_factory=list)
    city_lat: np.ndarray = field(default_factory=lambda: np.empty(0))
    city_lon: np.ndarray = field(default_factory=lambda: np.empty(0))
    city_regions: list[str] = field(default_factory=list)
    city_weight: np.ndarray = field(default_factory=lambda: np.empty(0))

    # -- AS table ----------------------------------------------------------
    as_asn: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    as_names: list[str] = field(default_factory=list)
    as_tier: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    as_igp: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    as_early_exit: np.ndarray = field(default_factory=lambda: np.empty(0, np.bool_))
    as_city_indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    as_city_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))

    # -- router table (row = router_id) ------------------------------------
    router_asn: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    router_city: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    router_role: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))

    # -- link table (row = link_id) ----------------------------------------
    link_u: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    link_v: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    link_kind: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    link_prop_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    link_capacity: np.ndarray = field(default_factory=lambda: np.empty(0))
    link_util: np.ndarray = field(default_factory=lambda: np.empty(0))

    # -- AS-link table (row = registration order) --------------------------
    aslink_a: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    aslink_b: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    aslink_rel: np.ndarray = field(default_factory=lambda: np.empty(0, np.int8))
    aslink_city_indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    aslink_city_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))

    # -- exchange-link index (pair rows in key-insertion order) ------------
    exch_pair_a: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    exch_pair_b: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    exch_indptr: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    exch_link_ids: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))

    # -- host table (row = host_id) ----------------------------------------
    host_names: list[str] = field(default_factory=list)
    host_city: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    host_asn: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    host_access_router: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    host_access_link: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    host_rate_limit: np.ndarray = field(default_factory=lambda: np.empty(0))

    # -- derived (lazily built, never pickled as part of the contract) -----
    _asn_index: np.ndarray | None = field(default=None, repr=False, compare=False)
    _rel_arrays: RelationshipArrays | None = field(default=None, repr=False, compare=False)
    _as_routers: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    # -- sizes -------------------------------------------------------------

    @property
    def n_as(self) -> int:
        """Number of autonomous systems."""
        return len(self.as_asn)

    @property
    def n_routers(self) -> int:
        """Number of routers."""
        return len(self.router_asn)

    @property
    def n_links(self) -> int:
        """Number of router-level links."""
        return len(self.link_u)

    @property
    def n_hosts(self) -> int:
        """Number of measurement hosts."""
        return len(self.host_names)

    def summary(self) -> dict[str, int]:
        """Size counters matching :meth:`Topology.summary`."""
        return {
            "ases": self.n_as,
            "as_links": len(self.aslink_a),
            "routers": self.n_routers,
            "links": self.n_links,
            "hosts": self.n_hosts,
        }

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_asn_index"] = None
        state["_rel_arrays"] = None
        state["_as_routers"] = None
        return state

    # -- lookups -----------------------------------------------------------

    def asn_index(self) -> np.ndarray:
        """Dense ASN -> AS-index lookup array (-1 for unknown ASNs)."""
        if self._asn_index is None:
            self._asn_index = asn_lookup(self.as_asn)
        return self._asn_index

    def as_cities(self, as_idx: int) -> np.ndarray:
        """City indices of one AS, in its cities-list order."""
        return self.as_city_idx[
            self.as_city_indptr[as_idx]: self.as_city_indptr[as_idx + 1]
        ]

    def routers_by_as(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of router ids grouped by AS index (ids ascending per AS)."""
        if self._as_routers is None:
            owner = self.asn_index()[self.router_asn]
            order = np.argsort(owner, kind="stable")
            counts = np.bincount(owner, minlength=self.n_as)
            indptr = np.zeros(self.n_as + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._as_routers = (indptr, order.astype(np.int32))
        return self._as_routers

    def relationship_arrays(self) -> RelationshipArrays:
        """The typed-array Gao-Rexford index (cached)."""
        if self._rel_arrays is None:
            self._rel_arrays = build_relationship_arrays(
                self.as_asn, self.aslink_a, self.aslink_b, self.aslink_rel
            )
        return self._rel_arrays

    # -- conversion --------------------------------------------------------

    def to_topology(self) -> Topology:
        """Rebuild the object :class:`Topology` by replaying construction.

        Every ``add_*`` call is replayed in the original registration
        order, so derived indices (adjacency lists, core-router map,
        exchange index) come out in the same iteration order and the
        result pickles byte-identically to the topology the arrays were
        built from.
        """
        with obs.span("topology.columnar.to_topology") as sp:
            sp.set("ases", self.n_as)
            topo = Topology()
            cities = [
                City(
                    name=self.city_names[i],
                    lat=float(self.city_lat[i]),
                    lon=float(self.city_lon[i]),
                    region=self.city_regions[i],
                    population_weight=float(self.city_weight[i]),
                )
                for i in range(len(self.city_names))
            ]
            as_city_idx = self.as_city_idx.tolist()
            as_city_indptr = self.as_city_indptr.tolist()
            for i in range(self.n_as):
                topo.add_as(
                    AutonomousSystem(
                        asn=int(self.as_asn[i]),
                        name=self.as_names[i],
                        tier=TIER_FROM_CODE[self.as_tier[i]],
                        cities=[
                            cities[c]
                            for c in as_city_idx[as_city_indptr[i]: as_city_indptr[i + 1]]
                        ],
                        igp_style=IGP_FROM_CODE[self.as_igp[i]],
                        early_exit=bool(self.as_early_exit[i]),
                    )
                )
            # Routers and links replay through the raw containers (the
            # construction helpers recompute defaults we already store);
            # derived adjacency is maintained exactly as add_router /
            # add_link would.
            router_asn = self.router_asn.tolist()
            router_city = self.router_city.tolist()
            router_role = self.router_role.tolist()
            for rid in range(self.n_routers):
                asn = router_asn[rid]
                router = Router(
                    router_id=rid,
                    asn=asn,
                    city=cities[router_city[rid]],
                    role=ROLE_FROM_CODE[router_role[rid]],
                )
                topo.routers.append(router)
                topo._as_routers[asn].append(rid)
                if router.role is RouterRole.CORE:
                    topo._core_router[(asn, router.city.name)] = rid
            link_u = self.link_u.tolist()
            link_v = self.link_v.tolist()
            link_kind = self.link_kind.tolist()
            link_prop = self.link_prop_ms.tolist()
            link_cap = self.link_capacity.tolist()
            link_util = self.link_util.tolist()
            for lid in range(self.n_links):
                link = Link(
                    link_id=lid,
                    u=link_u[lid],
                    v=link_v[lid],
                    kind=KIND_FROM_CODE[link_kind[lid]],
                    prop_delay_ms=link_prop[lid],
                    capacity_mbps=link_cap[lid],
                    base_utilization=link_util[lid],
                )
                topo.links.append(link)
                topo._router_adj[link.u].append(link)
                topo._router_adj[link.v].append(link)
            aslink_city_idx = self.aslink_city_idx.tolist()
            aslink_city_indptr = self.aslink_city_indptr.tolist()
            for i in range(len(self.aslink_a)):
                lo, hi = aslink_city_indptr[i], aslink_city_indptr[i + 1]
                topo.add_as_link(
                    ASLink(
                        a=int(self.aslink_a[i]),
                        b=int(self.aslink_b[i]),
                        rel_ab=REL_FROM_CODE[self.aslink_rel[i]],
                        exchange_cities=tuple(
                            cities[c].name for c in aslink_city_idx[lo:hi]
                        ),
                    )
                )
            exch_indptr = self.exch_indptr.tolist()
            exch_link_ids = self.exch_link_ids.tolist()
            for i in range(len(self.exch_pair_a)):
                key = frozenset((int(self.exch_pair_a[i]), int(self.exch_pair_b[i])))
                topo._exchange_links[key] = exch_link_ids[
                    exch_indptr[i]: exch_indptr[i + 1]
                ]
            for h in range(self.n_hosts):
                topo.add_host(
                    Host(
                        host_id=h,
                        name=self.host_names[h],
                        city=cities[self.host_city[h]],
                        asn=int(self.host_asn[h]),
                        access_router=int(self.host_access_router[h]),
                        access_link=int(self.host_access_link[h]),
                        icmp_rate_limit_per_min=float(self.host_rate_limit[h]),
                    )
                )
            # Construction replay dirties the route cache repeatedly;
            # leave the rebuilt topology exactly as a fresh build: empty
            # caches, no relationship index.
            topo._route_cache.clear()
            topo._rel_index = None
        obs.count("topology.columnar.to_topology")
        return topo


def from_topology(topo: Topology) -> TopologyArrays:
    """Read an object :class:`Topology` into :class:`TopologyArrays`.

    The inverse of :meth:`TopologyArrays.to_topology`; see the module
    docstring for the round-trip contract.
    """
    with obs.span("topology.columnar.from_topology") as sp:
        sp.set("ases", len(topo.ases))
        arrays = TopologyArrays()
        city_index: dict[str, int] = {}

        def city_id(city: City) -> int:
            idx = city_index.get(city.name)
            if idx is None:
                idx = len(arrays.city_names)
                city_index[city.name] = idx
                arrays.city_names.append(city.name)
                arrays.city_regions.append(city.region)
                _city_lat.append(city.lat)
                _city_lon.append(city.lon)
                _city_weight.append(city.population_weight)
            return idx

        _city_lat: list[float] = []
        _city_lon: list[float] = []
        _city_weight: list[float] = []

        ases = list(topo.ases.values())
        as_city_lists = [[city_id(c) for c in a.cities] for a in ases]
        arrays.as_asn = np.array([a.asn for a in ases], dtype=np.int64)
        arrays.as_names = [a.name for a in ases]
        arrays.as_tier = np.array([TIER_CODES[a.tier] for a in ases], dtype=np.int8)
        arrays.as_igp = np.array([IGP_CODES[a.igp_style] for a in ases], dtype=np.int8)
        arrays.as_early_exit = np.array([a.early_exit for a in ases], dtype=np.bool_)
        arrays.as_city_indptr, arrays.as_city_idx = _csr_from_lists(as_city_lists)

        arrays.router_asn = np.array(
            [r.asn for r in topo.routers], dtype=np.int32
        ).reshape(-1)
        arrays.router_city = np.array(
            [city_id(r.city) for r in topo.routers], dtype=np.int32
        ).reshape(-1)
        arrays.router_role = np.array(
            [ROLE_CODES[r.role] for r in topo.routers], dtype=np.int8
        ).reshape(-1)

        arrays.link_u = np.array([k.u for k in topo.links], dtype=np.int32).reshape(-1)
        arrays.link_v = np.array([k.v for k in topo.links], dtype=np.int32).reshape(-1)
        arrays.link_kind = np.array(
            [KIND_CODES[k.kind] for k in topo.links], dtype=np.int8
        ).reshape(-1)
        arrays.link_prop_ms = np.array([k.prop_delay_ms for k in topo.links])
        arrays.link_capacity = np.array([k.capacity_mbps for k in topo.links])
        arrays.link_util = np.array([k.base_utilization for k in topo.links])

        arrays.aslink_a = np.array([al.a for al in topo.as_links], dtype=np.int64)
        arrays.aslink_b = np.array([al.b for al in topo.as_links], dtype=np.int64)
        arrays.aslink_rel = np.array(
            [REL_CODES[al.rel_ab] for al in topo.as_links], dtype=np.int8
        )
        arrays.aslink_city_indptr, arrays.aslink_city_idx = _csr_from_lists(
            [[city_index[name] for name in al.exchange_cities] for al in topo.as_links]
        )

        pairs = list(topo._exchange_links.items())
        pair_lists = []
        pair_a: list[int] = []
        pair_b: list[int] = []
        for key, link_ids in pairs:
            a, b = sorted(key)
            pair_a.append(a)
            pair_b.append(b)
            pair_lists.append(list(link_ids))
        arrays.exch_pair_a = np.array(pair_a, dtype=np.int64)
        arrays.exch_pair_b = np.array(pair_b, dtype=np.int64)
        arrays.exch_indptr, arrays.exch_link_ids = _csr_from_lists(pair_lists)

        arrays.host_names = [h.name for h in topo.hosts]
        arrays.host_city = np.array(
            [city_id(h.city) for h in topo.hosts], dtype=np.int32
        ).reshape(-1)
        arrays.host_asn = np.array([h.asn for h in topo.hosts], dtype=np.int32).reshape(-1)
        arrays.host_access_router = np.array(
            [h.access_router for h in topo.hosts], dtype=np.int32
        ).reshape(-1)
        arrays.host_access_link = np.array(
            [h.access_link for h in topo.hosts], dtype=np.int32
        ).reshape(-1)
        arrays.host_rate_limit = np.array(
            [h.icmp_rate_limit_per_min for h in topo.hosts]
        )

        arrays.city_lat = np.array(_city_lat)
        arrays.city_lon = np.array(_city_lon)
        arrays.city_weight = np.array(_city_weight)
    obs.count("topology.columnar.from_topology")
    return arrays
