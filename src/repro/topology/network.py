"""The :class:`Topology` container: ASes, routers, links, and hosts.

A topology is the static substrate over which routing
(:mod:`repro.routing`) resolves paths and the dynamic simulator
(:mod:`repro.netsim`) applies load.  It is built by
:mod:`repro.topology.generator` and then treated as immutable, except that
measurement hosts may be attached after generation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.topology.asys import ASLink, AutonomousSystem, Relationship
from repro.topology.geography import City, propagation_delay_ms
from repro.topology.links import DEFAULT_CAPACITY_MBPS, Link, LinkKind
from repro.topology.relationships import (
    REL_CODES,
    RelationshipArrays,
    build_relationship_arrays,
)
from repro.topology.router import Host, Router, RouterRole


class TopologyError(RuntimeError):
    """Raised on structurally invalid topology operations."""


@dataclass
class Topology:
    """A complete simulated internetwork.

    The container owns all identifier spaces: router ids and link ids are
    dense indices into :attr:`routers` and :attr:`links`, so the netsim
    layer can keep per-link state in flat numpy arrays.
    """

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    as_links: list[ASLink] = field(default_factory=list)
    routers: list[Router] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    hosts: list[Host] = field(default_factory=list)

    # Derived indices, maintained incrementally by the add_* methods.
    _as_adj: dict[int, list[ASLink]] = field(default_factory=lambda: defaultdict(list))
    _router_adj: dict[int, list[Link]] = field(default_factory=lambda: defaultdict(list))
    _core_router: dict[tuple[int, str], int] = field(default_factory=dict)
    _as_routers: dict[int, list[int]] = field(default_factory=lambda: defaultdict(list))
    _exchange_links: dict[frozenset[int], list[int]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _host_by_name: dict[str, Host] = field(default_factory=dict)
    _rel_index: RelationshipArrays | None = field(
        default=None, repr=False, compare=False
    )
    _route_cache: dict[str, dict] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Structural mutations so far: ASes, routers, links, adjacencies and
    #: exchange-index entries added or removed (attaching a host is not
    #: one).  Memoizers compare it to learn, in one read, whether they
    #: need to re-check their state.
    mutations: int = field(default=0, init=False, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> AutonomousSystem:
        """Register an AS.

        Raises:
            TopologyError: if the ASN is already taken.
        """
        if asys.asn in self.ases:
            raise TopologyError(f"duplicate ASN {asys.asn}")
        self.ases[asys.asn] = asys
        self._rel_index = None
        self._route_cache.clear()
        self.mutations += 1
        return asys

    def add_router(self, asn: int, city: City, role: RouterRole) -> Router:
        """Create a router in ``asn`` at ``city`` and return it.

        Raises:
            TopologyError: if ``asn`` is unknown.
        """
        if asn not in self.ases:
            raise TopologyError(f"unknown ASN {asn}")
        router = Router(router_id=len(self.routers), asn=asn, city=city, role=role)
        self.routers.append(router)
        self._as_routers[asn].append(router.router_id)
        self._route_cache.clear()
        self.mutations += 1
        if role is RouterRole.CORE:
            key = (asn, city.name)
            if key in self._core_router:
                raise TopologyError(f"AS{asn} already has a core router in {city.name}")
            self._core_router[key] = router.router_id
        return router

    def add_link(
        self,
        u: int,
        v: int,
        kind: LinkKind,
        *,
        capacity_mbps: float | None = None,
        base_utilization: float = 0.3,
        prop_delay_ms: float | None = None,
    ) -> Link:
        """Create a link between routers ``u`` and ``v`` and return it.

        Propagation delay defaults to the city-to-city value; capacity
        defaults by link kind.

        Raises:
            TopologyError: if either router id is out of range.
        """
        if not (0 <= u < len(self.routers) and 0 <= v < len(self.routers)):
            raise TopologyError(f"router id out of range: ({u}, {v})")
        if prop_delay_ms is None:
            prop_delay_ms = propagation_delay_ms(self.routers[u].city, self.routers[v].city)
        if capacity_mbps is None:
            capacity_mbps = DEFAULT_CAPACITY_MBPS[kind]
        link = Link(
            link_id=len(self.links),
            u=min(u, v),
            v=max(u, v),
            kind=kind,
            prop_delay_ms=prop_delay_ms,
            capacity_mbps=capacity_mbps,
            base_utilization=base_utilization,
        )
        self.links.append(link)
        self._router_adj[link.u].append(link)
        self._router_adj[link.v].append(link)
        self._route_cache.clear()
        self.mutations += 1
        return link

    def add_as_link(self, as_link: ASLink) -> ASLink:
        """Register a BGP adjacency (router-level exchange links are added
        separately via :meth:`add_exchange_link`).

        Raises:
            TopologyError: if either ASN is unknown.
        """
        for asn in (as_link.a, as_link.b):
            if asn not in self.ases:
                raise TopologyError(f"unknown ASN {asn} in AS link")
        self.as_links.append(as_link)
        self._as_adj[as_link.a].append(as_link)
        self._as_adj[as_link.b].append(as_link)
        # AS-level only: IGP state is a function of the router/link
        # substrate and stays warm (see _invalidate_as_graph).
        self._invalidate_as_graph()
        return as_link

    def add_exchange_link(self, link: Link) -> None:
        """Index an already-created EXCHANGE link by its AS endpoints.

        Raises:
            TopologyError: if the link is not an exchange link or connects
                routers within one AS.
        """
        if link.kind is not LinkKind.EXCHANGE:
            raise TopologyError("add_exchange_link requires an EXCHANGE link")
        asn_u = self.routers[link.u].asn
        asn_v = self.routers[link.v].asn
        if asn_u == asn_v:
            raise TopologyError("exchange link endpoints must be in different ASes")
        self._exchange_links[frozenset((asn_u, asn_v))].append(link.link_id)
        self.mutations += 1

    # -- scenario mutation -------------------------------------------------
    #
    # The failure engine (repro.scenario) toggles AS-level structure —
    # adjacencies and the exchange-link index — but never the router/link
    # substrate: netsim keeps per-link state in flat arrays sized at
    # construction, so link ids must stay dense and stable for the life of
    # a run.  Each mutator returns exactly what its inverse needs, so a
    # timeline can revert to a byte-identical pristine topology.

    def _invalidate_as_graph(self) -> None:
        """Drop state derived from the AS graph after an adjacency change.

        Only the BGP bag of :meth:`routing_cache` is cleared: IGP tables
        are intra-AS functions of the router/link substrate, which
        adjacency mutations cannot touch, so they stay warm across
        scenario segments.
        """
        self._rel_index = None
        self._route_cache.pop("bgp", None)
        self.mutations += 1

    def as_link_between(self, asn_a: int, asn_b: int) -> ASLink | None:
        """The BGP adjacency connecting two ASes, or None."""
        for as_link in self._as_adj.get(asn_a, []):
            if as_link.other(asn_a) == asn_b:
                return as_link
        return None

    def remove_as_link(self, as_link: ASLink) -> int:
        """Remove a BGP adjacency; returns its index in :attr:`as_links`.

        The exchange-link index entry for the pair is *not* touched (use
        :meth:`detach_exchange_link`); pass the returned index to
        :meth:`insert_as_link` to restore the adjacency exactly.

        Raises:
            TopologyError: if the adjacency is not registered.
        """
        try:
            index = self.as_links.index(as_link)
        except ValueError:
            raise TopologyError(
                f"AS link AS{as_link.a}-AS{as_link.b} is not registered"
            ) from None
        del self.as_links[index]
        self._as_adj[as_link.a].remove(as_link)
        self._as_adj[as_link.b].remove(as_link)
        self._invalidate_as_graph()
        return index

    def insert_as_link(self, index: int, as_link: ASLink) -> ASLink:
        """Re-insert a removed adjacency at its original position.

        Exact inverse of :meth:`remove_as_link`: the adjacency lists are
        restored to the order sequential :meth:`add_as_link` calls would
        have produced, so solver iteration order round-trips.

        Raises:
            TopologyError: if the index is out of range or an ASN unknown.
        """
        for asn in (as_link.a, as_link.b):
            if asn not in self.ases:
                raise TopologyError(f"unknown ASN {asn} in AS link")
        if not 0 <= index <= len(self.as_links):
            raise TopologyError(f"AS link index {index} out of range")
        self.as_links.insert(index, as_link)
        for asn in (as_link.a, as_link.b):
            pos = sum(
                1 for other in self.as_links[:index] if asn in (other.a, other.b)
            )
            self._as_adj[asn].insert(pos, as_link)
        self._invalidate_as_graph()
        return as_link

    def detach_exchange_link(self, link_id: int) -> int:
        """Remove one router-level link from the exchange index.

        The :class:`Link` itself stays in :attr:`links` (the netsim
        substrate is fixed), so this only changes what
        :meth:`exchange_links_between` reports.  Forwarding-level state
        only: routing caches are untouched, since BGP never reads the
        exchange index.

        Returns:
            The link's position in its index entry, for
            :meth:`reattach_exchange_link`.

        Raises:
            TopologyError: if the link is not in the exchange index.
        """
        link = self.links[link_id]
        key = frozenset((self.routers[link.u].asn, self.routers[link.v].asn))
        ids = self._exchange_links.get(key)
        if not ids or link_id not in ids:
            raise TopologyError(
                f"link {link_id} is not in the exchange index"
            )
        position = ids.index(link_id)
        ids.pop(position)
        if not ids:
            del self._exchange_links[key]
        self.mutations += 1
        return position

    def reattach_exchange_link(self, link_id: int, position: int) -> None:
        """Exact inverse of :meth:`detach_exchange_link`.

        Raises:
            TopologyError: if the link is not an inter-AS exchange link or
                the position is out of range.
        """
        link = self.links[link_id]
        if link.kind is not LinkKind.EXCHANGE:
            raise TopologyError("reattach_exchange_link requires an EXCHANGE link")
        asn_u = self.routers[link.u].asn
        asn_v = self.routers[link.v].asn
        if asn_u == asn_v:
            raise TopologyError("exchange link endpoints must be in different ASes")
        ids = self._exchange_links[frozenset((asn_u, asn_v))]
        if not 0 <= position <= len(ids):
            raise TopologyError(
                f"exchange index position {position} out of range"
            )
        ids.insert(position, link_id)
        self.mutations += 1

    def add_host(self, host: Host) -> Host:
        """Register a measurement host.

        Raises:
            TopologyError: if the host name is already taken.
        """
        if host.name in self._host_by_name:
            raise TopologyError(f"duplicate host name {host.name!r}")
        self.hosts.append(host)
        self._host_by_name[host.name] = host
        return host

    # -- lookups -----------------------------------------------------------

    def as_neighbors(self, asn: int) -> list[ASLink]:
        """AS adjacencies involving ``asn``."""
        return self._as_adj.get(asn, [])

    def relationship_index(self) -> RelationshipArrays:
        """Relationship-classified AS adjacency as typed arrays (cached).

        The same index :meth:`TopologyArrays.relationship_arrays
        <repro.topology.columnar.TopologyArrays.relationship_arrays>`
        builds, over ASes in registration order.  Invalidated by every
        AS-graph mutation; consumers must not hold the returned index
        across one.
        """
        if self._rel_index is None:
            links = self.as_links
            self._rel_index = build_relationship_arrays(
                np.fromiter(self.ases, dtype=np.int64, count=len(self.ases)),
                np.array([al.a for al in links], dtype=np.int64),
                np.array([al.b for al in links], dtype=np.int64),
                np.array([REL_CODES[al.rel_ab] for al in links], dtype=np.int8),
            )
        return self._rel_index

    def routing_cache(self, layer: str) -> dict:
        """Mutable memo bag for derived routing state, keyed by layer name.

        Routing state (converged BGP routes, IGP tables) is a pure
        function of the topology, so resolver instances built over the
        same topology share it through these bags instead of recomputing
        it (:mod:`repro.routing.bgp` uses layer ``"bgp"``,
        :mod:`repro.routing.igp` uses ``"igp"``).  Every bag is cleared
        whenever the AS graph or the router/link substrate is mutated, so
        cached state can never go stale; attaching a host does not clear
        them (hosts are endpoints, not graph structure).
        """
        return self._route_cache.setdefault(layer, {})

    def __getstate__(self):
        # Derived routing state is cheap to rebuild and can be large
        # (all-pairs IGP matrices, converged route sets); drop it so
        # pickles shipped to worker processes stay lean.  The mutation
        # count is history, not structure: equal topologies pickle alike
        # however they were built.
        state = self.__dict__.copy()
        state["_rel_index"] = None
        state["_route_cache"] = {}
        state["mutations"] = 0
        return state

    def relationship(self, asn: int, neighbor: int) -> Relationship | None:
        """Relationship of ``neighbor`` from ``asn``'s viewpoint, or None."""
        for as_link in self._as_adj.get(asn, []):
            if as_link.other(asn) == neighbor:
                return as_link.relationship_from(asn)
        return None

    def routers_of(self, asn: int) -> list[int]:
        """Router ids belonging to AS ``asn``."""
        return self._as_routers.get(asn, [])

    def core_router(self, asn: int, city_name: str) -> int:
        """The core router of ``asn`` in ``city_name``.

        Raises:
            TopologyError: if the AS has no core router there.
        """
        try:
            return self._core_router[(asn, city_name)]
        except KeyError:
            raise TopologyError(f"AS{asn} has no core router in {city_name}") from None

    def has_core_router(self, asn: int, city_name: str) -> bool:
        """Whether ``asn`` has a core router in ``city_name``."""
        return (asn, city_name) in self._core_router

    def links_of(self, router_id: int) -> list[Link]:
        """Links incident to a router."""
        return self._router_adj.get(router_id, [])

    def exchange_links_between(self, asn_a: int, asn_b: int) -> list[Link]:
        """Router-level exchange links realizing the (a, b) AS adjacency."""
        ids = self._exchange_links.get(frozenset((asn_a, asn_b)), [])
        return [self.links[i] for i in ids]

    def exchange_index(self) -> dict[frozenset[int], tuple[int, ...]]:
        """A snapshot of the exchange index: AS pair -> exchange link ids.

        Pairs without exchange links are absent; two snapshots differ at
        exactly the pairs whose :meth:`exchange_links_between` differs.
        """
        return {key: tuple(ids) for key, ids in self._exchange_links.items() if ids}

    def host(self, name: str) -> Host:
        """Look up a host by name.

        Raises:
            TopologyError: if no such host exists.
        """
        try:
            return self._host_by_name[name]
        except KeyError:
            raise TopologyError(f"unknown host {name!r}") from None

    def host_names(self) -> list[str]:
        """Names of all registered hosts, in registration order."""
        return [h.name for h in self.hosts]

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` if violated.

        Invariants:
          * every AS link has at least one router-level exchange link;
          * every exchange city of an AS link hosts core routers of both ASes;
          * every host's access router and link exist and match;
          * link endpoints are valid router ids.
        """
        for as_link in self.as_links:
            if not self.exchange_links_between(as_link.a, as_link.b):
                raise TopologyError(
                    f"AS link AS{as_link.a}-AS{as_link.b} has no exchange links"
                )
            for city_name in as_link.exchange_cities:
                for asn in (as_link.a, as_link.b):
                    if not self.has_core_router(asn, city_name):
                        raise TopologyError(
                            f"AS{asn} lacks a core router in exchange city {city_name}"
                        )
        for link in self.links:
            if not (0 <= link.u < len(self.routers) and 0 <= link.v < len(self.routers)):
                raise TopologyError(f"link {link.link_id} has invalid endpoints")
        for host in self.hosts:
            if not 0 <= host.access_router < len(self.routers):
                raise TopologyError(f"host {host.name} has invalid access router")
            if not 0 <= host.access_link < len(self.links):
                raise TopologyError(f"host {host.name} has invalid access link")
            router = self.routers[host.access_router]
            if router.asn != host.asn:
                raise TopologyError(
                    f"host {host.name} attaches to router of AS{router.asn}, "
                    f"but claims AS{host.asn}"
                )

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Size counters, handy for logging and tests."""
        return {
            "ases": len(self.ases),
            "as_links": len(self.as_links),
            "routers": len(self.routers),
            "links": len(self.links),
            "hosts": len(self.hosts),
        }
