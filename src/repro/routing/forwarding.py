"""Host-to-host path resolution across the two-level routing hierarchy.

The resolver combines the BGP AS-level route with per-AS IGP paths and an
egress-selection policy to produce the router-level *default path* between
two hosts — the path whose quality the paper measures and compares against
synthetic alternates.

Egress selection is where the paper's "early-exit" (hot-potato) routing
lives: when an AS can hand traffic to the next AS at several exchange
points, an early-exit AS picks the exchange closest (in IGP metric) to the
packet's ingress, not the one best for the destination.  The
:class:`EgressPolicy` enum also provides a destination-aware "cold potato"
mode used by the ablation benchmarks.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable

from repro.obs import runtime as obs
from repro.routing.bgp import BGPTable
from repro.routing.igp import IGPSuite
from repro.topology.geography import propagation_delay_ms
from repro.topology.links import Link
from repro.topology.network import Topology
from repro.topology.router import Host


class ForwardingError(RuntimeError):
    """Raised when no policy-compliant path exists between two hosts."""


class EgressPolicy(enum.Enum):
    """How an AS chooses among multiple exchange points to the next AS."""

    #: Hot potato: minimize IGP cost from ingress to egress border.
    EARLY_EXIT = "early-exit"
    #: Cold potato: minimize IGP cost plus estimated remaining distance
    #: to the destination city (an idealized performance-aware policy).
    BEST_EXIT = "best-exit"


@dataclass(frozen=True, slots=True)
class ForwardPath:
    """A resolved unidirectional router-level path.

    Attributes:
        src: Source host name.
        dst: Destination host name.
        routers: Router ids traversed, source NIC to destination NIC.
        links: Link ids between consecutive routers.
        as_path: AS-level path (source AS first).
        prop_delay_ms: One-way propagation delay (sum over links).
    """

    src: str
    dst: str
    routers: tuple[int, ...]
    links: tuple[int, ...]
    as_path: tuple[int, ...]
    prop_delay_ms: float

    @property
    def hop_count(self) -> int:
        """Number of router-level hops."""
        return len(self.links)


@dataclass(frozen=True, slots=True)
class RoundTripPath:
    """Forward and reverse unidirectional paths for an ordered host pair.

    Internet routing is frequently asymmetric (Paxson 1996, cited by the
    paper); early-exit egress selection reproduces that here.  A round-trip
    measurement (ping, traceroute probe) traverses ``forward`` out and
    ``reverse`` back.
    """

    forward: ForwardPath
    reverse: ForwardPath

    @property
    def rtt_prop_ms(self) -> float:
        """Propagation-only round-trip time in milliseconds."""
        return self.forward.prop_delay_ms + self.reverse.prop_delay_ms

    @property
    def link_ids(self) -> tuple[int, ...]:
        """All link ids traversed, forward then reverse (with repeats)."""
        return self.forward.links + self.reverse.links

    @property
    def is_symmetric(self) -> bool:
        """Whether forward and reverse traverse the same routers."""
        return self.forward.routers == tuple(reversed(self.reverse.routers))


class PathResolver:
    """Resolves default paths between hosts under policy routing.

    Resolved paths stay cached across topology mutations (scenario
    events), and the cache is never stale.  A forward path is a function
    of its BGP AS path, the exchange links of each AS adjacency along it
    and the router/link substrate, so the first lookup after a mutation
    drops exactly the cached primary and secondary paths whose AS path
    changed or that cross an adjacency whose exchange links changed,
    plus those adjacencies' egress rankings; a substrate change (an AS,
    router or link added) drops everything.  The check reads only
    converged BGP state: a path whose destination AS has no converged
    column is dropped rather than converged alone, which is why
    :meth:`round_trips` converges its batch first.  One resolver can
    therefore serve a whole scenario walk.
    """

    def __init__(
        self,
        topo: Topology,
        *,
        egress_policy: EgressPolicy = EgressPolicy.EARLY_EXIT,
        respect_as_early_exit: bool = True,
    ) -> None:
        """
        Args:
            topo: The topology to route over.
            egress_policy: Egress selection mode applied to ASes that
                practice early exit (see ``respect_as_early_exit``).
            respect_as_early_exit: When True (default), an AS whose
                ``early_exit`` flag is False uses BEST_EXIT regardless of
                ``egress_policy``; when False, ``egress_policy`` applies
                to every AS (used by ablations).
        """
        self._topo = topo
        self._igp = IGPSuite(topo)
        self._bgp = BGPTable(topo)
        self._egress_policy = egress_policy
        self._respect_as_flag = respect_as_early_exit
        self._cache: dict[tuple[str, str], ForwardPath] = {}
        self._secondary_cache: dict[tuple[str, str], ForwardPath] = {}
        # Ranked egress options memoized across resolutions: many host
        # pairs funnel through the same (AS hop, ingress) combination, and
        # ranking re-runs IGP cost lookups per option.  Early-exit choices
        # are destination-independent; best-exit keys include the
        # destination city (the "remaining distance" term).
        self._egress_cache: dict[
            tuple[int, int, int, EgressPolicy, str | None], tuple[Link, ...]
        ] = {}
        # The topology state the caches were last checked against.
        self._mutations = topo.mutations
        self._exchange = topo.exchange_index()
        self._substrate = self._substrate_size()
        self._resolved = 0

    @property
    def bgp(self) -> BGPTable:
        """The underlying BGP table (shared, lazily converged)."""
        return self._bgp

    @property
    def igp(self) -> IGPSuite:
        """The underlying per-AS IGP suite."""
        return self._igp

    @property
    def resolved(self) -> int:
        """Paths resolved from scratch so far, primary and secondary."""
        return self._resolved

    # -- resolution --------------------------------------------------------

    def resolve(self, src: str, dst: str) -> ForwardPath:
        """Resolve the unidirectional default path from ``src`` to ``dst``.

        Results are cached until a topology mutation changes them (see
        the class docstring).

        Raises:
            ForwardingError: if the hosts are identical or unreachable.
        """
        if src == dst:
            raise ForwardingError("source and destination host are identical")
        self._sync()
        key = (src, dst)
        path = self._cache.get(key)
        if path is None:
            path = self._cache[key] = self._resolve_uncached(src, dst)
            self._resolved += 1
        return path

    def resolve_secondary(self, src: str, dst: str) -> ForwardPath:
        """The pair's secondary path: the first AS hop offering several
        exchange points is demoted to its second-choice egress.

        This is what a BGP-level flap at the primary exchange produces.
        Identical to the primary when no hop has an alternative.

        Raises:
            ForwardingError: if the hosts are identical or unreachable.
        """
        if src == dst:
            raise ForwardingError("source and destination host are identical")
        self._sync()
        key = (src, dst)
        path = self._secondary_cache.get(key)
        if path is None:
            path = self._secondary_cache[key] = self._resolve_uncached(
                src, dst, demote_first_flexible=True
            )
            self._resolved += 1
        return path

    def resolve_round_trip(self, src: str, dst: str) -> RoundTripPath:
        """Resolve both directions for an ordered host pair."""
        return RoundTripPath(
            forward=self.resolve(src, dst),
            reverse=self.resolve(dst, src),
        )

    def round_trips(
        self, pairs: Iterable[tuple[str, str]]
    ) -> dict[tuple[str, str], RoundTripPath]:
        """Round trips for many ordered host pairs, in ``pairs`` order.

        The pairs' endpoint ASes are converged first in one
        :meth:`BGPTable.converge_all` batch, so each resolution, and the
        staleness check the first one runs after a mutation, reads warm
        routing state.  Pairs with no policy-compliant route are left out.
        """
        pairs = list(pairs)
        self._bgp.converge_all(
            sorted({self._topo.host(h).asn for pair in pairs for h in pair})
        )
        out: dict[tuple[str, str], RoundTripPath] = {}
        for a, b in pairs:
            try:
                out[(a, b)] = self.resolve_round_trip(a, b)
            except ForwardingError:
                continue
        return out

    def resolve_round_trip_secondary(self, src: str, dst: str) -> RoundTripPath:
        """Round trip over the secondary forward path (reverse unchanged:
        a flap on the forward direction does not imply one backward)."""
        return RoundTripPath(
            forward=self.resolve_secondary(src, dst),
            reverse=self.resolve(dst, src),
        )

    def _substrate_size(self) -> tuple[int, int, int]:
        """AS, router and link counts: the substrate only ever grows."""
        topo = self._topo
        return (len(topo.ases), len(topo.routers), len(topo.links))

    def _sync(self) -> None:
        """Drop the cached state the topology's mutations since the last
        check may have changed (see the class docstring)."""
        topo = self._topo
        if topo.mutations == self._mutations:
            return
        self._mutations = topo.mutations
        exchange, substrate = topo.exchange_index(), self._substrate_size()
        # Adjacencies whose exchange links changed; None when the
        # substrate did, which may change every input.
        changed = None if substrate != self._substrate else {
            pair
            for pair in exchange.keys() | self._exchange.keys()
            if exchange.get(pair) != self._exchange.get(pair)
        }
        self._exchange, self._substrate = exchange, substrate
        stale = self._stale_as_paths(changed)
        kept = dropped = 0
        for cache in (self._cache, self._secondary_cache):
            for key in [key for key, path in cache.items() if path.as_path in stale]:
                del cache[key]
                dropped += 1
            kept += len(cache)
        for key in [
            key
            for key in self._egress_cache
            if changed is None or frozenset(key[:2]) in changed
        ]:
            del self._egress_cache[key]
        obs.count("routing.paths_kept", kept)
        obs.count("routing.paths_dropped", dropped)

    def _stale_as_paths(
        self, changed: set[frozenset[int]] | None
    ) -> set[tuple[int, ...]]:
        """Cached AS paths that no longer hold: BGP now routes differently
        (or the destination has no converged column to tell), or a hop
        crosses an adjacency in ``changed`` (every path when None)."""
        cached = {
            path.as_path
            for cache in (self._cache, self._secondary_cache)
            for path in cache.values()
        }
        if changed is None:
            return cached
        hops = {hop for pair in changed for hop in permutations(pair)}
        columns = {dst: self._bgp.stored(dst) for dst in {p[-1] for p in cached}}
        return {
            as_path
            for as_path in cached
            if (column := columns[as_path[-1]]) is None
            or column.as_path(as_path[0]) != as_path
            or not hops.isdisjoint(zip(as_path, as_path[1:]))
        }

    def _resolve_uncached(
        self, src: str, dst: str, *, demote_first_flexible: bool = False
    ) -> ForwardPath:
        topo = self._topo
        src_host = topo.host(src)
        dst_host = topo.host(dst)
        as_path = self._bgp.as_path(src_host.asn, dst_host.asn)
        if as_path is None:
            raise ForwardingError(
                f"no policy-compliant route from AS{src_host.asn} to AS{dst_host.asn}"
            )
        routers: list[int] = [src_host.access_router]
        links: list[int] = []
        current = src_host.access_router
        demote_pending = demote_first_flexible
        for i in range(len(as_path) - 1):
            here, nxt = as_path[i], as_path[i + 1]
            demote_here = demote_pending and len(
                topo.exchange_links_between(here, nxt)
            ) >= 2
            if demote_here:
                demote_pending = False
            exchange = self._pick_egress(
                here, nxt, current, dst_host, demote=demote_here
            )
            igp_path = self._igp.table(here).path(current, self._border_in(exchange, here))
            routers.extend(igp_path.routers[1:])
            links.extend(igp_path.links)
            far_border = self._border_in(exchange, nxt)
            links.append(exchange.link_id)
            routers.append(far_border)
            current = far_border
        # Tail segment inside the destination AS.
        tail = self._igp.table(dst_host.asn).path(current, dst_host.access_router)
        routers.extend(tail.routers[1:])
        links.extend(tail.links)
        prop = sum(topo.links[l].prop_delay_ms for l in links)
        return ForwardPath(
            src=src,
            dst=dst,
            routers=tuple(routers),
            links=tuple(links),
            as_path=as_path,
            prop_delay_ms=prop,
        )

    def _border_in(self, exchange: Link, asn: int) -> int:
        """The endpoint of an exchange link owned by ``asn``."""
        if self._topo.routers[exchange.u].asn == asn:
            return exchange.u
        if self._topo.routers[exchange.v].asn == asn:
            return exchange.v
        raise ForwardingError(
            f"exchange link {exchange.link_id} has no endpoint in AS{asn}"
        )

    def _pick_egress(
        self,
        here: int,
        nxt: int,
        ingress: int,
        dst_host: Host,
        *,
        demote: bool = False,
    ) -> Link:
        """Choose the exchange link used to hand traffic from ``here`` to
        ``nxt``; with ``demote`` the second-ranked option is taken (route
        flap simulation)."""
        topo = self._topo
        options = topo.exchange_links_between(here, nxt)
        if not options:
            raise ForwardingError(f"no exchange links between AS{here} and AS{nxt}")
        if len(options) == 1:
            return options[0]
        policy = self._egress_policy
        if self._respect_as_flag and not topo.ases[here].early_exit:
            policy = EgressPolicy.BEST_EXIT
        # Early-exit ranking ignores the destination entirely; best-exit
        # depends on it only through the destination *city*.
        city = dst_host.city.name if policy is EgressPolicy.BEST_EXIT else None
        cache_key = (here, nxt, ingress, policy, city)
        ranked = self._egress_cache.get(cache_key)
        if ranked is None:
            ranked = self._rank_egress(here, nxt, ingress, dst_host, policy, options)
            self._egress_cache[cache_key] = ranked
        return ranked[1] if demote and len(ranked) > 1 else ranked[0]

    def _rank_egress(
        self,
        here: int,
        nxt: int,
        ingress: int,
        dst_host: Host,
        policy: EgressPolicy,
        options: list[Link],
    ) -> tuple[Link, ...]:
        """Rank the candidate exchange links under ``policy`` (best first)."""
        topo = self._topo
        igp = self._igp.table(here)

        def early_exit_key(link: Link) -> tuple[float, int]:
            near = self._border_in(link, here)
            return (igp.cost(ingress, near), link.link_id)

        def best_exit_key(link: Link) -> tuple[float, int]:
            near = self._border_in(link, here)
            far = self._border_in(link, nxt)
            remaining = propagation_delay_ms(topo.routers[far].city, dst_host.city)
            # Compare in delay units: IGP hop-count costs are scaled by a
            # nominal per-hop delay so the two terms are commensurate.
            igp_cost = igp.cost(ingress, near)
            if topo.ases[here].igp_style.name == "HOP_COUNT":
                igp_cost *= 5.0
            return (igp_cost + link.prop_delay_ms + remaining, link.link_id)

        key = early_exit_key if policy is EgressPolicy.EARLY_EXIT else best_exit_key
        return tuple(sorted(options, key=key))


class OptimalResolver:
    """Globally delay-optimal routing, ignoring all policy.

    Implements the paper's §3 thought experiment: "if the Internet used
    'shortest' path routing ... there would be no room to find alternate
    paths with better performance."  Used by the ablation benchmarks as
    the policy-free baseline.
    """

    def __init__(self, topo: Topology) -> None:
        self._topo = topo
        self._cache: dict[tuple[str, str], ForwardPath] = {}

    def resolve(self, src: str, dst: str) -> ForwardPath:
        """Minimum-propagation-delay path from ``src`` to ``dst``.

        Raises:
            ForwardingError: if the hosts are identical or disconnected.
        """
        if src == dst:
            raise ForwardingError("source and destination host are identical")
        key = (src, dst)
        if key not in self._cache:
            self._cache[key] = self._dijkstra(src, dst)
        return self._cache[key]

    def resolve_round_trip(self, src: str, dst: str) -> RoundTripPath:
        """Both directions (symmetric by construction, resolved anyway)."""
        return RoundTripPath(
            forward=self.resolve(src, dst),
            reverse=self.resolve(dst, src),
        )

    def _dijkstra(self, src: str, dst: str) -> ForwardPath:
        topo = self._topo
        src_host = topo.host(src)
        dst_host = topo.host(dst)
        start, goal = src_host.access_router, dst_host.access_router
        dist: dict[int, float] = {start: 0.0}
        pred: dict[int, tuple[int, int]] = {}
        heap: list[tuple[float, int]] = [(0.0, start)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == goal:
                break
            if d > dist.get(u, float("inf")):
                continue
            for link in topo.links_of(u):
                v = link.other(u)
                nd = d + link.prop_delay_ms
                if nd < dist.get(v, float("inf")) - 1e-12:
                    dist[v] = nd
                    pred[v] = (u, link.link_id)
                    heapq.heappush(heap, (nd, v))
        if goal not in dist:
            raise ForwardingError(f"hosts {src} and {dst} are physically disconnected")
        routers = [goal]
        links: list[int] = []
        node = goal
        while node != start:
            prev, link_id = pred[node]
            links.append(link_id)
            routers.append(prev)
            node = prev
        routers.reverse()
        links.reverse()
        as_seq: list[int] = []
        for rid in routers:
            asn = topo.routers[rid].asn
            if not as_seq or as_seq[-1] != asn:
                as_seq.append(asn)
        return ForwardPath(
            src=src,
            dst=dst,
            routers=tuple(routers),
            links=tuple(links),
            as_path=tuple(as_seq),
            prop_delay_ms=dist[goal],
        )
