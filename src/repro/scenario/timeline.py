"""Event timeline: applying and reverting network events on a topology.

A :class:`ScenarioTimeline` turns a :class:`~repro.scenario.plan.ScenarioPlan`
into an ordered list of *transitions* (event starts and, for transient
events, their reverts) and applies them to a
:class:`~repro.topology.network.Topology` as simulation time advances.
Every mutation goes through the topology's scenario mutators
(``remove_as_link`` / ``insert_as_link`` / ``detach_exchange_link`` /
``reattach_exchange_link``), which toggle AS-level structure but never
the router/link substrate, and each applied effect records its exact
inverse — :meth:`ScenarioTimeline.reset` restores a byte-identical
pristine topology (asserted route-for-route by
``tests/scenario/test_timeline.py``).

**Selective reconvergence.** Removing an AS adjacency (or isolating an
AS) invalidates the BGP route cache, but the Gao–Rexford stable state is
*unique*: a destination whose installed routes nowhere traverse the
removed adjacency (and nowhere pass through a downed AS) keeps exactly
the same stable state, so its converged route column is salvaged across
the mutation instead of being recomputed.  Only the affected
destinations are reconverged — lazily, by the next
:meth:`~repro.routing.bgp.BGPTable.converge_all` — under the
``scenario.reconverge`` span.  Clearing ``topo.routing_cache("bgp")``
after :meth:`ScenarioTimeline.advance_to` forces full reconvergence;
the differential tests compare the two.

Construct the timeline **before** any netsim state: ``new-transit``
events pre-materialize their router-level exchange link into the
substrate (kept out of the exchange index until activation), and
:class:`~repro.netsim.conditions.NetworkConditions` sizes its per-link
arrays at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import runtime as obs
from repro.routing.columnar import VIA_NONE, RouteColumn
from repro.scenario.plan import (
    KIND_DEPEER,
    KIND_LINK_DOWN,
    KIND_NEW_TRANSIT,
    KIND_NODE_DOWN,
    KIND_REGION_OUTAGE,
    ScenarioEvent,
    ScenarioPlan,
)
from repro.topology.asys import ASLink, Relationship
from repro.topology.links import LinkKind
from repro.topology.network import Topology

class ScenarioError(RuntimeError):
    """Raised when a plan cannot be realized on a topology (CLI exit 2)."""


@dataclass(frozen=True, slots=True)
class _Transition:
    """One timeline step: an event's effect starting or reverting.

    Sort order is ``(t, phase, plan position)`` with reverts before
    applies, so an adjacency that comes back up at the instant another
    event fires is restored first.
    """

    t: float
    phase: int  # 0 = revert, 1 = apply
    position: int  # index of the event in the plan
    event: ScenarioEvent

    @property
    def sort_key(self) -> tuple[float, int, int]:
        return (self.t, self.phase, self.position)


@dataclass(slots=True)
class _Applied:
    """Undo log of one applied event (inverse ops, in apply order)."""

    position: int
    undos: list[Callable[[], None]] = field(default_factory=list)


class ScenarioTimeline:
    """Applies a scenario plan's network events to a topology over time.

    The timeline is monotonic: :meth:`advance_to` may only move forward.
    :meth:`reset` reverts every outstanding effect (in reverse order)
    and rewinds to the start, leaving the topology pristine.
    """

    def __init__(self, topo: Topology, plan: ScenarioPlan) -> None:
        """
        Args:
            topo: Topology the events apply to (hosts already placed).
            plan: The scenario; flap storms are ignored here (they are
                route-dynamics, not topology — see
                :class:`~repro.scenario.run.StormFlapModel`).

        Raises:
            ScenarioError: when an event names an unknown ASN, region or
                adjacency, or a ``new-transit`` cannot be realized.
        """
        self._topo = topo
        self._plan = plan
        # position -> (ASLink, exchange link id) for new-transit events.
        self._transit_parts: dict[int, tuple[ASLink, int]] = {}
        self._validate_and_materialize()
        transitions: list[_Transition] = []
        for position, event in enumerate(plan.topology_events()):
            transitions.append(
                _Transition(t=event.at_s, phase=1, position=position, event=event)
            )
            if event.end_s is not None:
                transitions.append(
                    _Transition(
                        t=event.end_s, phase=0, position=position, event=event
                    )
                )
        self._transitions = sorted(transitions, key=lambda tr: tr.sort_key)
        self._cursor = 0
        self._now = 0.0
        self._applied: list[_Applied] = []

    # -- construction-time validation ---------------------------------------

    def _validate_and_materialize(self) -> None:
        topo = self._topo
        regions = {r.city.region for r in topo.routers}
        for position, event in enumerate(self._plan.topology_events()):
            if event.kind in (KIND_LINK_DOWN, KIND_DEPEER):
                a, b = event.endpoints
                self._require_asn(a)
                self._require_asn(b)
                if topo.as_link_between(a, b) is None:
                    raise ScenarioError(
                        f"{event.to_clause()}: no AS{a}-AS{b} adjacency "
                        "in this topology"
                    )
            elif event.kind == KIND_NODE_DOWN:
                self._require_asn(event.asn)
            elif event.kind == KIND_REGION_OUTAGE:
                if event.key not in regions:
                    raise ScenarioError(
                        f"{event.to_clause()}: no routers in region "
                        f"{event.key!r} (known: {sorted(regions)})"
                    )
            elif event.kind == KIND_NEW_TRANSIT:
                self._materialize_transit(position, event)

    def _require_asn(self, asn: int) -> None:
        if asn not in self._topo.ases:
            raise ScenarioError(f"unknown ASN {asn} in scenario plan")

    def _materialize_transit(self, position: int, event: ScenarioEvent) -> None:
        """Create a ``new-transit`` event's adjacency and exchange link.

        The router-level exchange link must live in the substrate before
        netsim arrays are sized, so it is created now; it stays out of
        the exchange index (and the :class:`ASLink` unregistered) until
        the event activates, keeping the pristine topology's behavior
        unchanged.
        """
        topo = self._topo
        provider, customer = event.endpoints
        self._require_asn(provider)
        self._require_asn(customer)
        if topo.as_link_between(provider, customer) is not None:
            raise ScenarioError(
                f"{event.to_clause()}: AS{provider} and AS{customer} "
                "are already adjacent"
            )
        a, b = min(provider, customer), max(provider, customer)
        rel_ab = (
            Relationship.CUSTOMER if a == provider else Relationship.PROVIDER
        )
        shared = sorted(
            city.name
            for city in topo.ases[a].cities
            if topo.has_core_router(a, city.name)
            and topo.has_core_router(b, city.name)
        )
        if not shared:
            raise ScenarioError(
                f"{event.to_clause()}: AS{a} and AS{b} share no city with "
                "core routers to host an exchange point"
            )
        city = shared[0]
        link = topo.add_link(
            topo.core_router(a, city),
            topo.core_router(b, city),
            LinkKind.EXCHANGE,
        )
        as_link = ASLink(a=a, b=b, rel_ab=rel_ab, exchange_cities=(city,))
        self._transit_parts[position] = (as_link, link.link_id)

    # -- public API ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current timeline position, seconds."""
        return self._now

    @property
    def last_transition_s(self) -> float:
        """Time of the final topology transition; 0.0 if there are none."""
        return self._transitions[-1].t if self._transitions else 0.0

    def boundaries(self) -> list[float]:
        """Sorted distinct topology-transition times (segment edges)."""
        return sorted({tr.t for tr in self._transitions})

    def advance_to(self, t: float) -> int:
        """Apply every transition scheduled at or before ``t``.

        Returns the number of transitions applied.  Salvageable BGP
        state survives the mutation (see module docstring); the rest is
        invalidated and reconverges lazily.

        Raises:
            ScenarioError: if ``t`` is behind the current position.
        """
        if t < self._now:
            raise ScenarioError(
                f"timeline is monotonic: cannot rewind from {self._now:g} "
                f"to {t:g} (use reset())"
            )
        self._now = t
        if (
            self._cursor >= len(self._transitions)
            or self._transitions[self._cursor].t > t
        ):
            return 0
        saved = self._topo.routing_cache("bgp").get("routes", {})
        removed_pairs: set[frozenset[int]] = set()
        removed_asns: set[int] = set()
        additive = False
        mutated = False
        applied = 0
        with obs.span("scenario.apply") as sp:
            while (
                self._cursor < len(self._transitions)
                and self._transitions[self._cursor].t <= t
            ):
                tr = self._transitions[self._cursor]
                self._cursor += 1
                applied += 1
                if tr.phase == 1:
                    effect = self._apply_event(
                        tr.position, tr.event, removed_pairs, removed_asns
                    )
                    mutated = mutated or effect.mutated
                    additive = additive or effect.additive
                else:
                    if self._revert_event(tr.position):
                        mutated = True
                        additive = True  # restored capacity: all dests may improve
            sp.set("t", t)
            sp.set("transitions", applied)
        obs.count("scenario.transitions", applied)
        if mutated:
            self._salvage(saved, removed_pairs, removed_asns, additive)
        return applied

    def reset(self) -> None:
        """Revert every outstanding effect and rewind to the start.

        The topology is left exactly as constructed (adjacency order,
        exchange-link index, route caches all pristine-equivalent).
        """
        for entry in reversed(self._applied):
            for undo in reversed(entry.undos):
                undo()
        self._applied.clear()
        self._cursor = 0
        self._now = 0.0

    # -- effects -------------------------------------------------------------

    @dataclass(frozen=True, slots=True)
    class _Effect:
        mutated: bool  # whether the AS graph (BGP cache) was invalidated
        additive: bool  # whether capacity was added (salvage impossible)

    def _apply_event(
        self,
        position: int,
        event: ScenarioEvent,
        removed_pairs: set[frozenset[int]],
        removed_asns: set[int],
    ) -> "ScenarioTimeline._Effect":
        entry = _Applied(position=position)
        mutated = False
        additive = False
        if event.kind in (KIND_LINK_DOWN, KIND_DEPEER):
            a, b = event.endpoints
            if self._remove_adjacency(a, b, entry):
                removed_pairs.add(frozenset((a, b)))
                mutated = True
        elif event.kind == KIND_NODE_DOWN:
            asn = event.asn
            for as_link in list(self._topo.as_neighbors(asn)):
                if self._remove_adjacency(as_link.a, as_link.b, entry):
                    mutated = True
            removed_asns.add(asn)
        elif event.kind == KIND_REGION_OUTAGE:
            mutated = self._apply_region_outage(event.key, entry, removed_pairs)
        elif event.kind == KIND_NEW_TRANSIT:
            as_link, link_id = self._transit_parts[position]
            topo = self._topo
            topo.insert_as_link(len(topo.as_links), as_link)
            entry.undos.append(lambda: topo.remove_as_link(as_link))
            topo.reattach_exchange_link(link_id, 0)
            entry.undos.append(lambda: topo.detach_exchange_link(link_id))
            mutated = True
            additive = True
        self._applied.append(entry)
        return self._Effect(mutated=mutated, additive=additive)

    def _remove_adjacency(self, a: int, b: int, entry: _Applied) -> bool:
        """Take down one AS adjacency and its exchange links.

        No-op (returns False) when the adjacency is already gone — an
        earlier overlapping event removed it first.
        """
        topo = self._topo
        as_link = topo.as_link_between(a, b)
        if as_link is None:
            return False
        for link in topo.exchange_links_between(a, b):
            self._detach(link.link_id, entry)
        index = topo.remove_as_link(as_link)
        entry.undos.append(
            lambda: topo.insert_as_link(index, as_link)
        )
        return True

    def _apply_region_outage(
        self,
        region: str,
        entry: _Applied,
        removed_pairs: set[frozenset[int]],
    ) -> bool:
        """Detach every exchange link with an endpoint in ``region``.

        An adjacency that loses *all* its exchange links is removed
        outright — leaving it registered would make BGP advertise routes
        the forwarding plane cannot realize.
        """
        topo = self._topo
        mutated = False
        for as_link in list(topo.as_links):
            links = topo.exchange_links_between(as_link.a, as_link.b)
            hit = [
                link.link_id
                for link in links
                if topo.routers[link.u].city.region == region
                or topo.routers[link.v].city.region == region
            ]
            if not hit:
                continue
            for link_id in hit:
                self._detach(link_id, entry)
            if len(hit) == len(links):
                index = topo.remove_as_link(as_link)
                entry.undos.append(
                    lambda index=index, as_link=as_link: topo.insert_as_link(
                        index, as_link
                    )
                )
                removed_pairs.add(frozenset((as_link.a, as_link.b)))
                mutated = True
        return mutated

    def _detach(self, link_id: int, entry: _Applied) -> None:
        topo = self._topo
        position = topo.detach_exchange_link(link_id)
        entry.undos.append(
            lambda: topo.reattach_exchange_link(link_id, position)
        )

    def _revert_event(self, position: int) -> bool:
        """Replay an event's undo log; True when anything was undone."""
        for i, entry in enumerate(self._applied):
            if entry.position == position:
                for undo in reversed(entry.undos):
                    undo()
                had_effect = bool(entry.undos)
                del self._applied[i]
                return had_effect
        return False

    # -- selective reconvergence ---------------------------------------------

    def _salvage(
        self,
        saved: dict[int, RouteColumn],
        removed_pairs: set[frozenset[int]],
        removed_asns: set[int],
        additive: bool,
    ) -> None:
        """Restore converged columns the mutation provably did not touch.

        ``saved`` is the pre-mutation BGP route store (dest -> route
        column).  After any additive change (new capacity can improve
        routes anywhere) nothing is salvaged and every destination
        reconverges.
        """
        if additive:
            return
        with obs.span("scenario.reconverge") as sp:
            keep: dict[int, RouteColumn] = {}
            invalidated = 0
            for dest, column in saved.items():
                removed = np.zeros(len(column.via), dtype=bool)
                removed[[column.index.index_of(asn) for asn in removed_asns]] = True
                if self._dest_affected(column, removed, removed_pairs):
                    invalidated += 1
                    continue
                if removed_asns:
                    # Isolated ASes lose their own routes even in
                    # unaffected columns (they no longer hold routes).
                    column = column.without(removed)
                keep[dest] = column
            self._topo.routing_cache("bgp")["routes"] = keep
            sp.set("retained", len(keep))
            sp.set("invalidated", invalidated)
        obs.count("scenario.dests_retained", len(keep))
        obs.count("scenario.dests_invalidated", invalidated)

    @staticmethod
    def _dest_affected(
        column: RouteColumn,
        removed: np.ndarray,
        removed_pairs: set[frozenset[int]],
    ) -> bool:
        """Whether a destination's stable state can change.

        The Gao–Rexford stable state is unique; removing an adjacency
        (or isolating an AS) only shrinks candidate sets, so a
        destination is unaffected exactly when no installed route at a
        surviving AS traverses what was removed.  The first removed AS
        or adjacency on any such path sits one hop after a surviving
        routed holder, so the next-hop column decides: the destination
        is affected when it was removed itself, or when a routed holder
        ``h`` outside the removed ASes (``removed``, a mask by AS index)
        has its next hop removed or ``{h, next(h)}`` among
        ``removed_pairs``.
        """
        index = column.index
        nxt = column.next_idx
        live = (column.via != VIA_NONE) & ~removed
        if removed[index.index_of(column.dest)] or (live & removed[nxt]).any():
            return True
        for pair in removed_pairs:
            a, b = (index.index_of(asn) for asn in pair)
            if (live[a] and nxt[a] == b) or (live[b] and nxt[b] == a):
                return True
        return False
