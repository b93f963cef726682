"""Inter-AS policy routing in the style of BGP.

The paper (§3) stresses that BGP "does not necessarily select routes by
minimizing some global metric"; instead each AS applies a local policy.
We model the canonical policy structure of the commercial Internet
(Gao–Rexford):

* **Preference** — routes learned from customers are preferred over routes
  learned from peers, which are preferred over routes learned from
  providers (local-pref classes from
  :data:`repro.topology.asys.LOCAL_PREF`); ties are broken by shortest
  AS-path length, then by lowest next-hop ASN (a stand-in for the real
  protocol's arbitrary tie-breaks).
* **Export (valley-free rule)** — an AS advertises customer-learned routes
  (and its own prefixes) to everyone, but advertises peer- and
  provider-learned routes only to its customers.  This is exactly what
  makes "good" paths inexpressible: two stubs of different providers can
  never transit a third stub, and peer-peer-peer paths do not exist.

On a valley-free hierarchy the stable state is unique and a single
three-stage pass computes it: customer routes climb the customer→provider
hierarchy, cross one peer edge, then descend provider→customer edges.
:class:`BGPTable` fills its per-destination route store from that
solver's array kernels (:mod:`repro.routing.columnar`).  Topologies with
SIBLING adjacencies (which launder any route into the sibling class) or
customer-provider cycles have no staged schedule and raise
:class:`BGPError`.

:func:`converge_fixpoint`, the synchronous relaxation of the same policy,
stays for the round count behind :meth:`BGPTable.convergence_rounds`; it
is also the differential tests' route oracle.
"""

from __future__ import annotations

from repro.obs import runtime as obs
from repro.routing.columnar import (
    BGPError,
    BGPRoute,
    ColumnarRouteTable,
    SolverIndex,
    build_solver_index,
    converge_columns,
    resolve_routing_jobs,
)
from repro.topology.asys import Relationship
from repro.topology.network import Topology

#: Relaxation rounds before the fixpoint declares non-convergence.  Any
#: Gao–Rexford-compliant graph converges in O(diameter) rounds.
MAX_ROUNDS = 64


def _exportable(route: BGPRoute, to_relationship: Relationship) -> bool:
    """Valley-free export check.

    ``to_relationship`` is the relationship of the *receiving* neighbor
    from the advertising AS's viewpoint.
    """
    if to_relationship in (Relationship.CUSTOMER, Relationship.SIBLING):
        return True  # everything goes to customers/siblings
    # To peers and providers: only own and customer/sibling-learned routes.
    return route.learned_from in (None, Relationship.CUSTOMER, Relationship.SIBLING)


def converge_fixpoint(topo: Topology, dest: int) -> tuple[dict[int, BGPRoute], int]:
    """Synchronous relaxation to ``dest``'s stable state.

    Every round recomputes each AS's best route from the previous
    round's state.  Handles any relationship mix, siblings included.

    Returns:
        ``(routes, rounds)``: the ``{holder: route}`` state and the number
        of rounds it took to stabilize.

    Raises:
        BGPError: if the destination is unknown or never converges.
    """
    if dest not in topo.ases:
        raise BGPError(f"unknown destination ASN {dest}")
    origin = BGPRoute(dest=dest, as_path=(dest,), learned_from=None)
    best: dict[int, BGPRoute] = {dest: origin}
    # At the fixpoint every stored as_path is, by construction, consistent
    # with the next hop's own choice, so AS-level forwarding can follow
    # either the stored path or the next-hop chain interchangeably.
    for round_no in range(MAX_ROUNDS):
        new_best: dict[int, BGPRoute] = {dest: origin}
        for asn in sorted(topo.ases):
            if asn == dest:
                continue
            candidates: list[BGPRoute] = []
            for as_link in topo.as_neighbors(asn):
                neighbor = as_link.other(asn)
                neighbor_route = best.get(neighbor)
                if neighbor_route is None:
                    continue
                if asn in neighbor_route.as_path:
                    continue  # loop prevention
                # How the neighbor sees *us* governs whether it exports.
                rel_neighbor_to_us = as_link.relationship_from(neighbor)
                if not _exportable(neighbor_route, rel_neighbor_to_us):
                    continue
                # How *we* see the neighbor governs our preference.
                rel_us_to_neighbor = as_link.relationship_from(asn)
                candidates.append(
                    BGPRoute(
                        dest=dest,
                        as_path=(asn, *neighbor_route.as_path),
                        learned_from=rel_us_to_neighbor,
                    )
                )
            if candidates:
                new_best[asn] = min(candidates, key=BGPRoute.preference_key)
        if new_best == best:
            return best, round_no + 1
        best = new_best
    raise BGPError(f"BGP did not converge for destination AS{dest}")


class BGPTable:
    """Converged BGP routing state for every (AS, destination AS) pair.

    Routes live in the topology's ``"bgp"`` routing cache: the store
    ``["routes"]`` maps ``dest -> {holder: BGPRoute}`` and ``["solver"]``
    holds the solver schedule built from
    :meth:`~repro.topology.network.Topology.relationship_index`.  Tables
    built over the same topology share both (results are a pure function
    of the topology), and every AS-graph mutation drops the bag.
    """

    def __init__(self, topo: Topology) -> None:
        """
        Args:
            topo: The topology to route over.
        """
        self._topo = topo
        self._routes: dict[int, dict[int, BGPRoute]] = topo.routing_cache(
            "bgp"
        ).setdefault("routes", {})

    # -- public API --------------------------------------------------------

    def route(self, src_asn: int, dst_asn: int) -> BGPRoute | None:
        """Best route installed at ``src_asn`` toward ``dst_asn``.

        Returns None when policy leaves the destination unreachable.

        Raises:
            BGPError: if the destination is unknown or the hierarchy has
                siblings or a customer-provider cycle.
        """
        if dst_asn not in self._routes:
            with obs.span("routing.bgp.converge") as sp:
                sp.set("dest", dst_asn)
                self._converge([dst_asn], 1)
            obs.count("routing.bgp.convergences")
        return self._routes[dst_asn].get(src_asn)

    def as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS-level path from ``src_asn`` to ``dst_asn`` (inclusive), or None."""
        route = self.route(src_asn, dst_asn)
        return route.as_path if route else None

    def converge_all(
        self, dests: list[int] | None = None, *, jobs: int | None = None
    ) -> None:
        """Converge every destination in ``dests`` (default: all ASes).

        Destinations already converged are skipped.  With ``jobs`` > 1
        the batch is sharded across the shared-memory process pool of
        :func:`~repro.routing.columnar.converge_columns`; results are
        bit-identical to serial ones.  ``jobs=None`` consults the
        ``REPRO_ROUTING_JOBS`` environment variable, defaulting to 1.

        Raises:
            BGPError: if any destination is unknown or the hierarchy has
                siblings or a customer-provider cycle.
        """
        targets = sorted(self._topo.ases) if dests is None else sorted(set(dests))
        missing = [d for d in targets if d not in self._routes]
        n_jobs = resolve_routing_jobs(jobs, len(missing))
        with obs.span("routing.bgp.converge_all") as sp:
            sp.set("destinations", len(targets))
            sp.set("converged", len(missing))
            sp.set("jobs", n_jobs)
            self._converge(missing, n_jobs)
        obs.count("routing.bgp.batch_convergences", len(missing))

    def convergence_rounds(self, dest: int) -> int:
        """Synchronous relaxation rounds until ``dest``'s routes stabilize.

        Runs :func:`converge_fixpoint` (the staged solver is single-pass
        and has no notion of rounds) and does not touch the shared route
        store.  The scenario layer uses this as a deterministic proxy for
        BGP reconvergence time after a failure: real BGP paces updates by
        the MRAI timer, so wall-clock time-to-repair scales with the
        number of rounds.

        Raises:
            BGPError: if the destination is unknown or never converges.
        """
        _routes, rounds = converge_fixpoint(self._topo, dest)
        return rounds

    def reachable_fraction(self) -> float:
        """Fraction of ordered AS pairs with a policy-compliant route.

        A diagnostic: a well-formed hierarchy should be fully connected.
        """
        self.converge_all()
        asns = list(self._topo.ases)
        total = 0
        ok = 0
        for d in asns:
            for s in asns:
                if s == d:
                    continue
                total += 1
                if self.route(s, d) is not None:
                    ok += 1
        return ok / total if total else 1.0

    # -- convergence -------------------------------------------------------

    def _solver(self) -> SolverIndex:
        """The solver schedule of the topology's current AS graph."""
        bag = self._topo.routing_cache("bgp")
        index = bag.get("solver")
        if index is None:
            index = bag["solver"] = build_solver_index(self._topo.relationship_index())
        return index

    def _converge(self, dests: list[int], jobs: int) -> None:
        """Run the kernels for ``dests`` and store one table per destination."""
        if not dests:
            return
        for dest in dests:
            if dest not in self._topo.ases:
                raise BGPError(f"unknown destination ASN {dest}")
        index = self._solver()
        dest_idx = index.asn_index[dests]
        table = ColumnarRouteTable(
            index, dest_idx, *converge_columns(index, dest_idx, jobs=jobs)
        )
        for dest in dests:
            self._routes[dest] = table.routes(dest)
