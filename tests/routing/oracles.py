"""The synchronous BGP relaxation the route kernels are checked against.

:func:`converge_fixpoint` recomputes every AS's best route from the
previous round's state until nothing changes.  It handles any
relationship mix, siblings included, and counts its rounds.
``BGPTable`` runs the staged Gao–Rexford kernels instead; the
differential tests require its routes to equal the relaxation's
(``==`` on every :class:`~repro.routing.columnar.BGPRoute`) and its
``convergence_rounds`` to equal the relaxation's round count on
generated topologies.
"""

from __future__ import annotations

from repro.routing.columnar import BGPError, BGPRoute
from repro.topology.asys import LOCAL_PREF, Relationship
from repro.topology.network import Topology

#: Relaxation rounds before the fixpoint declares non-convergence.  Any
#: Gao–Rexford-compliant graph converges in O(diameter) rounds.
MAX_ROUNDS = 64

#: Local-pref of an AS's own prefix (beats every learned route).
_ORIGIN_PREF = max(LOCAL_PREF.values()) + 100


def local_pref(route: BGPRoute) -> int:
    """Local-preference value of ``route``."""
    if route.learned_from is None:
        return _ORIGIN_PREF  # own prefix beats all
    return LOCAL_PREF[route.learned_from]


def preference_key(route: BGPRoute) -> tuple[int, int, int]:
    """Sort key: smaller is more preferred.

    Orders by descending local-pref, ascending AS-path length,
    ascending next-hop ASN (the holder itself for the origin).
    """
    path = route.as_path
    next_hop = path[1] if len(path) > 1 else path[0]
    return (-local_pref(route), len(path), next_hop)


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
                new_best[asn] = min(candidates, key=preference_key)
        if new_best == best:
            return best, round_no + 1
        best = new_best
    raise BGPError(f"BGP did not converge for destination AS{dest}")
