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
:class:`BGPTable` keeps that solver's array-kernel columns
(:mod:`repro.routing.columnar`), one per converged destination, and
builds a :class:`BGPRoute` only when one is asked for.  Topologies with
SIBLING adjacencies (which launder any route into the sibling class) or
customer-provider cycles have no staged schedule and raise
:class:`BGPError`.
"""

from __future__ import annotations

from repro.obs import runtime as obs
from repro.routing.columnar import (
    BGPError,
    BGPRoute,
    ColumnarRouteTable,
    RouteColumn,
    SolverIndex,
    build_solver_index,
    converge_columns,
)
from repro.topology.network import Topology


class BGPTable:
    """Converged BGP routing state for every (AS, destination AS) pair.

    Routes live in the topology's ``"bgp"`` routing cache: the store
    ``["routes"]`` maps ``dest -> RouteColumn`` (the kernels' next-hop,
    provenance and path-length column for that destination) and
    ``["solver"]`` holds the solver schedule built from
    :meth:`~repro.topology.network.Topology.relationship_index`.  Tables
    built over the same topology share both (results are a pure function
    of the topology), and every AS-graph mutation drops the bag.  A table
    reads the bag on every access, so one built before a mutation
    answers like one built after it.
    """

    def __init__(self, topo: Topology) -> None:
        """
        Args:
            topo: The topology to route over.
        """
        self._topo = topo

    @property
    def _routes(self) -> dict[int, RouteColumn]:
        """The topology's current route store (``dest -> RouteColumn``)."""
        return self._topo.routing_cache("bgp").setdefault("routes", {})

    # -- public API --------------------------------------------------------

    def stored(self, dst_asn: int) -> RouteColumn | None:
        """``dst_asn``'s converged route column, or None; never converges."""
        return self._routes.get(dst_asn)

    def route(self, src_asn: int, dst_asn: int) -> BGPRoute | None:
        """Best route installed at ``src_asn`` toward ``dst_asn``.

        Returns None when policy leaves the destination unreachable, and
        for source ASNs the topology does not have.

        Raises:
            BGPError: if the destination is unknown or the hierarchy has
                siblings or a customer-provider cycle.
        """
        return self._column(dst_asn).route(src_asn)

    def as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS-level path from ``src_asn`` to ``dst_asn`` (inclusive), or None."""
        return self._column(dst_asn).as_path(src_asn)

    def converge_all(self, dests: list[int] | None = None) -> None:
        """Converge every destination in ``dests`` (default: all ASes).

        Destinations already converged are skipped.

        Raises:
            BGPError: if any destination is unknown or the hierarchy has
                siblings or a customer-provider cycle.
        """
        targets = sorted(self._topo.ases) if dests is None else sorted(set(dests))
        routes = self._routes
        missing = [d for d in targets if d not in routes]
        with obs.span("routing.bgp.converge_all") as sp:
            sp.set("destinations", len(targets))
            sp.set("converged", len(missing))
            self._converge(missing)
        obs.count("routing.bgp.batch_convergences", len(missing))

    def convergence_rounds(self, dest: int) -> int:
        """Synchronous BGP rounds until ``dest``'s routes stabilize.

        Defined as the node count of the longest AS path in ``dest``'s
        stable state, read from its converged column.  In the synchronous
        relaxation (every AS re-deciding once per round from the previous
        round's state), when each AS's first route is its final one, a
        route of ``k`` nodes is adopted in round ``k - 1`` and one more
        round confirms that nothing changes.  The scenario layer uses
        this as a deterministic proxy for BGP reconvergence time after a
        failure: real BGP paces updates by the MRAI timer, so wall-clock
        time-to-repair scales with the number of rounds.

        The relaxation's round count equals this on every generated
        topology checked: 25,740 of 25,740 runs over paper-1999 seeds
        0–59 and paper-1995 seeds 0–29, every destination pristine plus
        20 after each of 6 random link-downs and 2 random node-downs per
        seed (``tests/routing/test_bgp_rounds.py`` keeps a sample).  It
        is not a theorem: an AS that first adopts a short peer route and
        later a longer customer route makes its customers re-route a
        round later.  With destination 7 a customer of 2 and a peer of
        1, and provider→customer links 1→2, 2→3, 1→3, 1→4, 1→5, 5→6 and
        3→6, the relaxation takes 5 rounds while the longest path has 4
        ASes.

        Raises:
            BGPError: if the destination is unknown or the hierarchy has
                siblings or a customer-provider cycle.
        """
        return self._column(dest).longest_path()

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

    def _column(self, dst_asn: int) -> RouteColumn:
        """``dst_asn``'s route column, converging it on first use."""
        column = self._routes.get(dst_asn)
        if column is None:
            with obs.span("routing.bgp.converge") as sp:
                sp.set("dest", dst_asn)
                self._converge([dst_asn])
            obs.count("routing.bgp.convergences")
            column = self._routes[dst_asn]
        return column

    def _solver(self) -> SolverIndex:
        """The solver schedule of the topology's current AS graph."""
        bag = self._topo.routing_cache("bgp")
        index = bag.get("solver")
        if index is None:
            index = bag["solver"] = build_solver_index(self._topo.relationship_index())
        return index

    def _converge(self, dests: list[int]) -> None:
        """Run the kernels for ``dests`` and store one column per destination."""
        if not dests:
            return
        for dest in dests:
            if dest not in self._topo.ases:
                raise BGPError(f"unknown destination ASN {dest}")
        index = self._solver()
        dest_idx = index.asn_index[dests]
        table = ColumnarRouteTable(index, dest_idx, *converge_columns(index, dest_idx))
        routes = self._routes
        for dest in dests:
            routes[dest] = table.column(dest)
