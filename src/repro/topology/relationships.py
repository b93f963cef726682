"""The Gao-Rexford relationship index as typed arrays.

Both topology representations derive their BGP relationship index here:
:meth:`repro.topology.network.Topology.relationship_index` and
:meth:`repro.topology.columnar.TopologyArrays.relationship_arrays` feed
:func:`build_relationship_arrays` the AS table and the AS-link table, and
the route solver (:mod:`repro.routing.columnar`) schedules by the result.
The module depends on neither representation, so each can import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.asys import Relationship

#: Stable Relationship -> int8 code table (part of the columnar contract).
REL_FROM_CODE: tuple[Relationship, ...] = (
    Relationship.CUSTOMER,
    Relationship.PROVIDER,
    Relationship.PEER,
    Relationship.SIBLING,
)
REL_CODES = {member: i for i, member in enumerate(REL_FROM_CODE)}


def asn_lookup(as_asn: np.ndarray) -> np.ndarray:
    """Dense ASN -> AS-index lookup array (-1 for unknown ASNs)."""
    size = int(as_asn.max()) + 1 if len(as_asn) else 1
    index = np.full(size, -1, dtype=np.int64)
    index[as_asn] = np.arange(len(as_asn), dtype=np.int64)
    return index


@dataclass(frozen=True, slots=True)
class RelationshipArrays:
    """Per-AS customer/provider/peer adjacency plus the hierarchy levels.

    Neighbor lists are CSR (``indptr`` + flat array) over dense AS
    *indices*, not ASNs; ``asn`` maps an index back to its ASN.

    Attributes:
        asn: ASN of each AS index, in AS registration order.
        asn_index: Dense ASN -> AS-index lookup (-1 for unknown ASNs).
        customers_indptr / customers: CSR of each AS's customers,
            neighbor lists sorted by neighbor ASN.
        providers_indptr / providers: CSR of each AS's providers.
        peers_indptr / peers: CSR of each AS's peers.
        has_siblings: Whether any SIBLING adjacency exists (the staged
            solver does not model sibling route laundering).
        levels: ``levels[i]`` is the customer-DAG depth of AS ``i`` (0
            for ASes without customers), or -1 everywhere when the
            customer/provider graph has a cycle (no valid hierarchy).
        down_levels: provider-DAG depth (0 for ASes without providers),
            the stage-3 schedule; -1 everywhere on a cycle.
    """

    asn: np.ndarray
    asn_index: np.ndarray
    customers_indptr: np.ndarray
    customers: np.ndarray
    providers_indptr: np.ndarray
    providers: np.ndarray
    peers_indptr: np.ndarray
    peers: np.ndarray
    has_siblings: bool
    levels: np.ndarray
    down_levels: np.ndarray

    @property
    def acyclic(self) -> bool:
        """Whether the customer->provider hierarchy is a DAG."""
        return bool(self.levels.size == 0 or self.levels[0] != -1 or self.levels.max() >= 0)


def _dag_levels(
    indegree: np.ndarray, succ_indptr: np.ndarray, succ: np.ndarray
) -> np.ndarray | None:
    """Longest-path depth of every node by Kahn's algorithm; None on a cycle."""
    levels = [0] * len(indegree)
    remaining = indegree.tolist()
    ready = np.nonzero(indegree == 0)[0].tolist()
    head = 0
    while head < len(ready):
        x = ready[head]
        head += 1
        for y in succ[succ_indptr[x]: succ_indptr[x + 1]].tolist():
            levels[y] = max(levels[y], levels[x] + 1)
            remaining[y] -= 1
            if remaining[y] == 0:
                ready.append(y)
    if len(ready) != len(indegree):
        return None
    return np.array(levels, dtype=np.int32)


def build_relationship_arrays(
    as_asn: np.ndarray,
    aslink_a: np.ndarray,
    aslink_b: np.ndarray,
    aslink_rel: np.ndarray,
) -> RelationshipArrays:
    """Classify AS adjacency by relationship and level the hierarchy.

    Args:
        as_asn: ASN of each AS, in registration order (int64).
        aslink_a / aslink_b: Endpoint ASNs of each AS link (int64).
        aslink_rel: :data:`REL_CODES` code of ``b`` from ``a``'s
            viewpoint, per AS link.
    """
    n = len(as_asn)
    asn_index = asn_lookup(as_asn)
    a_idx = asn_index[aslink_a]
    b_idx = asn_index[aslink_b]
    rel = aslink_rel
    has_siblings = bool((rel == REL_CODES[Relationship.SIBLING]).any())

    # rel_ab is b's relationship from a's viewpoint, so rel_ab == CUSTOMER
    # means b is a's customer.
    is_cust = rel == REL_CODES[Relationship.CUSTOMER]
    is_prov = rel == REL_CODES[Relationship.PROVIDER]
    is_peer = rel == REL_CODES[Relationship.PEER]

    def csr(owner: np.ndarray, nbr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Sort by (owner, neighbor ASN) so each owner's list is ASN-ordered.
        order = np.lexsort((as_asn[nbr], owner))
        counts = np.bincount(owner, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, nbr[order].astype(np.int32)

    customers_indptr, customers = csr(
        np.concatenate([a_idx[is_cust], b_idx[is_prov]]),
        np.concatenate([b_idx[is_cust], a_idx[is_prov]]),
    )
    providers_indptr, providers = csr(
        np.concatenate([a_idx[is_prov], b_idx[is_cust]]),
        np.concatenate([b_idx[is_prov], a_idx[is_cust]]),
    )
    peers_indptr, peers = csr(
        np.concatenate([a_idx[is_peer], b_idx[is_peer]]),
        np.concatenate([b_idx[is_peer], a_idx[is_peer]]),
    )

    # Customer-DAG levels over customer -> provider edges, then the
    # provider-DAG levels over the reversed edges.
    levels = _dag_levels(np.diff(customers_indptr), providers_indptr, providers)
    if levels is None:
        levels = down_levels = np.full(n, -1, dtype=np.int32)
    else:
        down_levels = _dag_levels(
            np.diff(providers_indptr), customers_indptr, customers
        )
    return RelationshipArrays(
        asn=as_asn,
        asn_index=asn_index,
        customers_indptr=customers_indptr,
        customers=customers,
        providers_indptr=providers_indptr,
        providers=providers,
        peers_indptr=peers_indptr,
        peers=peers,
        has_siblings=has_siblings,
        levels=levels,
        down_levels=down_levels,
    )
