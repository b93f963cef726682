"""Topology export to networkx graphs, plus structural statistics.

The simulator's native structures are tuned for routing computations; for
exploratory analysis (degree distributions, clustering, visualization in
standard tools) they export to :mod:`networkx` graphs at either level of
the routing hierarchy.  networkx is imported on first use, so importing
the package does not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.topology.asys import ASTier
from repro.topology.network import Topology

if TYPE_CHECKING:
    import networkx as nx


def as_graph(topo: Topology) -> nx.Graph:
    """The AS-level graph: one node per AS, one edge per BGP adjacency.

    Node attributes: ``name``, ``tier``, ``n_cities``.
    Edge attributes: ``relationship`` (from the lower ASN's viewpoint),
    ``exchange_cities``.
    """
    import networkx as nx

    graph = nx.Graph()
    for asn, asys in topo.ases.items():
        graph.add_node(
            asn,
            name=asys.name,
            tier=asys.tier.value,
            n_cities=len(asys.cities),
        )
    for link in topo.as_links:
        graph.add_edge(
            link.a,
            link.b,
            relationship=link.rel_ab.value,
            exchange_cities=list(link.exchange_cities),
        )
    return graph


def router_graph(topo: Topology) -> nx.Graph:
    """The router-level graph with per-link delay/capacity attributes.

    Node attributes: ``asn``, ``city``, ``role``.
    Edge attributes: ``kind``, ``prop_delay_ms``, ``capacity_mbps``,
    ``link_id``.
    """
    import networkx as nx

    graph = nx.Graph()
    for router in topo.routers:
        graph.add_node(
            router.router_id,
            asn=router.asn,
            city=router.city.name,
            role=router.role.value,
        )
    for link in topo.links:
        graph.add_edge(
            link.u,
            link.v,
            kind=link.kind.value,
            prop_delay_ms=link.prop_delay_ms,
            capacity_mbps=link.capacity_mbps,
            link_id=link.link_id,
        )
    return graph


@dataclass(frozen=True, slots=True)
class TopologyStats:
    """Structural summary of a generated internetwork."""

    n_ases: int
    n_as_links: int
    n_routers: int
    n_links: int
    as_mean_degree: float
    tier1_clique_density: float
    stub_mean_providers: float
    router_diameter_hops: int
    as_connected: bool


def topology_stats(topo: Topology) -> TopologyStats:
    """Compute structural statistics used by validation tests.

    ``tier1_clique_density`` is the fraction of tier-1 pairs that peer
    directly (1.0 = full clique, as in the generated topologies);
    ``router_diameter_hops`` is measured on the largest connected
    component.
    """
    import networkx as nx

    asg = as_graph(topo)
    rg = router_graph(topo)
    tier1 = [a for a, d in asg.nodes(data=True) if d["tier"] == ASTier.TIER1.value]
    stubs = [a for a, d in asg.nodes(data=True) if d["tier"] == ASTier.STUB.value]
    if len(tier1) >= 2:
        possible = len(tier1) * (len(tier1) - 1) / 2
        present = sum(
            1
            for i, a in enumerate(tier1)
            for b in tier1[i + 1:]
            if asg.has_edge(a, b)
        )
        clique_density = present / possible
    else:
        clique_density = 1.0
    stub_providers = [
        sum(
            1
            for nbr in asg.neighbors(s)
            if topo.relationship(s, nbr) is not None
        )
        for s in stubs
    ]
    if nx.is_connected(rg):
        component = rg
    else:
        largest = max(nx.connected_components(rg), key=len)
        component = rg.subgraph(largest)
    # Exact diameters are expensive; a double-BFS sweep lower bound is
    # plenty for validation.
    start = next(iter(component.nodes))
    far, _ = max(
        nx.single_source_shortest_path_length(component, start).items(),
        key=lambda kv: kv[1],
    )
    diameter = max(
        nx.single_source_shortest_path_length(component, far).values()
    )
    return TopologyStats(
        n_ases=len(topo.ases),
        n_as_links=len(topo.as_links),
        n_routers=len(topo.routers),
        n_links=len(topo.links),
        as_mean_degree=2.0 * asg.number_of_edges() / max(asg.number_of_nodes(), 1),
        tier1_clique_density=clique_density,
        stub_mean_providers=(
            sum(stub_providers) / len(stub_providers) if stub_providers else 0.0
        ),
        router_diameter_hops=int(diameter),
        as_connected=nx.is_connected(asg),
    )
