"""Scenario plans derived from a seed's own generated topology.

Plans name ASNs, so a plan written for one seed names adjacencies that
do not exist under another.  Each plan here is built from the topology
the program generates for the seed: the same seed gives the same plan.
A seed whose topology lacks a needed kind of adjacency raises
``PlanError`` rather than running a smaller workload.

Every event is transient or cannot cut a pair off: links go down only
between a multi-homed customer and one of its providers or between two
peers, the permanent ``depeer`` removes a peering between two ASes that
both keep a provider, and ``new-transit`` only adds an adjacency.
"""

from __future__ import annotations

from fnmatch import fnmatchcase


class PlanError(RuntimeError):
    """The seed's topology cannot host the workload's plan."""


def _candidates(topo) -> dict[str, list[tuple[int, int]]]:
    from repro.topology.asys import ASTier, Relationship

    tier = {asn: a.tier for asn, a in topo.ases.items()}
    providers: dict[int, int] = {asn: 0 for asn in topo.ases}
    for link in topo.as_links:
        if link.rel_ab == Relationship.CUSTOMER:
            providers[link.b] += 1
        elif link.rel_ab == Relationship.PROVIDER:
            providers[link.a] += 1
    customer_links: list[tuple[int, int]] = []
    tier1_peers: list[tuple[int, int]] = []
    transit_peers: list[tuple[int, int]] = []
    for link in topo.as_links:
        a, b = link.a, link.b
        if link.rel_ab in (Relationship.CUSTOMER, Relationship.PROVIDER):
            prov, cust = (a, b) if link.rel_ab == Relationship.CUSTOMER else (b, a)
            if tier[cust] == ASTier.TRANSIT and providers[cust] >= 2:
                customer_links.append((prov, cust))
        elif link.rel_ab == Relationship.PEER:
            if tier[a] == tier[b] == ASTier.TIER1:
                tier1_peers.append((a, b))
            elif (
                tier[a] == tier[b] == ASTier.TRANSIT
                and providers[a] >= 1
                and providers[b] >= 1
            ):
                transit_peers.append((a, b))
    new_transit: list[tuple[int, int]] = []
    tier1 = sorted(asn for asn, t in tier.items() if t == ASTier.TIER1)
    transit = sorted(asn for asn, t in tier.items() if t == ASTier.TRANSIT)
    for cust in transit:
        for prov in tier1:
            if topo.as_link_between(prov, cust) is not None:
                continue
            if any(
                topo.has_core_router(prov, city.name)
                and topo.has_core_router(cust, city.name)
                for city in topo.ases[min(prov, cust)].cities
            ):
                new_transit.append((prov, cust))
    return {
        "customer": sorted(customer_links, key=lambda pc: (pc[1], pc[0])),
        "tier1-peer": sorted(tier1_peers),
        "transit-peer": sorted(transit_peers),
        "new-transit": new_transit,
    }


def _pick(found: dict[str, list[tuple[int, int]]], kind: str, k: int) -> str:
    pairs = found[kind]
    if len(pairs) <= k:
        raise PlanError(f"topology has {len(pairs)} {kind} adjacencies, need {k + 1}")
    a, b = pairs[k]
    return f"{a}-{b}"


def _region(topo) -> str:
    regions = {r.city.region for r in topo.routers}
    if "na-west" not in regions:
        raise PlanError(f"no routers in na-west (regions: {sorted(regions)})")
    return "na-west"


def topology_events(topo, start_s: float, step_s: float) -> list[str]:
    """Seven topology events, one every ``step_s`` seconds from ``start_s``.

    Covers link-down with heal, depeer, region-outage and new-transit.
    """
    from repro.netsim.conditions import BUCKET_SECONDS

    found = _candidates(topo)
    t = [start_s + i * step_s for i in range(7)]
    heal = max(BUCKET_SECONDS, (step_s / 2) // BUCKET_SECONDS * BUCKET_SECONDS)
    return [
        f"link-down:{_pick(found, 'customer', 0)}:at={t[0]:g}:for={heal:g}",
        f"link-down:{_pick(found, 'tier1-peer', 0)}:at={t[1]:g}:for={heal:g}",
        f"depeer:{_pick(found, 'transit-peer', 0)}:at={t[2]:g}",
        f"region-outage:{_region(topo)}:at={t[3]:g}:for={heal:g}",
        f"link-down:{_pick(found, 'customer', 1)}:at={t[4]:g}:for={heal:g}",
        f"new-transit:{_pick(found, 'new-transit', 0)}:at={t[5]:g}",
        f"link-down:{_pick(found, 'transit-peer', 1)}:at={t[6]:g}:for={heal:g}",
    ]


def whatif_plan(seed: int, n_hosts: int) -> str:
    """The whatif-replay plan: seven topology events plus a flap storm."""
    from repro.scenario import ScenarioPlan, ScenarioRun

    probe = ScenarioRun(ScenarioPlan.parse(""), seed=seed, n_hosts=n_hosts)
    events = topology_events(probe.topo, start_s=600.0, step_s=600.0)
    target = probe.hosts[len(probe.hosts) // 2]
    storm = f"flap-storm:whatif-*->{target}:at=300:for=600"
    pair_names = [f"{a}->{b}" for a in probe.hosts for b in probe.hosts if a != b]
    glob = storm.split(":")[1]
    if not any(fnmatchcase(name, glob) for name in pair_names):
        raise PlanError(f"{storm}: the storm glob matches no measured pair")
    spec = ";".join([events[0], storm, *events[1:]])
    ScenarioRun(ScenarioPlan.parse(spec), seed=seed, n_hosts=n_hosts)
    return spec


def serve_plan(seed: int, duration_s: float) -> str:
    """The detour-serve plan: topology events only, spread over the horizon."""
    from repro.scenario import ScenarioPlan, ScenarioRun
    from repro.netsim.conditions import BUCKET_SECONDS

    probe = ScenarioRun(ScenarioPlan.parse(""), seed=seed, n_hosts=2)
    step = max(BUCKET_SECONDS, (duration_s // 8) // BUCKET_SECONDS * BUCKET_SECONDS)
    spec = ";".join(topology_events(probe.topo, start_s=step, step_s=step))
    ScenarioRun(ScenarioPlan.parse(spec), seed=seed, n_hosts=2)
    return spec
