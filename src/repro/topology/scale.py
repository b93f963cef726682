"""Vectorized tiered generator: Internet-scale topologies in seconds.

The object generator in :mod:`repro.topology.generator` builds one
Python object per AS/router/link and spends its time in per-stub
nearest-provider scans; it reproduces the paper's eras (a few hundred
ASes) comfortably but cannot reach ROADMAP item 2's "2-3 orders of
magnitude larger".  This module is the batched fast path: all sampling
is drawn in fixed-size numpy batches, provider assignment is a cKDTree
nearest-neighbor query over unit-sphere coordinates, transit peering is
a vectorized Waxman acceptance over KD-tree candidate pairs, and the
result is emitted directly as :class:`~repro.topology.columnar.
TopologyArrays` — no per-entity objects are ever created.

The generated internetwork keeps the same structural vocabulary as the
paper-era generator (tier-1 clique-ish core, regional transits, stub
edge; one core router per POP city, intra-AS backbone trunks, border
router pairs + an exchange link per peering city), so every downstream
consumer — the columnar solvers, ``to_topology()``, ``validate()``,
``place_hosts`` — works unchanged.  The hierarchy is sibling-free and
acyclic by construction (providers always come from a strictly higher
tier), so the staged/columnar BGP solvers always apply.

Named presets (``SCALE_PRESETS``) are the public surface: ``repro
serve --scale 1k``, ``generate_topology(scale="100k")``, bench and CI
smoke steps all speak preset names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import runtime as obs

from repro.topology.columnar import (
    IGP_CODES,
    KIND_CODES,
    ROLE_CODES,
    TIER_CODES,
    TopologyArrays,
    _csr_from_lists,
)
from repro.topology.relationships import REL_CODES
from repro.topology.asys import ASTier, IGPStyle, Relationship
from repro.topology.geography import (
    EARTH_RADIUS_KM,
    FIBER_CIRCUITY,
    FIBER_KM_PER_MS,
    world_cities,
)
from repro.topology.links import BASELINE_UTILIZATION, DEFAULT_CAPACITY_MBPS, LinkKind
from repro.topology.router import RouterRole


class ScaleError(ValueError):
    """Raised for unknown presets or invalid scale configurations."""


@dataclass(frozen=True, slots=True)
class ScaleConfig:
    """Tier/radius parameterization of the vectorized generator.

    Attributes:
        seed: RNG seed; every draw derives from it in a fixed order.
        n_tier1 / n_transit / n_stub: AS counts per tier.
        cities_per_as: Synthetic metro count as a fraction of the AS
            count (floored at 64 cities).
        tier1_cities: Min/max POP cities per tier-1 AS.
        transit_cities: Min/max POP cities per transit AS.
        transit_multihome_prob: Probability a transit buys from a second
            tier-1 provider.
        transit_peer_radius_km: KD-tree candidate radius for
            transit-transit peering.
        waxman_alpha / waxman_beta: Waxman shape ``alpha * exp(-d /
            (beta * L))`` over candidate pairs, with ``L`` the candidate
            radius; acceptance is normalized so the realized mean peer
            degree tracks ``transit_peer_degree`` regardless of how many
            candidates the radius admits.
        transit_peer_degree: Target mean transit-transit peer degree.
        stub_provider_pool: A stub picks its provider uniformly among
            this many nearest transits (diversity without losing
            locality).
        stub_multihome_prob: Probability a stub buys from a second
            transit.
        stub_direct_tier1_prob: Probability a stub also buys directly
            from its nearest tier-1.
        delay_metric_prob / early_exit_prob: Per-AS IGP style and
            early-exit draws (same meaning as the object generator).
        capacity_scale: Uniform capacity multiplier (propagated to
            hosts placed on the converted object topology).
        link_circuity_noise: Uniform multiplier range on link
            propagation delay.
    """

    seed: int = 1999
    n_tier1: int = 8
    n_transit: int = 80
    n_stub: int = 912
    cities_per_as: float = 1 / 40
    tier1_cities: tuple[int, int] = (6, 10)
    transit_cities: tuple[int, int] = (2, 4)
    transit_multihome_prob: float = 0.5
    transit_peer_radius_km: float = 2500.0
    waxman_alpha: float = 0.9
    waxman_beta: float = 0.3
    transit_peer_degree: float = 2.0
    stub_provider_pool: int = 3
    stub_multihome_prob: float = 0.3
    stub_direct_tier1_prob: float = 0.1
    delay_metric_prob: float = 0.75
    early_exit_prob: float = 0.9
    capacity_scale: float = 1.0
    link_circuity_noise: tuple[float, float] = (1.0, 1.2)

    @property
    def n_as(self) -> int:
        """Total AS count across all three tiers."""
        return self.n_tier1 + self.n_transit + self.n_stub

    def __post_init__(self) -> None:
        if self.n_tier1 < 3:
            raise ScaleError("need at least 3 tier-1 ASes for the core ring")
        if self.n_transit < self.stub_provider_pool:
            raise ScaleError("need at least stub_provider_pool transit ASes")
        if self.n_stub < 1:
            raise ScaleError("need at least one stub AS")


#: Named presets reachable from every CLI surface (``--scale``).  The
#: ``paper-*`` entries delegate to the object generator's era presets;
#: the numeric entries run the vectorized fast path at that AS count.
SCALE_PRESETS: dict[str, ScaleConfig | str] = {
    "paper-1995": "1995",
    "paper-1999": "1999",
    "1k": ScaleConfig(n_tier1=8, n_transit=80, n_stub=912),
    "10k": ScaleConfig(n_tier1=12, n_transit=400, n_stub=9_588),
    "100k": ScaleConfig(n_tier1=20, n_transit=2_000, n_stub=97_980),
}


def resolve_preset(scale: str, seed: int | None = None) -> ScaleConfig | str:
    """Look up a preset by name, rebinding its seed when given.

    Returns either a :class:`ScaleConfig` (vectorized path) or an era
    string (object-generator path).  Raises :class:`ScaleError` for
    unknown names, listing the valid ones.
    """
    try:
        preset = SCALE_PRESETS[scale]
    except KeyError:
        names = ", ".join(sorted(SCALE_PRESETS))
        raise ScaleError(f"unknown scale preset {scale!r} (expected one of: {names})") from None
    if isinstance(preset, ScaleConfig) and seed is not None:
        preset = ScaleConfig(
            **{
                f: getattr(preset, f)
                for f in preset.__dataclass_fields__
                if f != "seed"
            },
            seed=seed,
        )
    return preset


def _latlon_to_xyz(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    # hotpath
    """Unit-sphere cartesian coordinates for KD-tree queries.

    Chord distance is monotonic in great-circle distance, so nearest-
    neighbor and radius queries on xyz are exact for geographic
    nearest/within-radius semantics.
    """
    lat_r = np.radians(lat)
    lon_r = np.radians(lon)
    cos_lat = np.cos(lat_r)
    return np.column_stack((cos_lat * np.cos(lon_r), cos_lat * np.sin(lon_r), np.sin(lat_r)))


def _chord_for_km(km: float) -> float:
    """Unit-sphere chord length subtending a great-circle distance."""
    return 2.0 * math.sin(min(km / EARTH_RADIUS_KM, math.pi) / 2.0)


def _haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    # hotpath
    """Vectorized great-circle distance (same formula as geography)."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dp = p2 - p1
    dl = np.radians(lon2) - np.radians(lon1)
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def generate_topology_arrays(config: ScaleConfig) -> TopologyArrays:
    """Generate a tiered internetwork directly into columnar form.

    This is the vectorized fast path: a 100k-AS topology generates in
    seconds.  All randomness comes from ``default_rng(config.seed)`` in
    a fixed draw order, so output is a pure function of the config.
    """
    with obs.span("topology.scale.generate") as sp:
        sp.set("ases", config.n_as)
        rng = np.random.default_rng((config.seed, 0x5CA1E))
        arrays = _generate(rng, config)
        sp.set("routers", arrays.n_routers)
    obs.count("topology.scale.generated")
    return arrays


def _sample_cities(rng: np.random.Generator, n_cities: int):
    """Batched synthetic metro sampling around weighted catalog anchors.

    Regions are inherited from the anchor so region-scoped consumers
    (``north_america_only`` host placement, region-outage scenarios)
    work on synthetic cities unchanged.
    """
    catalog = world_cities()
    weights = np.array([c.population_weight for c in catalog])
    weights = weights / weights.sum()
    anchors = rng.choice(len(catalog), size=n_cities, p=weights)
    lat = np.array([catalog[i].lat for i in anchors]) + rng.normal(0.0, 2.5, n_cities)
    lon = np.array([catalog[i].lon for i in anchors]) + rng.normal(0.0, 2.5, n_cities)
    lat = np.clip(lat, -85.0, 85.0)
    lon = (lon + 180.0) % 360.0 - 180.0
    weight = np.array([catalog[i].population_weight for i in anchors]) * rng.uniform(
        0.25, 1.0, n_cities
    )
    names = [f"m{i:05d}-{catalog[a].name}" for i, a in enumerate(anchors)]
    regions = [catalog[a].region for a in anchors]
    return names, lat, lon, regions, weight


def _nearest_city_of(
    home_xyz: np.ndarray, owner_rows: np.ndarray, city_lists: list[list[int]],
    city_xyz: np.ndarray,
) -> np.ndarray:
    """For each row, the owner-AS city nearest the row's home point.

    Grouped by owner so each group is a single dense dot-product argmax
    (maximum cosine similarity == minimum great-circle distance on the
    unit sphere).
    """
    out = np.empty(len(owner_rows), dtype=np.int64)
    for owner in np.unique(owner_rows):
        rows = np.nonzero(owner_rows == owner)[0]
        cities = np.asarray(city_lists[owner], dtype=np.int64)
        sims = home_xyz[rows] @ city_xyz[cities].T
        out[rows] = cities[np.argmax(sims, axis=1)]
    return out


def _generate(rng: np.random.Generator, cfg: ScaleConfig) -> TopologyArrays:
    # Imported here so importing repro.topology does not load scipy.spatial.
    from scipy.spatial import cKDTree

    n_cities = max(64, int(cfg.n_as * cfg.cities_per_as))
    city_names, city_lat, city_lon, city_regions, city_weight = _sample_cities(rng, n_cities)
    city_xyz = _latlon_to_xyz(city_lat, city_lon)
    city_tree = cKDTree(city_xyz)
    city_p = city_weight / city_weight.sum()

    n_t1, n_tr, n_st = cfg.n_tier1, cfg.n_transit, cfg.n_stub
    t1_lo = 0
    tr_lo = n_t1
    st_lo = n_t1 + n_tr

    # Base POP city lists per AS (extras from ensure-pop appended later).
    base: list[list[int]] = []
    in_base: list[set[int]] = []
    extras: list[list[int]] = []

    def register(cities: list[int]) -> None:
        base.append(cities)
        in_base.append(set(cities))
        extras.append([])

    def ensure_pop(as_idx: int, city: int) -> None:
        if city not in in_base[as_idx]:
            in_base[as_idx].add(city)
            extras[as_idx].append(city)

    # --- tier-1 core: POPs drawn from the heaviest metros -----------------
    major = np.argsort(city_weight)[::-1][: max(16, n_cities // 3)]
    major_p = city_weight[major] / city_weight[major].sum()
    t1_counts = rng.integers(cfg.tier1_cities[0], cfg.tier1_cities[1] + 1, size=n_t1)
    for i in range(n_t1):
        k = min(int(t1_counts[i]), len(major))
        register(list(rng.choice(major, size=k, replace=False, p=major_p)))

    # --- transits: home metro + nearest neighbors -------------------------
    tr_counts = rng.integers(cfg.transit_cities[0], cfg.transit_cities[1] + 1, size=n_tr)
    tr_home = rng.choice(n_cities, size=n_tr, p=city_p)
    max_k = min(int(tr_counts.max()), n_cities)
    _, tr_nearest = city_tree.query(city_xyz[tr_home], k=max_k)
    tr_nearest = np.atleast_2d(tr_nearest)
    for i in range(n_tr):
        register([int(c) for c in tr_nearest[i, : tr_counts[i]]])

    # --- stubs: batched home-city sampling --------------------------------
    st_home = rng.choice(n_cities, size=n_st, p=city_p)
    for i in range(n_st):
        register([int(st_home[i])])

    # --- AS-link edges ----------------------------------------------------
    edge_a: list[int] = []
    edge_b: list[int] = []
    edge_rel: list[int] = []
    edge_cities: list[list[int]] = []

    def add_edge(a: int, b: int, rel_ab: Relationship, cities: list[int]) -> None:
        for c in cities:
            ensure_pop(a, c)
            ensure_pop(b, c)
        edge_a.append(a)
        edge_b.append(b)
        edge_rel.append(REL_CODES[rel_ab])
        edge_cities.append(cities)

    # Tier-1 core: full peering clique.  Valley-free export never
    # re-exports peer routes to peers, so anything sparser than a clique
    # (ring + chords, say) leaves customer cones more than one peer hop
    # apart mutually unreachable — cliqueness is what makes the default
    # Gao-Rexford reachability argument go through.
    t1_pairs = [(a, b) for a in range(n_t1) for b in range(a + 1, n_t1)]
    for a, b in t1_pairs:
        common = [c for c in base[a] if c in in_base[b]]
        if common:
            picks = rng.choice(len(common), size=min(2, len(common)), replace=False)
            cities = [common[int(i)] for i in picks]
        else:
            cities = [base[b][int(rng.integers(0, len(base[b])))]]
        add_edge(a, b, Relationship.PEER, cities)

    # Transit -> tier-1 providers: nearest tier-1 POP, optional second
    # provider from a different tier-1.
    t1_pop_owner = np.repeat(np.arange(n_t1), [len(base[i]) for i in range(n_t1)])
    t1_pop_city = np.concatenate([np.asarray(base[i]) for i in range(n_t1)])
    t1_tree = cKDTree(city_xyz[t1_pop_city])
    k_pop = min(8, len(t1_pop_city))
    _, tr_cand = t1_tree.query(city_xyz[tr_home], k=k_pop)
    tr_cand = np.atleast_2d(tr_cand)
    tr_second = rng.random(n_tr) < cfg.transit_multihome_prob
    for i in range(n_tr):
        owners = t1_pop_owner[tr_cand[i]]
        first = int(owners[0])
        add_edge(first, tr_lo + i, Relationship.CUSTOMER, [int(t1_pop_city[tr_cand[i, 0]])])
        if tr_second[i]:
            others = np.nonzero(owners != first)[0]
            if len(others):
                j = int(others[0])
                add_edge(
                    int(owners[j]),
                    tr_lo + i,
                    Relationship.CUSTOMER,
                    [int(t1_pop_city[tr_cand[i, j]])],
                )

    # Transit <-> transit Waxman peering over KD-tree candidates.
    tr_tree = cKDTree(city_xyz[tr_home])
    cand = tr_tree.query_pairs(_chord_for_km(cfg.transit_peer_radius_km), output_type="ndarray")
    if len(cand):
        order = np.lexsort((cand[:, 1], cand[:, 0]))
        cand = cand[order]
        d_km = _haversine_km(
            city_lat[tr_home[cand[:, 0]]],
            city_lon[tr_home[cand[:, 0]]],
            city_lat[tr_home[cand[:, 1]]],
            city_lon[tr_home[cand[:, 1]]],
        )
        shape = np.exp(-d_km / (cfg.waxman_beta * cfg.transit_peer_radius_km))
        target_edges = n_tr * cfg.transit_peer_degree / 2.0
        prob = np.minimum(cfg.waxman_alpha, shape * (target_edges / shape.sum()))
        accept = rng.random(len(cand)) < prob
        for i, j in cand[accept]:
            a, b = tr_lo + int(i), tr_lo + int(j)
            common = [c for c in base[a] if c in in_base[b]]
            city = common[0] if common else base[b][0]
            add_edge(a, b, Relationship.PEER, [city])

    # Stubs: nearest-provider assignment via the transit KD-tree, with a
    # small randomized pool for provider diversity.  All draws batched.
    pool = min(cfg.stub_provider_pool, n_tr)
    _, st_cand = tr_tree.query(city_xyz[st_home], k=pool)
    st_cand = np.atleast_2d(st_cand)
    primary_pick = rng.integers(0, pool, size=n_st)
    multi = rng.random(n_st) < cfg.stub_multihome_prob
    second_off = rng.integers(1, max(pool, 2), size=n_st)
    direct_t1 = rng.random(n_st) < cfg.stub_direct_tier1_prob
    primary = st_cand[np.arange(n_st), primary_pick]
    secondary = st_cand[np.arange(n_st), (primary_pick + second_off) % pool]
    multi &= secondary != primary
    _, st_t1_pop = t1_tree.query(city_xyz[st_home], k=1)
    st_xyz = city_xyz[st_home]

    # Exchange city per customer edge: the provider POP nearest the
    # stub's home metro (grouped per provider, one dense argmax each).
    prim_city = _nearest_city_of(st_xyz, primary, base[tr_lo: tr_lo + n_tr], city_xyz)
    sec_rows = np.nonzero(multi)[0]
    sec_city = _nearest_city_of(
        st_xyz[sec_rows], secondary[sec_rows], base[tr_lo: tr_lo + n_tr], city_xyz
    )
    for i in range(n_st):
        add_edge(tr_lo + int(primary[i]), st_lo + i, Relationship.CUSTOMER, [int(prim_city[i])])
    for row, i in enumerate(sec_rows):
        add_edge(
            tr_lo + int(secondary[i]), st_lo + int(i), Relationship.CUSTOMER,
            [int(sec_city[row])],
        )
    t1_rows = np.nonzero(direct_t1)[0]
    for i in t1_rows:
        pop = int(st_t1_pop[i]) if np.ndim(st_t1_pop) else int(st_t1_pop)
        add_edge(
            int(t1_pop_owner[pop]), st_lo + int(i), Relationship.CUSTOMER,
            [int(t1_pop_city[pop])],
        )

    # --- per-AS attribute draws ------------------------------------------
    n_as = cfg.n_as
    igp_delay = rng.random(n_as) < cfg.delay_metric_prob
    early_exit = rng.random(n_as) < cfg.early_exit_prob

    return _assemble(rng, cfg, city_names, city_lat, city_lon, city_regions,
                     city_weight, base, extras, igp_delay, early_exit,
                     edge_a, edge_b, edge_rel, edge_cities)


def _assemble(rng, cfg, city_names, city_lat, city_lon, city_regions, city_weight,
              base, extras, igp_delay, early_exit,
              edge_a, edge_b, edge_rel, edge_cities) -> TopologyArrays:
    """Flatten the generation state into a :class:`TopologyArrays`."""
    n_as = cfg.n_as
    n_t1, n_tr = cfg.n_tier1, cfg.n_transit
    arrays = TopologyArrays()
    arrays.city_names = city_names
    arrays.city_lat = city_lat
    arrays.city_lon = city_lon
    arrays.city_regions = city_regions
    arrays.city_weight = city_weight

    arrays.as_asn = np.arange(1, n_as + 1, dtype=np.int64)
    tiers = np.full(n_as, TIER_CODES[ASTier.STUB], dtype=np.int8)
    tiers[:n_t1] = TIER_CODES[ASTier.TIER1]
    tiers[n_t1: n_t1 + n_tr] = TIER_CODES[ASTier.TRANSIT]
    arrays.as_tier = tiers
    prefix = {
        TIER_CODES[ASTier.TIER1]: "Core",
        TIER_CODES[ASTier.TRANSIT]: "Transit",
        TIER_CODES[ASTier.STUB]: "Stub",
    }
    arrays.as_names = [f"{prefix[int(tiers[i])]}-{i + 1}" for i in range(n_as)]
    arrays.as_igp = np.where(
        igp_delay, IGP_CODES[IGPStyle.DELAY_METRIC], IGP_CODES[IGPStyle.HOP_COUNT]
    ).astype(np.int8)
    arrays.as_early_exit = np.asarray(early_exit, dtype=np.bool_)

    final_cities = [base[i] + extras[i] for i in range(n_as)]
    arrays.as_city_indptr, arrays.as_city_idx = _csr_from_lists(final_cities)

    # Core routers: exactly the flattened AS-city table, so the core
    # router of (AS i, j-th city) has router id as_city_indptr[i] + j.
    indptr = arrays.as_city_indptr
    n_core = int(indptr[-1])
    core_owner = np.repeat(np.arange(n_as), np.diff(indptr))
    core_city = arrays.as_city_idx.astype(np.int64)
    n_cities = len(city_names)
    core_key = core_owner * n_cities + core_city
    key_order = np.argsort(core_key)
    sorted_keys = core_key[key_order]

    def core_rid(as_idx: np.ndarray, city_idx: np.ndarray) -> np.ndarray:
        # hotpath
        pos = np.searchsorted(sorted_keys, as_idx * n_cities + city_idx)
        return key_order[pos]

    # Border routers: two per (AS link, exchange city), lower-AS side
    # first — ids follow the core block.
    ec_indptr, ec_flat = _csr_from_lists(edge_cities, dtype=np.int64)
    n_ec = int(ec_indptr[-1])
    ec_edge = np.repeat(np.arange(len(edge_a)), np.diff(ec_indptr))
    edge_a_arr = np.asarray(edge_a, dtype=np.int64)
    edge_b_arr = np.asarray(edge_b, dtype=np.int64)
    border_a = n_core + 2 * np.arange(n_ec)
    border_b = border_a + 1

    arrays.router_asn = np.concatenate([
        core_owner + 1,
        np.column_stack((edge_a_arr[ec_edge] + 1, edge_b_arr[ec_edge] + 1)).reshape(-1),
    ]).astype(np.int32)
    arrays.router_city = np.concatenate([
        core_city, np.repeat(ec_flat, 2)
    ]).astype(np.int32)
    arrays.router_role = np.concatenate([
        np.full(n_core, ROLE_CODES[RouterRole.CORE], dtype=np.int8),
        np.full(2 * n_ec, ROLE_CODES[RouterRole.BORDER], dtype=np.int8),
    ])

    # Links: intra-AS backbone trunks (consecutive core routers of each
    # AS), then per exchange city two metro hook-ups and the exchange
    # link itself, in edge order.
    same_as = core_owner[1:] == core_owner[:-1]
    trunk_u = np.nonzero(same_as)[0]
    trunk_v = trunk_u + 1
    core_a = core_rid(edge_a_arr[ec_edge], ec_flat)
    core_b = core_rid(edge_b_arr[ec_edge], ec_flat)
    metro_u = np.concatenate([np.minimum(core_a, border_a), np.minimum(core_b, border_b)])
    metro_v = np.concatenate([np.maximum(core_a, border_a), np.maximum(core_b, border_b)])
    link_u = np.concatenate([trunk_u, metro_u, border_a])
    link_v = np.concatenate([trunk_v, metro_v, border_b])
    n_trunk = len(trunk_u)
    n_metro = 2 * n_ec
    kinds = np.concatenate([
        np.full(n_trunk, KIND_CODES[LinkKind.BACKBONE], dtype=np.int8),
        np.full(n_metro, KIND_CODES[LinkKind.METRO], dtype=np.int8),
        np.full(n_ec, KIND_CODES[LinkKind.EXCHANGE], dtype=np.int8),
    ])
    arrays.link_u = link_u.astype(np.int32)
    arrays.link_v = link_v.astype(np.int32)
    arrays.link_kind = kinds

    u_city = arrays.router_city[link_u]
    v_city = arrays.router_city[link_v]
    km = _haversine_km(city_lat[u_city], city_lon[u_city], city_lat[v_city], city_lon[v_city])
    noise = rng.uniform(cfg.link_circuity_noise[0], cfg.link_circuity_noise[1], len(link_u))
    arrays.link_prop_ms = np.maximum(0.05, km * FIBER_CIRCUITY / FIBER_KM_PER_MS * noise)
    capacity = np.empty(len(link_u))
    util_draw = rng.random(len(link_u))
    util = np.empty(len(link_u))
    for kind in LinkKind:
        mask = kinds == KIND_CODES[kind]
        capacity[mask] = DEFAULT_CAPACITY_MBPS[kind] * cfg.capacity_scale
        lo, hi = BASELINE_UTILIZATION[kind]
        util[mask] = lo + util_draw[mask] * (hi - lo)
    arrays.link_capacity = capacity
    arrays.link_util = util

    # AS-link table + exchange index: one AS link per edge, exchange
    # link ids grouped per edge in creation order.
    arrays.aslink_a = edge_a_arr + 1
    arrays.aslink_b = edge_b_arr + 1
    arrays.aslink_rel = np.asarray(edge_rel, dtype=np.int8)
    arrays.aslink_city_indptr = ec_indptr
    arrays.aslink_city_idx = ec_flat.astype(np.int32)
    arrays.exch_pair_a = arrays.aslink_a
    arrays.exch_pair_b = arrays.aslink_b
    arrays.exch_indptr = ec_indptr
    arrays.exch_link_ids = (n_trunk + n_metro + np.arange(n_ec)).astype(np.int32)
    return arrays


# The preset dispatchers (``generate_topology_at_scale`` /
# ``build_topology``) live in :mod:`repro.topology.generator`: the
# ``paper-*`` presets route to the object generator, and importing it
# from here would cycle the layer.
