"""Differential tests: one carried path resolver vs a fresh one per step.

A :class:`~repro.routing.forwarding.PathResolver` keeps its cached paths
across topology mutations and drops only those a mutation changed: a
changed BGP AS path, a crossed adjacency whose exchange links changed,
or any substrate change.  ``ScenarioRun`` and ``DetourService`` rely on
that to keep one resolver per scenario walk.  These tests hold the
carried resolver to a fresh one after every timeline step, the whole
what-if run to the fresh-resolver walk in ``oracles.py``, flappy-only
campaign secondaries to all secondaries, and routing tables built before
a mutation to tables built after it.
"""

from collections import Counter
from functools import cache

import pytest

from repro.datasets.io import save_dataset
from repro.measurement.collector import Campaign
from repro.measurement.schedulers import poisson_episodes
from repro.netsim.dynamics import DynamicPathSampler
from repro.obs import runtime as obs
from repro.routing.bgp import BGPTable
from repro.routing.dynamics import RouteFlapModel
from repro.routing.forwarding import ForwardingError, PathResolver
from repro.routing.igp import IGPSuite
from repro.scenario.plan import ScenarioPlan
from repro.scenario.run import ScenarioRun, StormFlapModel
from repro.service import DetourService, PathStore
from repro.topology.asys import ASTier
from repro.topology.links import LinkKind

from tests.scenario import oracles

N_HOSTS = 14


def _pairs(hosts):
    return [(a, b) for a in hosts for b in hosts if a != b]


def _used_adjacencies(topo, hosts):
    """AS adjacencies on the hosts' pristine default paths, most used first."""
    uses = Counter(
        frozenset(hop)
        for rt in PathResolver(topo).round_trips(_pairs(hosts)).values()
        for hop in zip(rt.forward.as_path, rt.forward.as_path[1:])
    )
    return [sorted(pair) for pair, _ in uses.most_common()]


def _new_provider(topo, hosts):
    """A ``new-transit`` (provider, customer) that gives the first host AS
    it can a new provider, so host pairs reroute when it appears."""
    for customer in dict.fromkeys(topo.host(h).asn for h in hosts):
        for provider in sorted(topo.ases):
            if (
                topo.ases[provider].tier is not ASTier.STUB
                and topo.as_link_between(provider, customer) is None
                and any(
                    topo.has_core_router(provider, c.name)
                    and topo.has_core_router(customer, c.name)
                    for c in topo.ases[min(provider, customer)].cities
                )
            ):
                return provider, customer
    raise AssertionError("no host AS can take a new provider")


@cache
def _perfbench_style_plan(seed):
    """Seven topology events, one every 600 s from t=600, plus a flap storm.

    The mix of perfbench's ``whatif-replay`` plan (link-downs that heal,
    a depeer, a regional outage, a new transit), with the adjacencies
    the hosts' default paths use most so that pairs really reroute.
    """
    probe = ScenarioRun(ScenarioPlan.parse(""), seed=seed, n_hosts=N_HOSTS)
    topo, hosts = probe.topo, probe.hosts
    used = [f"{a}-{b}" for a, b in _used_adjacencies(topo, hosts)]
    provider, customer = _new_provider(topo, hosts)
    region = topo.host(hosts[0]).city.region
    return ";".join([
        f"link-down:{used[0]}:at=600:for=300",
        f"flap-storm:whatif-*->{hosts[N_HOSTS // 2]}:at=300:for=600",
        f"link-down:{used[1]}:at=1200:for=300",
        f"depeer:{used[2]}:at=1800",
        f"region-outage:{region}:at=2400:for=300",
        f"link-down:{used[3]}:at=3000:for=300",
        f"new-transit:{provider}-{customer}:at=3600",
        f"link-down:{used[4]}:at=4200:for=300",
    ])


@cache
def _hand_built_plans():
    """Seed 3 plans for the event kinds a carried resolver must survive."""
    probe = ScenarioRun(ScenarioPlan.parse(""), seed=3, n_hosts=N_HOSTS)
    topo, hosts = probe.topo, probe.hosts
    used = _used_adjacencies(topo, hosts)
    transit = Counter(
        asn
        for a, b in used
        for asn in (a, b)
        if topo.ases[asn].tier is not ASTier.STUB
    ).most_common(1)[0][0]
    provider, customer = _new_provider(topo, hosts)
    a, b = used[0]
    return {
        # na-central takes down some, not all, exchange links of
        # adjacencies on default paths: same AS paths, new egresses.
        "region-outage": "region-outage:na-central:at=300:for=600",
        "node-down": f"node-down:{transit}:at=300",
        "new-transit": f"new-transit:{provider}-{customer}:at=300",
        "revert": f"link-down:{a}-{b}:at=300:for=300;link-down:{a}-{b}:at=900:for=300",
    }


PLANS = {
    **{f"perfbench-seed{seed}": (seed, None) for seed in (3, 11)},
    **{kind: (3, kind) for kind in ("region-outage", "node-down", "new-transit", "revert")},
}


def _plan(seed, kind):
    return _perfbench_style_plan(seed) if kind is None else _hand_built_plans()[kind]


def _round_trips(resolver, pairs):
    """Primary and secondary round trips of every reachable pair."""
    primary = resolver.round_trips(pairs)
    secondary = {
        pair: resolver.resolve_round_trip_secondary(*pair) for pair in primary
    }
    return primary, secondary


def _resolve_each(resolver, pairs):
    """Secondary then primary path of each pair, looked up one at a time
    with no batch convergence first."""
    out = {}
    for pair in pairs:
        try:
            out[pair] = (resolver.resolve_secondary(*pair), resolver.resolve(*pair))
        except ForwardingError:
            out[pair] = None
    return out


def _walk(run, check):
    """Call ``check()`` on the pristine topology, after every timeline
    step and after ``reset()``."""
    check()
    for t in run.timeline.boundaries():
        run.timeline.advance_to(t)
        check()
    run.timeline.reset()
    check()


@pytest.mark.parametrize("name", sorted(PLANS))
def test_carried_resolver_matches_a_fresh_one_after_every_step(name):
    seed, kind = PLANS[name]
    run = ScenarioRun(ScenarioPlan.parse(_plan(seed, kind)), seed=seed, n_hosts=N_HOSTS)
    pairs = _pairs(run.hosts)
    carried = PathResolver(run.topo)
    steps = []

    def check():
        got = _round_trips(carried, pairs)
        assert got == _round_trips(PathResolver(run.topo), pairs)
        steps.append(got)

    with obs.capture() as cap:
        _walk(run, check)
    counters = cap.blob()["metrics"]["counters"]
    # The staleness check runs after the batch convergence: no
    # destination converges alone.
    assert "routing.bgp.convergences" not in counters
    assert counters["routing.paths_kept"] > 0
    assert counters["routing.paths_dropped"] > 0
    # Not vacuous: the walk changed some pair's path and restored it.
    assert any(step != steps[0] for step in steps)
    assert steps[-1] == steps[0]


@pytest.mark.parametrize("name", ["perfbench-seed11", "region-outage", "node-down"])
def test_carried_resolver_answers_single_lookups_after_every_step(name):
    """Lookups with no batch convergence first drop paths toward
    destinations the timeline invalidated instead of trusting them."""
    seed, kind = PLANS[name]
    run = ScenarioRun(ScenarioPlan.parse(_plan(seed, kind)), seed=seed, n_hosts=N_HOSTS)
    pairs = _pairs(run.hosts)
    carried = PathResolver(run.topo)

    def check():
        assert _resolve_each(carried, pairs) == _resolve_each(
            PathResolver(run.topo), pairs
        )

    _walk(run, check)


def test_partial_region_outage_moves_egress_under_the_same_as_path():
    """The hand-built region outage exercises the exchange-link rule: some
    pair keeps its AS path while its router-level path changes."""
    seed, kind = PLANS["region-outage"]
    run = ScenarioRun(ScenarioPlan.parse(_plan(seed, kind)), seed=seed, n_hosts=N_HOSTS)
    pairs = _pairs(run.hosts)
    carried = PathResolver(run.topo)
    before = carried.round_trips(pairs)
    run.timeline.advance_to(300.0)
    after = carried.round_trips(pairs)
    moved = [
        pair
        for pair in before.keys() & after.keys()
        if before[pair].forward.as_path == after[pair].forward.as_path
        and before[pair].forward.routers != after[pair].forward.routers
    ]
    run.timeline.reset()
    assert moved


def test_exchange_index_change_alone_moves_the_egress():
    """Detaching the exchange link a path hands over on, with the AS graph
    untouched, re-resolves the path; reattaching restores it."""
    run = ScenarioRun(ScenarioPlan.parse(""), seed=3, n_hosts=N_HOSTS)
    topo, pairs = run.topo, _pairs(run.hosts)
    carried = PathResolver(topo)
    pristine = carried.round_trips(pairs)
    link_id = next(
        link
        for rt in pristine.values()
        for link in rt.forward.links
        if topo.links[link].kind is LinkKind.EXCHANGE
        and len(
            topo.exchange_links_between(
                topo.routers[topo.links[link].u].asn,
                topo.routers[topo.links[link].v].asn,
            )
        )
        >= 2
    )
    position = topo.detach_exchange_link(link_id)
    detached = carried.round_trips(pairs)
    assert detached == PathResolver(topo).round_trips(pairs)
    assert all(link_id not in rt.link_ids for rt in detached.values())
    topo.reattach_exchange_link(link_id, position)
    assert carried.round_trips(pairs) == pristine


@pytest.mark.parametrize("name", sorted(PLANS))
def test_execute_matches_the_fresh_resolver_walk(name, tmp_path):
    seed, kind = PLANS[name]
    run = ScenarioRun(ScenarioPlan.parse(_plan(seed, kind)), seed=seed, n_hosts=N_HOSTS)
    outputs = []
    for label, execute in (
        ("carried", run.execute),
        ("fresh", lambda: oracles.execute_fresh_per_segment(run)),
    ):
        dataset, report = execute()
        path = tmp_path / f"{label}.jsonl"
        save_dataset(dataset, path)
        outputs.append((path.read_bytes(), report.segments, report.render()))
    assert outputs[0] == outputs[1]
    if kind is None:
        assert sum(seg.pairs_rerouted for seg in outputs[0][1]) > 0


def _all_secondaries_sampler(campaign, resolver, flap_model):
    """The sampler a campaign built when it resolved every secondary."""
    pairs = list(campaign._pair_index)
    secondaries = [
        campaign._round_trips[i]
        if i in campaign._unreachable
        else resolver.resolve_round_trip_secondary(*pair)
        for i, pair in enumerate(pairs)
    ]
    return DynamicPathSampler(
        campaign._sampler._cond, campaign._round_trips, secondaries, flap_model
    )


@pytest.mark.parametrize("seed", [5, 17])
@pytest.mark.parametrize(
    "flap", ["default", "busy", "storm"], ids=["default", "busy", "storm"]
)
def test_flappy_only_secondaries_probe_like_all_secondaries(seed, flap):
    env = ScenarioRun(ScenarioPlan.parse(""), seed=seed, n_hosts=10)
    pair_names = [f"{a}->{b}" for a, b in _pairs(env.hosts)]
    base = (
        RouteFlapModel(flappy_fraction=0.5, flap_probability=0.5, seed=seed)
        if flap == "busy"
        else RouteFlapModel(seed=seed)
    )
    model = (
        StormFlapModel(
            base,
            ScenarioPlan.parse(f"flap-storm:*->{env.hosts[3]}:at=1800:for=3600"),
            pair_names,
        )
        if flap == "storm"
        else base
    )
    resolver = PathResolver(env.topo)
    campaigns = [
        Campaign(
            env.topo, env.conditions, env.hosts,
            resolver=resolver, seed=seed, flap_model=model,
        )
        for _ in range(2)
    ]
    reference = campaigns[1]
    reference._sampler = _all_secondaries_sampler(reference, resolver, model)
    flappy_only = campaigns[0]._sampler._secondary.paths
    all_secondaries = reference._sampler._secondary.paths
    # Not vacuous: some pair that never flaps has a distinct secondary.
    assert any(
        not model.is_flappy(i) and all_secondaries[i] != flappy_only[i]
        for i in range(len(flappy_only))
    )
    requests = list(poisson_episodes(env.hosts, 6 * 3600.0, 900.0, seed=seed))
    traced = [repr(c.run_traceroutes(requests)) for c in campaigns]
    assert traced[0] == traced[1]
    transfers = [repr(c.run_transfers(requests)) for c in campaigns]
    assert transfers[0] == transfers[1]
    for t in (0.0, 1234.0, 4000.0, 20000.0):
        views = [c._sampler.bucket_view(t) for c in campaigns]
        for field in ("prop", "qsum", "ploss"):
            assert getattr(views[0], field).tobytes() == getattr(views[1], field).tobytes()


def test_detour_replay_segments_match_fresh_resolvers():
    service = DetourService(
        ScenarioPlan.parse(_hand_built_plans()["region-outage"]),
        seed=3,
        n_hosts=N_HOSTS,
        n_pairs=5,
        duration_s=1500.0,
    )
    segments = service._environment().segments
    legs = PathStore(service.hosts, service.candidates).legs()
    try:
        for segment in segments:
            service.timeline.advance_to(segment.t)
            assert segment.resolved == PathResolver(service.topo).round_trips(legs)
    finally:
        service.timeline.reset()
    assert any(seg.resolved != segments[0].resolved for seg in segments)


def test_tables_built_before_a_mutation_answer_like_ones_built_after():
    plans = _hand_built_plans()
    plan = f"{plans['node-down']};{plans['new-transit'].replace('at=300', 'at=600')}"
    run = ScenarioRun(ScenarioPlan.parse(plan), seed=3, n_hosts=N_HOSTS)
    topo = run.topo
    early_bgp, early_igp = BGPTable(topo), IGPSuite(topo)
    early_bgp.converge_all()
    asns = sorted(topo.ases)
    pristine = {(s, d): early_bgp.as_path(s, d) for s in asns for d in asns}
    changed = False
    for t in run.timeline.boundaries():
        run.timeline.advance_to(t)
        late_bgp = BGPTable(topo)
        for s in asns:
            for d in asns:
                path = early_bgp.as_path(s, d)
                assert path == late_bgp.as_path(s, d)
                changed = changed or path != pristine[(s, d)]
    run.timeline.reset()
    assert changed
    assert {(s, d): early_bgp.as_path(s, d) for s in asns for d in asns} == pristine
    # A substrate change: a near-zero-delay trunk between an AS's first
    # and last router, which its IGP must route over.
    asn = next(a for a in asns if len(topo.routers_of(a)) >= 3)
    r0, r1 = topo.routers_of(asn)[0], topo.routers_of(asn)[-1]
    before = early_igp.table(asn).cost(r0, r1)
    topo.add_link(r0, r1, LinkKind.BACKBONE, prop_delay_ms=0.001)
    late_igp = IGPSuite(topo)
    assert early_igp.table(asn) is late_igp.table(asn)
    assert early_igp.table(asn).cost(r0, r1) == late_igp.table(asn).cost(r0, r1)
    assert early_igp.table(asn).cost(r0, r1) < before


def test_substrate_change_drops_every_cached_path():
    run = ScenarioRun(ScenarioPlan.parse(""), seed=11, n_hosts=8)
    topo, pairs = run.topo, _pairs(run.hosts)
    carried = PathResolver(topo)
    on_paths = {
        asn for rt in carried.round_trips(pairs).values() for asn in rt.forward.as_path
    }
    cached, resolved = len(carried._cache), carried.resolved
    # Shortcut trunks inside every AS on a default path change IGP
    # shortest paths, so nothing cached may survive.
    for asn in sorted(on_paths):
        routers = topo.routers_of(asn)
        if len(routers) >= 2:
            topo.add_link(routers[0], routers[-1], LinkKind.BACKBONE, prop_delay_ms=0.001)
    with obs.capture() as cap:
        got = _round_trips(carried, pairs)
    assert got == _round_trips(PathResolver(topo), pairs)
    assert cap.blob()["metrics"]["counters"]["routing.paths_dropped"] == cached
    assert carried.resolved - resolved >= cached
