"""Differential tests: batched measurement pipeline vs the scalar path.

The vectorized probe/transfer generation must be *byte-identical* to the
scalar reference implementations in ``oracles.py`` (same pattern as
tests/routing/test_bgp_equivalence.py): every probe consumes a fixed
block of uniform draws whether batched or scalar, so both paths walk the
identical generator stream and the float arithmetic is applied in the
identical order.  These tests compare full campaign outputs across seeds
and both the static and flapping samplers, plus the lower layers
(probe_block / probe_batch / ping) one by one.
"""

import itertools
import math

import numpy as np
import pytest

from repro.measurement import Campaign, PingTool
from repro.measurement.schedulers import poisson_pairs
from repro.netsim import DRAWS_PER_PROBE, PathSampler, SECONDS_PER_DAY
from repro.netsim.dynamics import DynamicPathSampler
from repro.routing.dynamics import RouteFlapModel
from tests.measurement import oracles

SEEDS = [0, 1, 2]


def _campaign(topo, conditions, resolver, seed, flap):
    hosts = topo.host_names()[:8]
    model = (
        RouteFlapModel(flappy_fraction=0.4, flap_probability=0.2, seed=seed)
        if flap
        else None
    )
    campaign = Campaign(
        topo,
        conditions,
        hosts,
        resolver=resolver,
        seed=seed,
        control_failure_prob=0.05,
        pair_blackout_prob=0.1,
        flap_model=model,
    )
    return campaign, hosts


def _assert_stats_equal(a, b):
    assert a.requested == b.requested
    assert a.completed == b.completed
    assert a.control_failures == b.control_failures
    assert a.blacked_out == b.blacked_out
    assert a.rate_limited_probes == b.rate_limited_probes


@pytest.mark.parametrize("flap", [False, True], ids=["static", "flap"])
@pytest.mark.parametrize("seed", SEEDS)
def test_traceroutes_batched_equals_scalar(
    topo1999, conditions, resolver, seed, flap
):
    fast, hosts = _campaign(topo1999, conditions, resolver, seed, flap)
    oracle, _ = _campaign(topo1999, conditions, resolver, seed, flap)
    requests = list(
        poisson_pairs(hosts, SECONDS_PER_DAY / 4, 40.0, seed=seed + 100)
    )
    fast_records, fast_stats = fast.run_traceroutes(requests)
    ref_records, ref_stats = oracles.run_traceroutes_scalar(oracle, requests)
    _assert_stats_equal(fast_stats, ref_stats)
    assert len(fast_records) == len(ref_records)
    for a, b in zip(fast_records, ref_records):
        assert (a.t, a.src, a.dst, a.episode) == (b.t, b.src, b.dst, b.episode)
        # NaN-aware byte equality, probe for probe.
        np.testing.assert_array_equal(
            np.array(a.rtt_samples), np.array(b.rtt_samples)
        )


@pytest.mark.parametrize("flap", [False, True], ids=["static", "flap"])
@pytest.mark.parametrize("seed", SEEDS)
def test_transfers_batched_equals_scalar(
    topo1999, conditions, resolver, seed, flap
):
    fast, hosts = _campaign(topo1999, conditions, resolver, seed, flap)
    oracle, _ = _campaign(topo1999, conditions, resolver, seed, flap)
    requests = list(
        poisson_pairs(hosts, SECONDS_PER_DAY / 4, 60.0, seed=seed + 200)
    )
    fast_records, fast_stats = fast.run_transfers(requests)
    ref_records, ref_stats = oracles.run_transfers_scalar(oracle, requests)
    _assert_stats_equal(fast_stats, ref_stats)
    assert fast_records == ref_records  # exact float equality, field for field


@pytest.fixture(scope="module")
def static_sampler(topo1999, conditions, resolver):
    names = topo1999.host_names()[:6]
    paths = [
        resolver.resolve_round_trip(a, b)
        for a, b in itertools.permutations(names, 2)
    ]
    return PathSampler(conditions, paths)


@pytest.fixture(scope="module")
def dynamic_sampler(topo1999, conditions, resolver):
    names = topo1999.host_names()[:6]
    pairs = list(itertools.permutations(names, 2))
    primaries = [resolver.resolve_round_trip(a, b) for a, b in pairs]
    secondaries = [
        resolver.resolve_round_trip_secondary(a, b) for a, b in pairs
    ]
    model = RouteFlapModel(flappy_fraction=0.5, flap_probability=0.3, seed=7)
    return DynamicPathSampler(conditions, primaries, secondaries, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_block_equals_probe_pair_loop(static_sampler, seed):
    view = static_sampler.view(SECONDS_PER_DAY)
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    batch = view.probe_block(rng_fast)
    reference = np.array(
        [
            oracles.probe_pair(view, i, rng_ref)
            for i in range(len(static_sampler))
        ]
    )
    np.testing.assert_array_equal(batch.rtt_ms, reference)
    np.testing.assert_array_equal(batch.lost, np.isnan(reference))


@pytest.mark.parametrize("sampler_name", ["static_sampler", "dynamic_sampler"])
@pytest.mark.parametrize("seed", SEEDS)
def test_probe_batch_equals_scalar_loop(sampler_name, seed, request):
    """probe_batch over mixed times/indices == per-probe bucket_view loop."""
    sampler = request.getfixturevalue(sampler_name)
    ts = SECONDS_PER_DAY + np.linspace(0.0, 3600.0, 200)
    idx = np.arange(200) % len(sampler)
    rng_fast = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    fast = sampler.probe_batch(ts, rng_fast, indices=idx)
    reference = np.array(
        [
            oracles.probe_pair(sampler.bucket_view(float(t)), int(i), rng_ref)
            for t, i in zip(ts, idx)
        ]
    )
    np.testing.assert_array_equal(fast, reference)


def test_probe_consumes_fixed_draws(static_sampler):
    """A probe round advances the generator by exactly DRAWS_PER_PROBE
    uniforms per path — the invariant the stream equivalence rests on."""
    n = len(static_sampler)
    rng = np.random.default_rng(11)
    static_sampler.probe(SECONDS_PER_DAY, rng)
    probed_next = np.random.default_rng(11)
    probed_next.random(n * DRAWS_PER_PROBE)
    assert rng.random() == probed_next.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_ping_equals_scalar_loop(topo1999, conditions, resolver, seed):
    names = topo1999.host_names()
    round_trip = resolver.resolve_round_trip(names[0], names[1])
    tool = PingTool(conditions)
    count, interval_s = 20, 30.0
    result = tool.ping(
        round_trip,
        t=SECONDS_PER_DAY,
        rng=np.random.default_rng(seed),
        count=count,
        interval_s=interval_s,
    )
    sampler = PathSampler(conditions, [round_trip])
    rng_ref = np.random.default_rng(seed)
    times = SECONDS_PER_DAY + np.arange(count) * interval_s
    reference = [
        oracles.probe_pair(sampler.bucket_view(float(t)), 0, rng_ref)
        for t in times
    ]
    answered = [r for r in reference if not math.isnan(r)]
    assert result.received == len(answered)
    np.testing.assert_array_equal(np.array(result.rtts_ms), np.array(answered))
