"""Tests for NetworkConditions and PathSampler."""

import itertools

import numpy as np
import pytest

from repro.netsim import (
    BUCKET_SECONDS,
    NetworkConditions,
    PathSampler,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
)
from repro.netsim.conditions import MAX_UTILIZATION, MIN_UTILIZATION
from tests.measurement.oracles import probe_pair


@pytest.fixture(scope="module")
def sampler(topo1999, conditions, resolver):
    names = topo1999.host_names()[:6]
    paths = [
        resolver.resolve_round_trip(a, b)
        for a, b in itertools.permutations(names, 2)
    ]
    return PathSampler(conditions, paths)


def test_utilization_bounds(conditions):
    for t in (0.0, 12 * SECONDS_PER_HOUR, 3.3 * SECONDS_PER_DAY):
        u = conditions.utilization(t)
        assert u.shape == (conditions.n_links,)
        assert np.all(u >= MIN_UTILIZATION)
        assert np.all(u <= MAX_UTILIZATION)


def test_conditions_deterministic_in_time(topo1999):
    a = NetworkConditions(topo1999, seed=5)
    b = NetworkConditions(topo1999, seed=5)
    t = 1.7 * SECONDS_PER_DAY
    np.testing.assert_allclose(a.utilization(t), b.utilization(t))
    np.testing.assert_allclose(a.queue_delay_ms(t), b.queue_delay_ms(t))
    # Query order must not matter.
    c = NetworkConditions(topo1999, seed=5)
    later = c.utilization(t + 10 * BUCKET_SECONDS)
    np.testing.assert_allclose(c.utilization(t), a.utilization(t))
    np.testing.assert_allclose(
        later, a.utilization(t + 10 * BUCKET_SECONDS)
    )


def test_different_seeds_differ(topo1999):
    a = NetworkConditions(topo1999, seed=5)
    b = NetworkConditions(topo1999, seed=6)
    t = SECONDS_PER_DAY
    assert not np.allclose(a.utilization(t), b.utilization(t))


def test_state_frozen_within_bucket(conditions):
    t = 2 * SECONDS_PER_DAY
    u1 = conditions.utilization(t + 1.0)
    u2 = conditions.utilization(t + BUCKET_SECONDS - 1.0)
    # Same bucket: same noise; only the (small) diurnal drift differs.
    assert np.allclose(u1, u2, rtol=0.06)


def test_queue_and_loss_consistent_with_utilization(conditions):
    t = 1.25 * SECONDS_PER_DAY
    q = conditions.queue_delay_ms(t)
    p = conditions.loss_probability(t)
    assert np.all(q >= 0)
    assert np.all((p >= 0) & (p <= 1))
    # Apart from chronic-loss links, links losing packets must be hot.
    u = conditions.utilization(t)
    congestion_only = (p > 0) & (conditions.chronic_loss == 0)
    assert np.all(u[congestion_only] > 0.5)


def test_chronic_loss_structure(conditions):
    chronic = conditions.chronic_loss
    assert chronic.shape == (conditions.n_links,)
    assert np.all(chronic >= 0.0) and np.all(chronic < 0.05)
    # A small but nonzero set of links is chronically lossy.
    frac = np.mean(chronic > 0)
    assert 0.0 < frac < 0.15


def test_chronic_loss_persists_off_peak(conditions):
    """Chronic loss keeps a loss signal alive when congestion loss is
    gone (the weekend effect of Figure 10)."""
    weekend_night = 6 * SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR
    p = conditions.loss_probability(weekend_night)
    chronic_links = conditions.chronic_loss > 0
    assert np.all(p[chronic_links] >= conditions.chronic_loss[chronic_links] - 1e-12)


def test_link_state_snapshot(conditions):
    state = conditions.link_state(0, SECONDS_PER_DAY)
    assert set(state) == {"utilization", "queue_delay_ms", "loss_probability"}


def test_sampler_prop_delays_static(sampler):
    p1 = sampler.prop_delays()
    p2 = sampler.prop_delays()
    np.testing.assert_allclose(p1, p2)
    assert np.all(p1 > 0)


def test_sampler_queue_sums_positive(sampler):
    q = sampler.queue_delay_sums(SECONDS_PER_DAY)
    assert q.shape == (len(sampler),)
    assert np.all(q >= 0)


def test_sampler_loss_probabilities_bounds(sampler):
    p = sampler.loss_probabilities(SECONDS_PER_DAY)
    assert np.all((p >= 0) & (p < 1))


def test_probe_batch_shape_and_losses(sampler, rng):
    batch = sampler.probe(SECONDS_PER_DAY, rng)
    assert batch.rtt_ms.shape == (len(sampler),)
    assert np.all(np.isnan(batch.rtt_ms) == batch.lost)
    ok = batch.rtt_ms[~batch.lost]
    assert np.all(ok >= sampler.prop_delays()[~batch.lost])


def test_probe_with_indices(sampler, rng):
    idx = np.array([0, 3, 5])
    batch = sampler.probe(SECONDS_PER_DAY, rng, indices=idx)
    assert batch.rtt_ms.shape == (3,)


def test_view_matches_arrays(sampler):
    t = 1.5 * SECONDS_PER_DAY
    view = sampler.view(t)
    np.testing.assert_allclose(view.qsum, sampler.queue_delay_sums(t))
    np.testing.assert_allclose(view.ploss, sampler.loss_probabilities(t))


def test_view_probe_pair_rtt_bounds(sampler, rng):
    view = sampler.view(SECONDS_PER_DAY)
    rtts = [probe_pair(view, 0, rng) for _ in range(200)]
    finite = [r for r in rtts if not np.isnan(r)]
    assert finite
    assert min(finite) >= view.prop[0]


def test_peak_queues_exceed_night(sampler):
    # Tuesday 19:00 UTC is late morning in NA (peak); 10:00 UTC is night.
    peak = np.mean([
        sampler.queue_delay_sums(SECONDS_PER_DAY + 19 * SECONDS_PER_HOUR + i * 311)
        .mean()
        for i in range(6)
    ])
    night = np.mean([
        sampler.queue_delay_sums(SECONDS_PER_DAY + 10 * SECONDS_PER_HOUR + i * 311)
        .mean()
        for i in range(6)
    ])
    assert peak > 1.5 * night


def test_path_sums_match_manual_per_link_sums(sampler, conditions, topo1999, resolver):
    """CSR aggregation must equal a straightforward per-link sum."""
    import itertools

    names = topo1999.host_names()[:6]
    paths = [
        resolver.resolve_round_trip(a, b)
        for a, b in itertools.permutations(names, 2)
    ]
    t = 1.3 * SECONDS_PER_DAY
    qsum = sampler.queue_delay_sums(t)
    per_link = conditions.queue_delay_ms(t)
    for i, rt in enumerate(paths):
        manual = sum(per_link[l] for l in rt.link_ids)
        assert qsum[i] == pytest.approx(manual)


def test_path_loss_matches_manual_composition(sampler, conditions, topo1999, resolver):
    import itertools

    names = topo1999.host_names()[:6]
    paths = [
        resolver.resolve_round_trip(a, b)
        for a, b in itertools.permutations(names, 2)
    ]
    t = 1.3 * SECONDS_PER_DAY
    ploss = sampler.loss_probabilities(t)
    per_link = conditions.loss_probability(t)
    for i, rt in enumerate(paths):
        survive = 1.0
        for l in rt.link_ids:
            survive *= 1.0 - per_link[l]
        assert ploss[i] == pytest.approx(1.0 - survive)
