"""The probe-driven gather equals one full view per bucket, bit for bit.

``gather_bucket_state`` evaluates per-link state for all of a batch's
buckets in one 2-D pass and sums it over only the (bucket, path) pairs
the batch probes.  Every probe's (prop, qsum, ploss) must equal its
mid-bucket view's values exactly (compared as int64 bit patterns), on
static and flapping samplers, with and without cached views, across
chunk boundaries.  The reference is ``tests/netsim/oracles.py``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.measurement import Campaign, poisson_pairs
from repro.netsim import BUCKET_SECONDS, SECONDS_PER_DAY, PathSampler
from repro.netsim import conditions as conditions_module
from repro.netsim.dynamics import DynamicPathSampler
from repro.obs import runtime as obs
from repro.routing.dynamics import RouteFlapModel
from repro.scenario.plan import ScenarioPlan
from repro.scenario.run import StormFlapModel
from tests.netsim import oracles


@pytest.fixture(scope="module")
def names(topo1999):
    return topo1999.host_names()[:8]


@pytest.fixture(scope="module")
def pairs(names):
    return list(itertools.permutations(names, 2))


@pytest.fixture(scope="module")
def primaries(resolver, pairs):
    return [resolver.resolve_round_trip(a, b) for a, b in pairs]


@pytest.fixture(scope="module")
def secondaries(resolver, pairs):
    return [resolver.resolve_round_trip_secondary(a, b) for a, b in pairs]


def _storm_model(names, pairs):
    plan = ScenarioPlan.parse(
        f"flap-storm:{names[0]}->*:at={BUCKET_SECONDS * 40:g}"
        f":for={BUCKET_SECONDS * 30:g}"
    )
    return StormFlapModel(
        RouteFlapModel(flappy_fraction=0.4, flap_probability=0.3, seed=21),
        plan,
        [f"{a}->{b}" for a, b in pairs],
    )


@pytest.fixture(params=["static", "route-flap", "flap-storm"])
def make_sampler(request, conditions, names, pairs, primaries, secondaries):
    """A factory of fresh samplers (empty view caches) of one kind."""

    def make():
        if request.param == "static":
            return PathSampler(conditions, primaries)
        if request.param == "route-flap":
            model = RouteFlapModel(
                flappy_fraction=0.5, flap_probability=0.4, seed=13
            )
        else:
            model = _storm_model(names, pairs)
        return DynamicPathSampler(conditions, primaries, secondaries, model)

    return make


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_same(fast, ref):
    for name, got, want in zip(("prop", "qsum", "ploss"), fast, ref):
        assert got.shape == want.shape, name
        np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=name)


def _assert_matches_oracle(sampler, ts, idx):
    _assert_same(
        sampler.gather_bucket_state(ts, idx),
        oracles.gather_by_views(sampler, ts, idx),
    )


def _batch(seed, n, n_paths, horizon_s):
    rng = np.random.default_rng(seed)
    ts = rng.uniform(0.0, horizon_s, n)  # unsorted
    idx = rng.integers(0, n_paths, n)
    return ts, idx


@pytest.mark.parametrize("seed", [1, 2])
def test_mixed_time_batch_matches_views(make_sampler, seed):
    sampler = make_sampler()
    ts, idx = _batch(seed, 1500, len(sampler), 2 * SECONDS_PER_DAY)
    _assert_matches_oracle(sampler, ts, idx)
    assert not getattr(sampler, "_bucket_views", {})


def test_repeated_pairs_and_single_bucket(make_sampler):
    sampler = make_sampler()
    t0 = 100 * BUCKET_SECONDS
    ts = t0 + np.array([7.0, 1.0, 299.0, 7.0, 150.0, 3.0, 299.5, 0.0])
    idx = np.array([5, 5, 0, 5, 3, 0, 55, 5])
    _assert_matches_oracle(sampler, ts, idx)


def test_empty_batch(make_sampler):
    sampler = make_sampler()
    prop, qsum, ploss = sampler.gather_bucket_state(np.empty(0), np.empty(0))
    assert prop.shape == qsum.shape == ploss.shape == (0,)


def test_more_buckets_than_one_chunk(make_sampler, monkeypatch):
    sampler = make_sampler()
    ts, idx = _batch(3, 2000, len(sampler), 4 * SECONDS_PER_DAY)
    default_step = (
        conditions_module._GATHER_CHUNK_CAP_BYTES // sampler._bucket_bytes
    )
    assert len(np.unique(ts // BUCKET_SECONDS)) > default_step
    ref = oracles.gather_by_views(sampler, ts, idx)
    _assert_same(sampler.gather_bucket_state(ts, idx), ref)
    # Two buckets a chunk, and one: every chunk boundary lands somewhere.
    for rows in (2, 1):
        monkeypatch.setattr(
            conditions_module,
            "_GATHER_CHUNK_CAP_BYTES",
            rows * sampler._bucket_bytes,
        )
        _assert_same(make_sampler().gather_bucket_state(ts, idx), ref)


def test_some_buckets_read_cached_views(make_sampler):
    sampler = make_sampler()
    ts, idx = _batch(4, 800, len(sampler), 0.5 * SECONDS_PER_DAY)
    buckets = (ts // BUCKET_SECONDS).tolist()
    warm = set(sorted(set(buckets))[::3])
    for bucket in warm:
        sampler.bucket_view(bucket * BUCKET_SECONDS)
    with obs.capture() as cap:
        _assert_matches_oracle(sampler, ts, idx)
    # The gather read those views and built none.
    assert len(sampler._bucket_views) == len(warm)
    (span,) = [s for s in cap.tracer.export() if s["name"] == "netsim.gather"]
    probed = set(zip(buckets, idx.tolist()))
    summed = sum(1 for bucket, _ in probed if bucket not in warm)
    assert span["attrs"] == {
        "buckets": len(set(buckets)),
        "pairs": summed,
        "probes": len(ts),
        "view_hits": len(warm),
    }
    assert cap.metrics.counter("netsim.pair_states") == summed
    assert cap.metrics.counter("netsim.view_hits") == len(warm)


def test_gather_rejects_foreign_indices(make_sampler):
    sampler = make_sampler()
    with pytest.raises(IndexError):
        sampler.gather_bucket_state(np.array([0.0]), np.array([len(sampler)]))
    with pytest.raises(IndexError):
        sampler.gather_bucket_state(np.array([0.0]), np.array([-1]))
    with pytest.raises(ValueError):
        sampler.gather_bucket_state(np.zeros(2), np.zeros(3, dtype=np.int64))


def test_views_match_oracle(make_sampler):
    sampler = make_sampler()
    for t in (0.0, 12_345.6, 1.3 * SECONDS_PER_DAY):
        view = sampler.view(t)
        for got, want in zip(
            (view.prop, view.qsum, view.ploss), oracles.full_view(sampler, t)
        ):
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_state_rows_equal_one_time_queries(conditions):
    ts = (np.array([5, 0, 288, 5, 1000]) + 0.5) * BUCKET_SECONDS
    queue, log_survive = conditions.state_rows(ts)
    assert queue.flags.c_contiguous and log_survive.flags.c_contiguous
    for row, t in enumerate(ts.tolist()):
        util, q, loss = oracles.link_state(conditions, t)
        np.testing.assert_array_equal(_bits(queue[row]), _bits(q))
        np.testing.assert_array_equal(
            _bits(log_survive[row]), _bits(np.log1p(-loss))
        )
        np.testing.assert_array_equal(
            _bits(conditions.queue_delay_ms(t)), _bits(q)
        )
        np.testing.assert_array_equal(
            _bits(conditions.loss_probability(t)), _bits(loss)
        )
        np.testing.assert_array_equal(
            _bits(conditions.utilization(t)), _bits(util)
        )
        (one_q,), (one_ls,) = conditions.state_rows(np.array([t]))
        np.testing.assert_array_equal(_bits(one_q), _bits(queue[row]))
        np.testing.assert_array_equal(_bits(one_ls), _bits(log_survive[row]))


def test_campaign_builds_no_views(topo1999, conditions, resolver):
    hosts = topo1999.host_names()[:6]
    campaign = Campaign(
        topo1999, conditions, hosts, resolver=resolver, seed=5,
        control_failure_prob=0.0,
    )
    requests = poisson_pairs(hosts, SECONDS_PER_DAY, 300.0, seed=5)
    records, _ = campaign.run_traceroutes(requests)
    assert records
    assert not getattr(campaign._sampler, "_bucket_views", {})


def test_empty_round_trip_is_rejected(conditions, primaries):
    class _Empty:
        link_ids: tuple[int, ...] = ()
        rtt_prop_ms = 0.0

    with pytest.raises(ValueError, match="round trip 2 has no links"):
        PathSampler(conditions, [primaries[0], primaries[1], _Empty()])


def test_flappiness_is_hashed_once_per_pair(
    conditions, primaries, secondaries, monkeypatch
):
    kwargs = dict(flappy_fraction=0.5, flap_probability=0.4, seed=13)
    model = RouteFlapModel(**kwargs)
    hashed: list[tuple[int, ...]] = []
    original = RouteFlapModel._hash01

    def counting(self, *parts):
        if self is model and len(parts) == 1:
            hashed.append(parts)
        return original(self, *parts)

    monkeypatch.setattr(RouteFlapModel, "_hash01", counting)
    ts, idx = _batch(5, 400, len(primaries), SECONDS_PER_DAY)
    first = DynamicPathSampler(conditions, primaries, secondaries, model)
    first.gather_bucket_state(ts, idx)
    assert sorted(hashed) == [(i,) for i in range(len(primaries))]
    hashed.clear()
    second = DynamicPathSampler(conditions, primaries, secondaries, model)
    _assert_matches_oracle(second, ts, idx)
    assert hashed == []
    # Memoized answers equal a fresh model's, queried in another order.
    fresh = RouteFlapModel(**kwargs)
    order = range(len(primaries) - 1, -1, -1)
    assert [fresh.is_flappy(i) for i in order] == [
        model.is_flappy(i) for i in order
    ]
    assert fresh == model
