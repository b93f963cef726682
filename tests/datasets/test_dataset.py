"""Tests for the Dataset container and its corrections."""


import numpy as np
import pytest

from repro.datasets.dataset import Dataset, DatasetError, DatasetMeta
from repro.measurement.records import TracerouteRecord, TransferRecord

NAN = float("nan")


def _meta(name="T", method="traceroute"):
    return DatasetMeta(
        name=name, method=method, year=1999, duration_days=1, location="North America"
    )


def _tr(t, src, dst, samples, episode=-1):
    return TracerouteRecord(t=t, src=src, dst=dst, rtt_samples=samples, episode=episode)


@pytest.fixture()
def small() -> Dataset:
    records = [
        _tr(0.0, "a", "b", (10.0, 12.0, NAN)),
        _tr(60.0, "a", "b", (11.0, NAN, NAN)),
        _tr(120.0, "b", "a", (9.0, 9.5, 10.0)),
        _tr(180.0, "a", "c", (30.0, 31.0, 32.0)),
        _tr(86400.0 * 5.5, "a", "c", (40.0, 41.0, 42.0)),  # weekend
    ]
    return Dataset(meta=_meta(), hosts=["a", "b", "c"], traceroutes=records)


def test_mixed_record_families_rejected():
    with pytest.raises(DatasetError):
        Dataset(
            meta=_meta(),
            hosts=["a", "b"],
            traceroutes=[_tr(0, "a", "b", (1.0,))],
            transfers=[
                TransferRecord(t=0, src="a", dst="b", rtt_ms=1, loss_rate=0, bandwidth_kbps=1)
            ],
        )


def test_counts_and_coverage(small):
    assert small.n_measurements == 5
    assert small.n_pairs_possible() == 6
    assert small.pairs() == [("a", "b"), ("a", "c"), ("b", "a")]
    assert small.coverage() == pytest.approx(3 / 6)


def test_rtt_samples(small):
    np.testing.assert_allclose(small.rtt_samples(("a", "b")), [10.0, 12.0, 11.0])
    np.testing.assert_allclose(small.rtt_samples(("b", "a")), [9.0, 9.5, 10.0])
    assert small.rtt_samples(("c", "a")).size == 0


def test_loss_samples_all_probes(small):
    losses = small.loss_samples(("a", "b"))
    np.testing.assert_allclose(losses, [0, 0, 1, 0, 1, 1])


def test_loss_samples_first_probe_only(small):
    corrected = small.with_first_probe_loss_heuristic()
    np.testing.assert_allclose(corrected.loss_samples(("a", "b")), [0, 0])
    # RTT samples are unaffected by the loss heuristic.
    np.testing.assert_allclose(
        corrected.rtt_samples(("a", "b")), small.rtt_samples(("a", "b"))
    )


def test_with_min_samples(small):
    filtered = small.with_min_samples(2)
    assert filtered.pairs() == [("a", "b"), ("a", "c")]
    assert small.pairs() == [("a", "b"), ("a", "c"), ("b", "a")]  # original intact


def test_without_hosts(small):
    reduced = small.without_hosts(["b"])
    assert reduced.hosts == ["a", "c"]
    assert reduced.pairs() == [("a", "c")]
    # Original untouched (no aliased meta either).
    reduced.meta.name = "changed"
    assert small.meta.name == "T"


def test_restricted_to_times(small):
    weekday = small.restricted_to_times(lambda t: t < 86400.0)
    assert weekday.n_measurements == 4
    weekend = small.restricted_to_times(lambda t: t >= 86400.0 * 5)
    assert weekend.n_measurements == 1


def test_reverse_substitution():
    records = [
        _tr(0.0, "a", "lim", (NAN, NAN, 50.0)),
        _tr(10.0, "lim", "a", (20.0, 21.0, 22.0)),
        _tr(20.0, "a", "c", (30.0, 30.0, 30.0)),
    ]
    ds = Dataset(meta=_meta(), hosts=["a", "lim", "c"], traceroutes=records)
    fixed = ds.with_reverse_substitution(["lim"])
    # (a, lim) now carries the clean reverse measurements, relabeled.
    np.testing.assert_allclose(fixed.rtt_samples(("a", "lim")), [20.0, 21.0, 22.0])
    # (lim, a) keeps its own records.
    np.testing.assert_allclose(fixed.rtt_samples(("lim", "a")), [20.0, 21.0, 22.0])
    # Unrelated pairs untouched.
    np.testing.assert_allclose(fixed.rtt_samples(("a", "c")), [30.0, 30.0, 30.0])


def test_reverse_substitution_drops_limiter_pairs():
    records = [
        _tr(0.0, "x", "y", (NAN, 1.0, 1.0)),
    ]
    ds = Dataset(meta=_meta(), hosts=["x", "y"], traceroutes=records)
    fixed = ds.with_reverse_substitution(["x", "y"])
    assert fixed.pairs() == []


def test_reverse_substitution_rejects_transfers(mini_transfers):
    with pytest.raises(DatasetError):
        mini_transfers.with_reverse_substitution(["any"])


def test_episode_accessors():
    records = [
        _tr(0.0, "a", "b", (1.0,), episode=0),
        _tr(1.0, "b", "a", (2.0,), episode=0),
        _tr(500.0, "a", "b", (3.0,), episode=1),
        _tr(900.0, "a", "b", (4.0,)),
    ]
    ds = Dataset(meta=_meta(), hosts=["a", "b"], traceroutes=records)
    assert ds.episodes() == [0, 1]
    by_episode = ds.records_by_episode()
    assert list(by_episode) == [0, 1]
    assert by_episode[0] == records[:2]
    assert by_episode[1] == records[2:3]


def test_bandwidth_accessors(mini_transfers):
    pair = mini_transfers.pairs()[0]
    bw = mini_transfers.bandwidth_samples(pair)
    assert bw.size > 0
    assert np.all(bw > 0)
    rtt = mini_transfers.rtt_samples(pair)
    assert rtt.size == bw.size


def test_bandwidth_requires_transfer_dataset(small):
    with pytest.raises(DatasetError):
        small.bandwidth_samples(("a", "b"))


def test_timestamps(small):
    ts = small.timestamps(("a", "b"))
    np.testing.assert_allclose(ts, [0.0, 60.0])


def test_table1_row(small):
    row = small.table1_row()
    assert row["dataset"] == "T"
    assert row["hosts"] == 3
    assert row["measurements"] == 5
    assert row["paths_covered_pct"] == 50


def test_simulated_dataset_sanity(mini_dataset):
    assert mini_dataset.coverage() > 0.95
    pair = mini_dataset.pairs()[0]
    rtts = mini_dataset.rtt_samples(pair)
    assert rtts.size >= 10
    assert np.all(rtts > 0)
    losses = mini_dataset.loss_samples(pair)
    assert np.all((losses == 0.0) | (losses == 1.0))
