"""Tests for overlay EWMA estimates."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.overlay.state import OverlayState


def test_state_validation():
    with pytest.raises(ValueError):
        OverlayState(["a", "b"], alpha=0.0)
    with pytest.raises(ValueError):
        OverlayState(["a", "b"], alpha=1.5)
    with pytest.raises(ValueError):
        OverlayState(["only"])


def test_initial_estimates_unusable():
    state = OverlayState(["a", "b", "c"])
    assert not state.estimate(("a", "b")).usable
    assert state.usable_pairs() == []


def test_first_sample_initializes():
    state = OverlayState(["a", "b"], alpha=0.5)
    state.record_probe(("a", "b"), 100.0)
    est = state.estimate(("a", "b"))
    assert est.usable
    assert est.rtt_ms == 100.0
    assert est.loss == 0.0
    assert est.samples == 1


def test_ewma_update():
    state = OverlayState(["a", "b"], alpha=0.5)
    state.record_probe(("a", "b"), 100.0)
    state.record_probe(("a", "b"), 200.0)
    assert state.estimate(("a", "b")).rtt_ms == pytest.approx(150.0)


def test_loss_updates_without_rtt():
    state = OverlayState(["a", "b"], alpha=0.5)
    state.record_probe(("a", "b"), 100.0)
    state.record_probe(("a", "b"), float("nan"))
    est = state.estimate(("a", "b"))
    assert est.rtt_ms == 100.0  # lost probes don't move the RTT estimate
    assert est.loss == pytest.approx(0.5)


def test_all_lost_link_stays_unusable():
    state = OverlayState(["a", "b"])
    for _ in range(5):
        state.record_probe(("a", "b"), float("nan"))
    est = state.estimate(("a", "b"))
    assert not est.usable
    assert est.loss > 0.8


def test_unknown_pair_raises():
    state = OverlayState(["a", "b"])
    with pytest.raises(KeyError):
        state.estimate(("a", "z"))


def test_non_member_and_self_pairs_raise_keyerror():
    """Non-member and self pairs raise KeyError from all three methods."""
    state = OverlayState(["a", "b", "c"])
    state.record_probe(("a", "b"), 10.0)
    for pair in (("a", "z"), ("z", "a"), ("a", "a")):
        with pytest.raises(KeyError):
            state.estimate(pair)
        with pytest.raises(KeyError):
            state.record_probe(pair, 10.0)
        with pytest.raises(KeyError):
            state.reset_pair(pair)
    assert state.usable_pairs() == [("a", "b")]


def test_estimate_is_a_snapshot():
    """An estimate taken before record_probe is unchanged after it."""
    state = OverlayState(["a", "b"])
    pair = ("a", "b")
    state.record_probe(pair, 40.0)
    before = state.estimate(pair)
    state.record_probe(pair, 80.0)
    state.record_probe(pair, math.nan)
    assert (before.rtt_ms, before.loss, before.samples) == (40.0, 0.0, 1)
    after = state.estimate(pair)
    assert after.samples == 3 and after.rtt_ms > 40.0 and after.loss > 0.0
    with pytest.raises(AttributeError):
        before.rtt_ms = 1.0


def test_reset_pair_forgets_estimate():
    state = OverlayState(["a", "b", "c"])
    state.record_probe(("a", "b"), 40.0)
    state.reset_pair(("a", "b"))
    state.reset_pair(("b", "c"))  # a member pair never probed
    for pair in (("a", "b"), ("b", "c")):
        est = state.estimate(pair)
        assert math.isnan(est.rtt_ms)
        assert (est.loss, est.samples) == (0.0, 0)
    assert state.usable_pairs() == []
    state.record_probe(("b", "c"), 25.0)
    assert state.estimate(("b", "c")).rtt_ms == 25.0


def _probe_stream(hosts, n=400):
    """A deterministic mixed stream: successes, losses, heavy tails."""
    stream = []
    for k in range(n):
        a = hosts[k % len(hosts)]
        b = hosts[(k * 7 + 3) % len(hosts)]
        if a == b:
            continue
        if k % 11 == 0:
            rtt = math.nan
        elif k % 17 == 0:
            rtt = 5000.0 + k  # heavy tail, past the clip
        else:
            rtt = 20.0 + (k % 37) * 3.25
        stream.append(((a, b), rtt))
    return stream


def _ewma_fold(rtts, alpha, clip_factor):
    """The EWMA definition, folded over one pair's probes in order."""
    rtt, loss = math.nan, 0.0
    for sample in rtts:
        lost = math.isnan(sample)
        loss = (1 - alpha) * loss + alpha * (1.0 if lost else 0.0)
        if lost:
            continue
        if math.isnan(rtt):
            rtt = sample
        else:
            rtt = (1 - alpha) * rtt + alpha * min(sample, clip_factor * rtt)
    return rtt, loss, len(rtts)


def test_probe_stream_equals_scalar_ewma_fold():
    hosts = [f"h{i:02d}" for i in range(12)]
    state = OverlayState(hosts, alpha=0.3, clip_factor=3.0)
    stream = _probe_stream(hosts)
    per_pair = {}
    for pair, rtt in stream:
        state.record_probe(pair, rtt)
        per_pair.setdefault(pair, []).append(rtt)
    assert any(math.isnan(r) for _, r in stream)
    assert any(r > 5000.0 for _, r in stream)
    for a in hosts:
        for b in hosts:
            if a == b:
                continue
            rtt, loss, samples = _ewma_fold(per_pair.get((a, b), []), 0.3, 3.0)
            est = state.estimate((a, b))
            if math.isnan(rtt):
                assert math.isnan(est.rtt_ms)
            else:
                assert est.rtt_ms == rtt  # exact, not approx
            assert est.loss == loss
            assert est.samples == samples
    assert state.usable_pairs() == sorted(
        p for p, rtts in per_pair.items() if not all(map(math.isnan, rtts))
    )


@given(
    alpha=st.floats(min_value=0.05, max_value=1.0),
    rtts=st.lists(st.floats(min_value=1.0, max_value=1000.0), min_size=1, max_size=40),
)
def test_ewma_stays_within_sample_range(alpha, rtts):
    state = OverlayState(["a", "b"], alpha=alpha)
    for r in rtts:
        state.record_probe(("a", "b"), r)
    est = state.estimate(("a", "b"))
    assert min(rtts) - 1e-9 <= est.rtt_ms <= max(rtts) + 1e-9
    assert 0.0 <= est.loss <= 1.0
