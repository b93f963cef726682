"""Differential test: OverlayState's dict and array backends are
bit-identical.

The array backend exists so Internet-scale overlays don't allocate
n·(n-1) Python objects up front; it must be observationally equivalent
to the historical dict backend, down to the last float bit (the serve
replay gates hash records derived from these estimates).
"""

import math

import pytest

import repro.overlay.state as state_mod
from repro.overlay.state import ARRAY_BACKEND_MIN_HOSTS, OverlayState


def _hosts(n):
    return [f"h{i:03d}" for i in range(n)]


def _backends(monkeypatch, n_hosts):
    """One state per backend over the same membership."""
    hosts = _hosts(n_hosts)
    monkeypatch.setattr(state_mod, "ARRAY_BACKEND_MIN_HOSTS", 10**9)
    dict_state = OverlayState(hosts)
    assert not dict_state._array_backend
    monkeypatch.setattr(state_mod, "ARRAY_BACKEND_MIN_HOSTS", 2)
    array_state = OverlayState(hosts)
    assert array_state._array_backend
    return hosts, dict_state, array_state


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
            rtt = 5000.0 + k  # heavy tail, exercises the clip
        else:
            rtt = 20.0 + (k % 37) * 3.25
        stream.append(((a, b), rtt))
    return stream


def test_backends_are_bit_identical(monkeypatch):
    hosts, dict_state, array_state = _backends(monkeypatch, 12)
    for pair, rtt in _probe_stream(hosts):
        dict_state.record_probe(pair, rtt)
        array_state.record_probe(pair, rtt)
    assert dict_state.usable_pairs() == array_state.usable_pairs()
    for a in hosts:
        for b in hosts:
            if a == b:
                continue
            d = dict_state.estimate((a, b))
            v = array_state.estimate((a, b))
            if math.isnan(d.rtt_ms):
                assert math.isnan(v.rtt_ms)
            else:
                assert d.rtt_ms == v.rtt_ms  # exact, not approx
            assert d.loss == v.loss
            assert d.samples == v.samples
            assert d.usable == v.usable


def test_backends_agree_after_reset(monkeypatch):
    hosts, dict_state, array_state = _backends(monkeypatch, 6)
    for pair, rtt in _probe_stream(hosts, n=60):
        dict_state.record_probe(pair, rtt)
        array_state.record_probe(pair, rtt)
    target = (hosts[0], hosts[1])
    dict_state.reset_pair(target)
    array_state.reset_pair(target)
    d = dict_state.estimate(target)
    v = array_state.estimate(target)
    assert math.isnan(d.rtt_ms) and math.isnan(v.rtt_ms)
    assert d.loss == v.loss == 0.0
    assert d.samples == v.samples == 0
    assert dict_state.usable_pairs() == array_state.usable_pairs()


def test_estimate_is_a_snapshot(monkeypatch):
    """An estimate taken before record_probe is unchanged after it, on
    both backends (the dict backend used to hand out its live object)."""
    hosts, dict_state, array_state = _backends(monkeypatch, 4)
    pair = (hosts[0], hosts[1])
    for state in (dict_state, array_state):
        state.record_probe(pair, 40.0)
        before = state.estimate(pair)
        state.record_probe(pair, 80.0)
        state.record_probe(pair, math.nan)
        assert (before.rtt_ms, before.loss, before.samples) == (40.0, 0.0, 1)
        after = state.estimate(pair)
        assert after.samples == 3 and after.rtt_ms > 40.0 and after.loss > 0.0
        with pytest.raises(AttributeError):
            before.rtt_ms = 1.0


def test_array_backend_keyerrors_match_dict(monkeypatch):
    hosts, dict_state, array_state = _backends(monkeypatch, 4)
    for state in (dict_state, array_state):
        with pytest.raises(KeyError):
            state.estimate(("h000", "nope"))
        with pytest.raises(KeyError):
            state.estimate(("h000", "h000"))
        with pytest.raises(KeyError):
            state.reset_pair(("nope", "h001"))
        with pytest.raises(KeyError):
            state.record_probe(("h000", "h000"), 10.0)


def test_threshold_selects_backend():
    assert not OverlayState(_hosts(ARRAY_BACKEND_MIN_HOSTS - 1))._array_backend
    assert OverlayState(_hosts(ARRAY_BACKEND_MIN_HOSTS))._array_backend
