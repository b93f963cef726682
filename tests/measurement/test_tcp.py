"""Tests for the Mathis model and TCP transfer simulation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.measurement.tcp import (
    MATHIS_C,
    TCPTransferSimulator,
    bottleneck_capacity_kbps,
    mathis_bandwidth_kbps,
    mathis_bandwidth_kbps_array,
)
from repro.netsim import PathSampler
from tests.measurement.oracles import measure


def test_mathis_known_value():
    # MSS 1460 B, RTT 100 ms, p = 1%: 1460/0.1 * 1.2247/0.1 = ~178.8 kB/s.
    bw = mathis_bandwidth_kbps(100.0, 0.01)
    expected = (1460 / 0.1) * (MATHIS_C / 0.1) / 1000.0
    assert bw == pytest.approx(expected)


def test_mathis_input_validation():
    with pytest.raises(ValueError):
        mathis_bandwidth_kbps(0.0, 0.01)
    with pytest.raises(ValueError):
        mathis_bandwidth_kbps(100.0, 0.0)


@given(
    rtt=st.floats(min_value=1.0, max_value=2000.0),
    p=st.floats(min_value=1e-4, max_value=0.5),
)
def test_mathis_monotonicity(rtt, p):
    base = mathis_bandwidth_kbps(rtt, p)
    assert mathis_bandwidth_kbps(rtt * 2, p) == pytest.approx(base / 2)
    assert mathis_bandwidth_kbps(rtt, p * 4) == pytest.approx(base / 2)


def test_mathis_array_matches_scalar():
    rtts = np.array([50.0, 100.0, 400.0])
    losses = np.array([0.01, 0.02, 0.05])
    np.testing.assert_allclose(
        mathis_bandwidth_kbps_array(rtts, losses),
        [mathis_bandwidth_kbps(r, p) for r, p in zip(rtts, losses)],
    )


@pytest.fixture(scope="module")
def paths(topo1999, resolver):
    names = topo1999.host_names()[:5]
    return [
        resolver.resolve_round_trip(a, b)
        for a, b in itertools.permutations(names, 2)
    ]


def test_bottleneck_capacity(topo1999, paths):
    for rt in paths[:5]:
        cap = bottleneck_capacity_kbps(topo1999, rt)
        link_caps = [topo1999.links[l].capacity_mbps for l in rt.link_ids]
        assert cap == pytest.approx(min(link_caps) * 1000.0 / 8.0)


def test_transfer_results_consistent(topo1999, conditions, paths, rng):
    sim = TCPTransferSimulator(topo1999, paths)
    sampler = PathSampler(conditions, paths)
    view = sampler.view(86400.0)
    for index in range(len(paths)):
        result = measure(sim, view, index, rng)
        assert result.rtt_ms > 0
        assert 0.0 < result.loss_rate < 1.0
        assert result.bandwidth_kbps > 0
        # Achieved rate never exceeds the bottleneck.
        assert result.bandwidth_kbps <= bottleneck_capacity_kbps(
            topo1999, paths[index]
        ) * 1.1


def test_transfer_bandwidth_below_steady_state_mathis(
    topo1999, conditions, paths, rng
):
    """Short transfers cannot beat the steady-state model at the same
    observed rtt/loss (slow-start penalty plus caps)."""
    sim = TCPTransferSimulator(topo1999, paths)
    sampler = PathSampler(conditions, paths)
    view = sampler.view(86400.0)
    for index in range(len(paths)):
        result = measure(sim, view, index, rng)
        ceiling = mathis_bandwidth_kbps(result.rtt_ms, result.loss_rate)
        assert result.bandwidth_kbps <= ceiling * 1.1
