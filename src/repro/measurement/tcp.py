"""TCP bandwidth: the Mathis model and npd-style transfer measurement.

The paper computes alternate-path bandwidth "according to the TCP model of
Mathis et al." — the macroscopic steady-state throughput of TCP congestion
avoidance:

    BW = (MSS / RTT) * C / sqrt(p)

with C ≈ sqrt(3/2).  The same model drives our simulated npd transfers:
each transfer observes a path RTT and an effective loss rate (background
congestion loss plus the transfer's own self-induced loss, since "TCP
exerts and reacts to load"), and achieves the Mathis throughput capped by
the path's bottleneck capacity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import runtime as obs
from repro.routing.forwarding import RoundTripPath
from repro.topology.network import Topology

#: Mathis constant: sqrt(3/2) for periodic loss under delayed ACKs off.
MATHIS_C = math.sqrt(1.5)

#: Default TCP maximum segment size in bytes (Ethernet-era).
DEFAULT_MSS_BYTES = 1460

#: Self-induced loss range for a pipe-filling TCP (drawn per transfer).
SELF_LOSS_RANGE = (0.008, 0.025)

#: RTT (ms) at which a short npd transfer achieves half the steady-state
#: Mathis rate: 100 kB transfers spend much of their life in slow start,
#: and the longer the RTT the smaller the achieved fraction.
SLOW_START_HALF_RTT_MS = 300.0

#: Fraction of bottleneck capacity one flow can realistically claim.
BOTTLENECK_SHARE = 0.8


def mathis_bandwidth_kbps(
    rtt_ms: float,
    loss_rate: float,
    *,
    mss_bytes: int = DEFAULT_MSS_BYTES,
) -> float:
    """Mathis et al. steady-state TCP throughput, in kilobytes per second.

    Args:
        rtt_ms: Round-trip time in milliseconds.
        loss_rate: Packet loss probability in (0, 1].

    Raises:
        ValueError: if ``rtt_ms`` or ``loss_rate`` is not positive.
    """
    if rtt_ms <= 0:
        raise ValueError(f"rtt_ms must be positive, got {rtt_ms}")
    if loss_rate <= 0:
        raise ValueError(f"loss_rate must be positive, got {loss_rate}")
    bytes_per_sec = (mss_bytes / (rtt_ms / 1000.0)) * (MATHIS_C / math.sqrt(loss_rate))
    return bytes_per_sec / 1000.0


# hotpath
def mathis_bandwidth_kbps_array(
    rtt_ms: np.ndarray, loss_rate: np.ndarray, *, mss_bytes: int = DEFAULT_MSS_BYTES
) -> np.ndarray:
    """Vectorized :func:`mathis_bandwidth_kbps` (inputs must be positive)."""
    return (mss_bytes / (rtt_ms / 1000.0)) * (MATHIS_C / np.sqrt(loss_rate)) / 1000.0


def bottleneck_capacity_kbps(topo: Topology, round_trip: RoundTripPath) -> float:
    """Capacity of the slowest link on a round trip, in kilobytes/second."""
    caps = [topo.links[l].capacity_mbps for l in round_trip.link_ids]
    # Mbit/s -> kByte/s.
    return min(caps) * 1000.0 / 8.0


class TCPTransferSimulator:
    """npd-style transfer measurement over a fixed set of paths."""

    def __init__(self, topo: Topology, paths: list[RoundTripPath]) -> None:
        self._bottleneck = np.array(
            [bottleneck_capacity_kbps(topo, rt) for rt in paths]
        )

    #: Uniform draws consumed per transfer, in order: jitter, self-queue
    #: inflation, self-induced loss, rate noise.  Fixed so a batched
    #: ``random((n, 4))`` block consumes the same generator stream as
    #: ``n`` one-row calls.
    DRAWS_PER_TRANSFER = 4

    # hotpath
    def measure_block(
        self,
        prop: np.ndarray,
        qsum: np.ndarray,
        ploss: np.ndarray,
        indices: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measure one transfer per row, vectorized.

        ``prop``/``qsum``/``ploss`` are the per-transfer path state (as
        gathered from each transfer's bucket view) and ``indices`` the
        path index per transfer (for the bottleneck cap).  The observed
        RTT is a probe sample inflated slightly by the transfer's own
        queue occupancy; the observed loss combines the background loss
        probability with self-induced loss.

        Returns:
            (rtt_ms, loss_rate, bandwidth_kbps) arrays aligned with rows.
        """
        with obs.span("measurement.measure_block") as sp:
            sp.set("transfers", len(prop))
            u = rng.random((len(prop), self.DRAWS_PER_TRANSFER))
            jitter = -np.log1p(-u[:, 0]) * (0.35 * qsum + 0.4)
            self_queue = 1.02 + (1.15 - 1.02) * u[:, 1]  # our own packets queue too
            rtt = (prop + qsum) * self_queue + jitter + 0.4
            lo, hi = SELF_LOSS_RANGE
            p_self = lo + (hi - lo) * u[:, 2]
            p_eff = 1.0 - (1.0 - ploss) * (1.0 - p_self)
            bw = mathis_bandwidth_kbps_array(rtt, p_eff)
            bw = np.minimum(bw, BOTTLENECK_SHARE * self._bottleneck[indices])
            # Short transfers never reach steady state: slow start costs a
            # fraction of the achievable rate that grows with RTT.
            bw = bw * (1.0 / (1.0 + rtt / SLOW_START_HALF_RTT_MS))
            # Small measurement noise on the achieved rate.
            bw = bw * (0.92 + (1.08 - 0.92) * u[:, 3])
        return rtt, p_eff, bw
