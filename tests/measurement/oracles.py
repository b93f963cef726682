"""Scalar reference answers for the batched measurement kernels.

The campaign collector, the path samplers and the TCP simulator draw
whole campaigns in vectorized passes.  These are the scalar forms they
replaced: one probe or one transfer at a time, each consuming the same
fixed block of uniform draws from the generator.  A loop of these calls
therefore walks the identical random stream as one batched call, and
``test_batched_equivalence.py`` requires the batched outputs to equal
them exactly.

* :func:`probe_pair` is one probe on a ``SamplerView``
  (``SamplerView.probe_block`` and ``probe_batch`` are its batched forms).
* :func:`measure` is one transfer on a ``TCPTransferSimulator``
  (``measure_block`` is its batched form).
* :func:`run_traceroutes_scalar` and :func:`run_transfers_scalar` are
  ``Campaign.run_traceroutes`` and ``Campaign.run_transfers`` walked one
  request at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.measurement.records import (
    CollectionStats,
    PROBES_PER_TRACEROUTE,
    TransferRecord,
)
from repro.netsim.conditions import DRAWS_PER_PROBE, _sample_probe_rtts


def probe_pair(view, index, rng):
    """One probe along path ``index`` of ``view``; RTT in ms or NaN if lost.

    Consumes exactly ``DRAWS_PER_PROBE`` uniforms.
    """
    u = rng.random(DRAWS_PER_PROBE).reshape(1, DRAWS_PER_PROBE)
    rtt = _sample_probe_rtts(
        view.prop[index : index + 1],
        view.qsum[index : index + 1],
        view.ploss[index : index + 1],
        u,
    )
    return float(rtt[0])


@dataclass(frozen=True, slots=True)
class TransferResult:
    """Outcome of one simulated TCP transfer."""

    rtt_ms: float
    loss_rate: float
    bandwidth_kbps: float


def measure(sim, view, index, rng):
    """One transfer along path ``index`` of ``sim`` in bucket ``view``.

    Runs ``measure_block`` on one-element slices, so it consumes
    ``DRAWS_PER_TRANSFER`` uniforms like one row of a batched call.
    """
    rtt, loss, bw = sim.measure_block(
        view.prop[index : index + 1],
        view.qsum[index : index + 1],
        view.ploss[index : index + 1],
        np.array([index], dtype=np.int64),
        rng,
    )
    return TransferResult(
        rtt_ms=float(rtt[0]),
        loss_rate=float(loss[0]),
        bandwidth_kbps=float(bw[0]),
    )


def run_traceroutes_scalar(campaign, requests):
    """Per-probe form of ``campaign.run_traceroutes(requests)``.

    Draws the same protocol one value at a time: one control uniform per
    request up front, then one fixed draw block per probe.
    """
    stats = CollectionStats()
    rng = campaign._rng
    ordered, idx = campaign._prepare(requests)
    stats.requested = len(ordered)
    control = [rng.random() for _ in ordered]
    exec_requests = []
    rows = []
    for req, i, roll in zip(ordered, idx, control):
        if roll < campaign._control_failure_prob:
            stats.control_failures += 1
            continue
        if int(i) in campaign._blocked:
            stats.blacked_out += 1
            continue
        if int(i) in campaign._unreachable:
            stats.unreachable += 1
            rows.append([float("nan")] * PROBES_PER_TRACEROUTE)
            exec_requests.append(req)
            continue
        view = campaign._sampler.bucket_view(req.t)
        rows.append(
            [probe_pair(view, int(i), rng) for _ in range(PROBES_PER_TRACEROUTE)]
        )
        exec_requests.append(req)
        stats.completed += 1
    samples = np.array(rows, dtype=np.float64).reshape(
        len(exec_requests), PROBES_PER_TRACEROUTE
    )
    stats.rate_limited_probes = campaign._apply_rate_limits(
        exec_requests, samples
    )
    return campaign._traceroute_records(exec_requests, samples), stats


def run_transfers_scalar(campaign, requests):
    """Per-transfer form of ``campaign.run_transfers(requests)``."""
    stats = CollectionStats()
    rng = campaign._rng
    ordered, idx = campaign._prepare(requests)
    stats.requested = len(ordered)
    control = [rng.random() for _ in ordered]
    records = []
    for req, i, roll in zip(ordered, idx, control):
        if roll < campaign._control_failure_prob:
            stats.control_failures += 1
            continue
        if int(i) in campaign._blocked:
            stats.blacked_out += 1
            continue
        if int(i) in campaign._unreachable:
            stats.unreachable += 1
            continue
        view = campaign._sampler.bucket_view(req.t)
        result = measure(campaign._tcp, view, int(i), rng)
        records.append(
            TransferRecord(
                t=req.t,
                src=req.src,
                dst=req.dst,
                rtt_ms=result.rtt_ms,
                loss_rate=result.loss_rate,
                bandwidth_kbps=result.bandwidth_kbps,
            )
        )
        stats.completed += 1
    return records, stats
