"""Reference answers for the probe-driven gather.

``BucketProbeMixin.gather_bucket_state`` evaluates per-link state for all
of a batch's buckets in one 2-D pass and sums it over only the
(bucket, path) pairs the batch probes.  These are the forms it replaced:
per-link state computed one time at a time with 1-D arrays, a full view
of every path per distinct bucket (one ``reduceat`` over all paths), and
each probe read from its bucket's view.  ``test_gather_equivalence.py``
requires the fast path to equal them bit for bit.

* :func:`link_state` is one time's per-link (utilization, queue delay,
  loss probability).
* :func:`full_view` is every path's (prop, qsum, ploss) at one time,
  for a ``PathSampler`` or a ``DynamicPathSampler``.
* :func:`gather_by_views` is the gather: one :func:`full_view` per
  distinct bucket, at mid-bucket, then indexed per probe.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.conditions import (
    BUCKET_SECONDS,
    MAX_UTILIZATION,
    MIN_UTILIZATION,
    NetworkConditions,
    PathSampler,
)
from repro.netsim.congestion import (
    loss_probability_array,
    mean_queue_delay_ms_array,
)
from repro.netsim.diurnal import load_multiplier_array
from repro.netsim.dynamics import DynamicPathSampler


def link_state(
    cond: NetworkConditions, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-link (utilization, queue delay, loss probability) at time ``t``."""
    util_noise, queue_factor = cond._bucket_noise(int(t // BUCKET_SECONDS))
    mult = load_multiplier_array(t, cond.utc_offsets)
    util = np.clip(
        cond.base_utilization * mult * util_noise,
        MIN_UTILIZATION,
        MAX_UTILIZATION,
    )
    queue = mean_queue_delay_ms_array(util, cond.queue_scale_ms) * queue_factor
    congestion = loss_probability_array(util)
    loss = 1.0 - (1.0 - congestion) * (1.0 - cond.chronic_loss)
    return util, queue, loss


def _path_view(
    sampler: PathSampler, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    flat = np.array(
        [l for rt in sampler.paths for l in rt.link_ids], dtype=np.int64
    )
    lens = [len(rt.link_ids) for rt in sampler.paths]
    starts = np.cumsum(lens) - lens
    _, queue, loss = link_state(sampler._cond, t)
    qsum = np.add.reduceat(queue[flat], starts)
    ploss = 1.0 - np.exp(np.add.reduceat(np.log1p(-loss)[flat], starts))
    prop = np.array([rt.rtt_prop_ms for rt in sampler.paths])
    return prop, qsum, ploss


def full_view(
    sampler: PathSampler | DynamicPathSampler, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every path's (prop, qsum, ploss) at time ``t``.

    A dynamic sampler blends its primary and secondary views by asking
    the flap model about each pair at ``t``.
    """
    if isinstance(sampler, PathSampler):
        return _path_view(sampler, t)
    primary = _path_view(sampler._primary, t)
    secondary = _path_view(sampler._secondary, t)
    mask = np.array(
        [sampler.flap_model.on_secondary(i, t) for i in range(len(sampler))],
        dtype=bool,
    )
    return tuple(  # type: ignore[return-value]
        np.where(mask, s, p) for p, s in zip(primary, secondary)
    )


def gather_by_views(
    sampler: PathSampler | DynamicPathSampler,
    ts: np.ndarray,
    indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-probe (prop, qsum, ploss): one full view per distinct bucket."""
    ts = np.asarray(ts, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    prop = np.empty(len(ts))
    qsum = np.empty(len(ts))
    ploss = np.empty(len(ts))
    buckets = (ts // BUCKET_SECONDS).astype(np.int64)
    for bucket in np.unique(buckets):
        sel = buckets == bucket
        view = full_view(sampler, (int(bucket) + 0.5) * BUCKET_SECONDS)
        pidx = idx[sel]
        prop[sel] = view[0][pidx]
        qsum[sel] = view[1][pidx]
        ploss[sel] = view[2][pidx]
    return prop, qsum, ploss
