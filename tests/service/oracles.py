"""Per-request reference answers for the Detour service's candidate table.

The service computes every candidate's expected quality once per
(segment, congestion bucket) in one vectorized pass.  These are the
scalar forms it replaced: one candidate, one request, one transfer row
at a time, each re-reading the segment's bucket view.  The equivalence
tests in ``test_replay_equivalence.py`` require the fast path to equal
them exactly (``==``, not approximately).
"""

from __future__ import annotations

import math

import numpy as np


def _legs(pair, relay):
    return (pair,) if relay is None else ((pair[0], relay), (relay, pair[1]))


def _sampler_index(segment):
    return {leg: i for i, leg in enumerate(segment.probe_legs)}


def expected(segment, pair, relay, t):
    """Expected (rtt, loss) of one candidate in ``t``'s bucket, or None if down."""
    index = _sampler_index(segment)
    legs = _legs(pair, relay)
    if any(leg not in index for leg in legs):
        return None
    view = segment.sampler.bucket_view(t)
    li = [index[leg] for leg in legs]
    rtt = float(np.sum(view.prop[li]) + np.sum(view.qsum[li]))
    loss = 1.0 - float(np.prod(1.0 - view.ploss[li]))
    return rtt, loss


def oracle_scan(segment, candidates, pair, t):
    """(oracle rtt, relay): the first strictly lowest rtt in store order."""
    oracle_rtt = math.nan
    oracle_relay = None
    for cand in candidates[pair]:
        got = expected(segment, pair, cand.relay, t)
        if got is None:
            continue
        if math.isnan(oracle_rtt) or got[0] < oracle_rtt:
            oracle_rtt, oracle_relay = got[0], cand.relay
    return oracle_rtt, oracle_relay


def transfer_keys(segment, candidates):
    """Resolvable (pair, relay) keys in transfer order."""
    keys = [
        (pair, cand.relay)
        for pair, cands in candidates.items()
        for cand in cands
        if all(leg in segment.resolved for leg in cand.legs)
    ]
    return sorted(keys, key=lambda k: (k[0], k[1] is not None, k[1] or ""))


def transfer_rows(segment, candidates, t):
    """Per-row (prop, qsum, ploss) of one transfer round, one row at a time."""
    index = _sampler_index(segment)
    view = segment.sampler.bucket_view(t)
    keys = transfer_keys(segment, candidates)
    prop = np.empty(len(keys))
    qsum = np.empty(len(keys))
    ploss = np.empty(len(keys))
    for row, (pair, relay) in enumerate(keys):
        li = [index[leg] for leg in _legs(pair, relay)]
        prop[row] = float(np.sum(view.prop[li]))
        qsum[row] = float(np.sum(view.qsum[li]))
        ploss[row] = 1.0 - float(np.prod(1.0 - view.ploss[li]))
    return prop, qsum, ploss
