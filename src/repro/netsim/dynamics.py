"""Probe sampling over flapping routes.

:class:`DynamicPathSampler` is the netsim-side half of route dynamics:
it has the same probing interface as
:class:`~repro.netsim.conditions.PathSampler` but owns two underlying
samplers (primary and secondary round trips, index-aligned) and consults
a :class:`~repro.routing.dynamics.RouteFlapModel` per (pair, time) to
decide which route each probe sees.

It lives here rather than next to the flap model because it is a
sampler: routing decides *which* paths exist and when they flap, netsim
decides *what a probe experiences* on them.  (Historically it sat in
``repro.routing.dynamics``, which made routing import netsim — an upward
edge the ARCH rules now reject.)
"""

from __future__ import annotations

import numpy as np

from repro.netsim.conditions import (
    BUCKET_SECONDS,
    BucketProbeMixin,
    NetworkConditions,
    PathSampler,
    SamplerView,
)
from repro.routing.dynamics import FLAP_WINDOW_S, RouteFlapModel
from repro.routing.forwarding import RoundTripPath


class DynamicPathSampler(BucketProbeMixin):
    """Samples probes over flapping routes.

    Drop-in replacement for :class:`PathSampler` in the collector: it owns
    two underlying samplers (primary and secondary paths, index-aligned)
    and consults the flap model per (pair, time).  The flap decisions are
    pure functions of (pair, window), so the per-window secondary masks
    and the flappy-pair set are computed once and cached.  A probe batch
    reads each probed pair's active route in its bucket's window and asks
    the primary or the secondary sampler for just those pairs; a full
    blended view is built only by :meth:`bucket_view`.

    Correctness requires the flap window to be a whole multiple of the
    congestion bucket — otherwise a bucket straddles a route change and
    probes silently sample the wrong route.  The window length is read
    from the model's ``window_s`` attribute (default
    :data:`FLAP_WINDOW_S`) and validated at construction; a scenario
    whose ``for=`` durations imply a misaligned window is rejected here
    with a clear error instead of mis-bucketing.
    """

    def __init__(
        self,
        conditions: NetworkConditions,
        primaries: list[RoundTripPath],
        secondaries: list[RoundTripPath],
        flap_model: RouteFlapModel,
    ) -> None:
        if len(primaries) != len(secondaries):
            raise ValueError("primary/secondary path lists must align")
        window_s = float(getattr(flap_model, "window_s", FLAP_WINDOW_S))
        if window_s <= 0 or window_s % BUCKET_SECONDS != 0.0:
            raise ValueError(
                f"flap window ({window_s:g} s) must be a positive whole "
                f"multiple of the congestion bucket ({BUCKET_SECONDS:g} s); "
                "a bucket must never straddle a route change"
            )
        self._window_s = window_s
        self._cond = conditions
        self._primary = PathSampler(conditions, primaries)
        self._secondary = PathSampler(conditions, secondaries)
        self._bucket_bytes = (
            self._primary._bucket_bytes + self._secondary._bucket_bytes
        )
        self.flap_model = flap_model
        self._flappy: np.ndarray | None = None
        self._mask_cache: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._primary)

    def _active_mask(self, t: float) -> np.ndarray:
        window = int(t // self._window_s)
        mask = self._mask_cache.get(window)
        if mask is None:
            if self._flappy is None:
                self._flappy = np.fromiter(
                    (self.flap_model.is_flappy(i) for i in range(len(self))),
                    dtype=bool,
                    count=len(self),
                )
            if len(self._mask_cache) > 256:
                self._mask_cache.clear()
            mask = np.zeros(len(self), dtype=bool)
            window_t = window * self._window_s
            for i in np.flatnonzero(self._flappy):
                mask[i] = self.flap_model.on_secondary(int(i), window_t)
            self._mask_cache[window] = mask
        return mask

    # hotpath
    def _pair_state(
        self, mids: np.ndarray, rows: np.ndarray, paths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each pair's mid-bucket state on the route active in its window.

        The per-link rows are computed once and summed by whichever
        sampler holds each pair's active route.
        """
        state = self._cond.state_rows(mids)
        masks = np.stack([self._active_mask(t) for t in mids.tolist()])
        sec = masks[rows, paths]
        pri = ~sec
        prop = np.empty(len(paths))
        qsum = np.empty(len(paths))
        ploss = np.empty(len(paths))
        prop[pri], qsum[pri], ploss[pri] = self._primary._pair_sums(
            state, rows[pri], paths[pri]
        )
        prop[sec], qsum[sec], ploss[sec] = self._secondary._pair_sums(
            state, rows[sec], paths[sec]
        )
        return prop, qsum, ploss

    def prop_delays(self) -> np.ndarray:
        """Primary-route propagation delays (static reference)."""
        return self._primary.prop_delays()

    def view(self, t: float) -> SamplerView:
        """Blended congestion view: per pair, the active route's state."""
        pv = self._primary.view(t)
        sv = self._secondary.view(t)
        mask = self._active_mask(t)
        return SamplerView(
            t=t,
            prop=np.where(mask, sv.prop, pv.prop),
            qsum=np.where(mask, sv.qsum, pv.qsum),
            ploss=np.where(mask, sv.ploss, pv.ploss),
        )
