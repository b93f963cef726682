"""Route dynamics: flaps between primary and secondary paths.

Paxson (cited in §2) found Internet paths "generally dominated by a
single route", with a minority of pairs experiencing route fluctuation;
Labovitz et al. tie instability periods to load.  This module adds that
behaviour to the substrate:

* a **secondary path** per ordered pair, resolved by forcing the first
  multi-exchange AS hop onto its second-choice egress (what a BGP-level
  flap at the primary exchange would produce; see
  :meth:`~repro.routing.forwarding.PathResolver.resolve_round_trip_secondary`);
* a :class:`RouteFlapModel` that deterministically decides, per pair and
  time, whether the primary or secondary route is in effect — flap
  episodes arrive per-pair as a renewal process derived from counter-based
  hashing, so any query order gives identical answers.

The probe-level consumer of these decisions,
:class:`~repro.netsim.dynamics.DynamicPathSampler`, lives one layer up
in netsim: routing decides which routes exist and when they flap, the
simulator decides what probes experience on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


#: Length of a flap-evaluation window.  Within one window a pair's active
#: route is fixed; flap episodes are multiples of this granularity.
FLAP_WINDOW_S = 900.0


@dataclass(frozen=True, slots=True)
class RouteFlapModel:
    """Deterministic per-pair route-flap process.

    Attributes:
        flappy_fraction: Fraction of pairs that experience flaps at all
            (Paxson: most paths are stable; a minority fluctuate).
        flap_probability: Per-window probability that a flappy pair sits
            on its secondary route.
        seed: Hash seed (reproducibility).

    Flappiness is a pure function of (seed, pair), so each pair's answer
    is hashed once and remembered: every sampler sharing the model (a
    scenario builds one per topology segment) reads the same answers.
    """

    flappy_fraction: float = 0.2
    flap_probability: float = 0.08
    seed: int = 0
    _flappy: dict[int, bool] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.flappy_fraction <= 1.0:
            raise ValueError("flappy_fraction must be in [0, 1]")
        if not 0.0 <= self.flap_probability <= 1.0:
            raise ValueError("flap_probability must be in [0, 1]")

    @property
    def window_s(self) -> float:
        """Length of this model's flap-evaluation window, seconds.

        Consumers that cache per-window state
        (:class:`~repro.netsim.dynamics.DynamicPathSampler`) read the
        window length from the model rather than assuming
        :data:`FLAP_WINDOW_S`, so wrapper models (scenario flap storms)
        can declare a finer granularity.
        """
        return FLAP_WINDOW_S

    def _hash01(self, *parts: int) -> float:
        rng = np.random.default_rng((self.seed, 0xF1A9, *parts))
        return float(rng.random())

    def is_flappy(self, pair_index: int) -> bool:
        """Whether this pair ever leaves its primary route."""
        flappy = self._flappy.get(pair_index)
        if flappy is None:
            flappy = self._hash01(pair_index) < self.flappy_fraction
            self._flappy[pair_index] = flappy
        return flappy

    def on_secondary(self, pair_index: int, t: float) -> bool:
        """Whether the pair uses its secondary route at time ``t``."""
        if not self.is_flappy(pair_index):
            return False
        window = int(t // FLAP_WINDOW_S)
        return self._hash01(pair_index, window) < self.flap_probability

    def prevalence(self, pair_index: int, horizon_s: float) -> float:
        """Fraction of windows spent on the primary route over a horizon.

        This is Paxson's "route prevalence" statistic for the pair.
        """
        windows = max(int(horizon_s // FLAP_WINDOW_S), 1)
        on_primary = sum(
            0 if self.on_secondary(pair_index, w * FLAP_WINDOW_S) else 1
            for w in range(windows)
        )
        return on_primary / windows
