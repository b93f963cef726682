"""Overlay measurement state: EWMA path-quality estimates.

An overlay node continuously probes its peers and keeps exponentially
weighted moving averages of RTT and loss per ordered pair.  This is the
online analog of the paper's long-term time averages — deliberately
simple, because the point of the overlay evaluation is to ask how much of
the paper's *oracle* gain survives estimation lag.

Two storage backends share one semantics.  Small overlays keep a dict of
:class:`LinkEstimate` objects (cheap, and the historical layout the
replay gates were recorded against).  At :data:`ARRAY_BACKEND_MIN_HOSTS`
hosts and up the mesh switches to three dense ``(n, n)`` numpy arrays —
an n-host mesh has n·(n-1) ordered pairs, and eagerly allocating a
million Python objects for a 1000-host overlay on a scale-preset
topology would dwarf the topology itself.  The EWMA arithmetic is done
in Python floats either way, so the two backends are bit-identical; the
differential test is ``tests/overlay/test_state_backends.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Pair = tuple[str, str]

#: Host count at which OverlayState switches from the dict backend to
#: dense numpy arrays.  Below this the dict is smaller and faster.
ARRAY_BACKEND_MIN_HOSTS = 64


@dataclass(frozen=True, slots=True)
class LinkEstimate:
    """EWMA estimates for one ordered overlay link (an immutable snapshot).

    Attributes:
        rtt_ms: Smoothed round-trip time; NaN until the first success.
        loss: Smoothed loss indicator in [0, 1].
        samples: Number of probe results folded in.
    """

    rtt_ms: float = math.nan
    loss: float = 0.0
    samples: int = 0

    @property
    def usable(self) -> bool:
        """Whether the link has at least one successful RTT sample."""
        return not math.isnan(self.rtt_ms)


class OverlayState:
    """Per-pair EWMA estimates for a full overlay mesh."""

    def __init__(
        self,
        hosts: list[str],
        *,
        alpha: float = 0.3,
        clip_factor: float | None = 3.0,
    ) -> None:
        """
        Args:
            hosts: Overlay membership.
            alpha: EWMA weight of the newest sample, in (0, 1].
            clip_factor: Robustness clip — an RTT sample larger than
                ``clip_factor`` times the current estimate is clipped to
                that bound before the update, so single heavy-tail probes
                (route flaps, router stalls) cannot whipsaw route
                selection.  None disables clipping.
        """
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if clip_factor is not None and clip_factor <= 1.0:
            raise ValueError(f"clip_factor must exceed 1, got {clip_factor}")
        if len(hosts) < 2:
            raise ValueError("an overlay needs at least two hosts")
        self.hosts = list(hosts)
        self.alpha = alpha
        self.clip_factor = clip_factor
        self._array_backend = len(self.hosts) >= ARRAY_BACKEND_MIN_HOSTS
        if self._array_backend:
            self._idx = {h: i for i, h in enumerate(self.hosts)}
            n = len(self.hosts)
            self._rtt = np.full((n, n), np.nan, dtype=np.float64)
            self._loss = np.zeros((n, n), dtype=np.float64)
            self._samples = np.zeros((n, n), dtype=np.int64)
            self._links = {}
        else:
            self._links: dict[Pair, LinkEstimate] = {
                (a, b): LinkEstimate()
                for a in hosts
                for b in hosts
                if a != b
            }

    def _pair_index(self, pair: Pair) -> tuple[int, int]:
        """Array coordinates for an ordered pair (KeyError like the dict)."""
        a, b = pair
        i = self._idx.get(a)
        j = self._idx.get(b)
        if i is None or j is None or i == j:
            raise KeyError(pair)
        return i, j

    def record_probe(self, pair: Pair, rtt_ms: float) -> None:
        """Fold one probe result in; ``rtt_ms`` is NaN for a lost probe.

        Both backends run the identical Python-float arithmetic; the
        arrays are storage only, so results are bit-for-bit equal.
        """
        lost = math.isnan(rtt_ms)
        a = self.alpha
        if self._array_backend:
            i, j = self._pair_index(pair)
            cur_rtt = float(self._rtt[i, j])
            self._loss[i, j] = (1 - a) * float(self._loss[i, j]) + a * (
                1.0 if lost else 0.0
            )
            if not lost:
                if math.isnan(cur_rtt):
                    self._rtt[i, j] = rtt_ms
                else:
                    sample = rtt_ms
                    if self.clip_factor is not None:
                        sample = min(sample, self.clip_factor * cur_rtt)
                    self._rtt[i, j] = (1 - a) * cur_rtt + a * sample
            self._samples[i, j] += 1
            return
        est = self._links[pair]
        rtt = est.rtt_ms
        if not lost:
            if est.usable:
                sample = rtt_ms
                if self.clip_factor is not None:
                    sample = min(sample, self.clip_factor * rtt)
                rtt = (1 - a) * rtt + a * sample
            else:
                rtt = rtt_ms
        self._links[pair] = LinkEstimate(
            rtt_ms=rtt,
            loss=(1 - a) * est.loss + a * (1.0 if lost else 0.0),
            samples=est.samples + 1,
        )

    def reset_pair(self, pair: Pair) -> None:
        """Forget a pair's estimate (fresh :class:`LinkEstimate`).

        Used when the underlying path changes identity — e.g. a detour
        leg heals after an outage — so estimates taken on the old path
        cannot poison selection on the new one.

        Raises:
            KeyError: if the pair is not in the overlay.
        """
        if self._array_backend:
            i, j = self._pair_index(pair)
            self._rtt[i, j] = np.nan
            self._loss[i, j] = 0.0
            self._samples[i, j] = 0
            return
        if pair not in self._links:
            raise KeyError(pair)
        self._links[pair] = LinkEstimate()

    def estimate(self, pair: Pair) -> LinkEstimate:
        """Current estimate for an ordered pair.

        Raises:
            KeyError: if the pair is not in the overlay.
        """
        if self._array_backend:
            i, j = self._pair_index(pair)
            return LinkEstimate(
                rtt_ms=float(self._rtt[i, j]),
                loss=float(self._loss[i, j]),
                samples=int(self._samples[i, j]),
            )
        return self._links[pair]

    def usable_pairs(self) -> list[Pair]:
        """Ordered pairs with at least one successful RTT sample."""
        if self._array_backend:
            ii, jj = np.nonzero(~np.isnan(self._rtt))
            return sorted(
                (self.hosts[int(i)], self.hosts[int(j)])
                for i, j in zip(ii, jj)
            )
        return sorted(p for p, e in self._links.items() if e.usable)
