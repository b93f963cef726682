"""Overlay measurement state: EWMA path-quality estimates.

An overlay node continuously probes its peers and keeps exponentially
weighted moving averages of RTT and loss per ordered pair.  This is the
online analog of the paper's long-term time averages — deliberately
simple, because its reader, the Detour service's
:class:`~repro.service.store.PathStore`, exists to ask how much of the
paper's *oracle* gain survives estimation lag.

The store is one dict holding only the pairs that were probed.  An
n-host mesh has n·(n-1) ordered pairs, and most are never probed on a
large overlay, so nothing is allocated up front; a member pair with no
entry reads as one shared, fresh :class:`LinkEstimate`.  A read that
hits is a single ``dict.get``, which matters because route selection
reads estimates on every request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Pair = tuple[str, str]


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


#: The estimate of every member pair that has not been probed yet.
_UNPROBED = LinkEstimate()


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
        self._members = frozenset(self.hosts)
        self._links: dict[Pair, LinkEstimate] = {}

    def _check_member(self, pair: Pair) -> None:
        """Raise KeyError unless ``pair`` joins two distinct members."""
        a, b = pair
        if a == b or a not in self._members or b not in self._members:
            raise KeyError(pair)

    def record_probe(self, pair: Pair, rtt_ms: float) -> None:
        """Fold one probe result in; ``rtt_ms`` is NaN for a lost probe.

        Raises:
            KeyError: if the pair is not in the overlay.
        """
        est = self._links.get(pair)
        if est is None:
            self._check_member(pair)
            est = _UNPROBED
        lost = math.isnan(rtt_ms)
        a = self.alpha
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
        """Forget a pair's estimate (it reads as never probed again).

        Used when the underlying path changes identity — e.g. a detour
        leg heals after an outage — so estimates taken on the old path
        cannot poison selection on the new one.

        Raises:
            KeyError: if the pair is not in the overlay.
        """
        self._check_member(pair)
        self._links.pop(pair, None)

    def estimate(self, pair: Pair) -> LinkEstimate:
        """Current estimate for an ordered pair.

        Raises:
            KeyError: if the pair is not in the overlay.
        """
        est = self._links.get(pair)
        if est is None:
            self._check_member(pair)
            return _UNPROBED
        return est

    def usable_pairs(self) -> list[Pair]:
        """Ordered pairs with at least one successful RTT sample."""
        return sorted(p for p, e in self._links.items() if e.usable)
