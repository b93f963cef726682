"""Overlay estimate store and relay router, beneath the Detour service.

The online Detour system the paper's findings motivated lives in
:mod:`repro.service`: :class:`~repro.service.DetourService` probes,
chooses and scores every request against the oracle alternate.  This
package holds two pieces below it:

* :class:`OverlayState` — the per-leg EWMA store that
  :class:`~repro.service.store.PathStore` reads its estimates from;
* :class:`OverlayRouter` — a hysteresis relay router over that store.
  No pipeline calls it; it stays only until the perfbench layer table
  stops wrapping :meth:`OverlayRouter.select`.

Both import only the standard library and each other.
"""

from repro.overlay.router import OverlayRoute, OverlayRouter
from repro.overlay.state import LinkEstimate, OverlayState

__all__ = [
    "LinkEstimate",
    "OverlayRoute",
    "OverlayRouter",
    "OverlayState",
]
