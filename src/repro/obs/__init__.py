"""repro.obs: zero-dependency run-wide tracing + metrics.

The observability layer has two halves threaded through the pipeline's
hot path (topology generation, IGP/BGP convergence, dataset builds and
the fault supervisor, alternate-path search, the online Detour service,
and ``reproduce``):

* **spans** — hierarchical timed operations
  (:mod:`repro.obs.tracer`), started with ``obs.span("name")``;
* **metrics** — counters/gauges/histograms
  (:mod:`repro.obs.metrics`), bumped with ``obs.count("name")``.

Both are **no-ops when disabled** (:mod:`repro.obs.runtime`): the span
helper returns a shared singleton and allocates nothing, so untraced
runs pay nothing and stay byte-identical to traced ones.  A run's
capture freezes into a :class:`~repro.obs.artifact.RunTrace` JSON
artifact (plus a ``metrics.json`` sidecar) written by
``repro suite --trace out.json`` and inspected with ``repro trace`` —
see docs/OBSERVABILITY.md for the span taxonomy and artifact schema.
"""

from repro.obs import clock, runtime
from repro.obs.artifact import RunTrace, TraceError, write_run_trace
from repro.obs.metrics import Metrics
from repro.obs.runtime import (
    Capture,
    activate,
    capture,
    count,
    enabled,
    gauge,
    graft,
    observe,
    span,
)
from repro.obs.schema import METRICS_SCHEMA, TRACE_SCHEMA, validate
from repro.obs.tracer import Span, Tracer, span_fingerprint
from repro.obs.viewer import render_trace

__all__ = [
    "Capture",
    "METRICS_SCHEMA",
    "Metrics",
    "RunTrace",
    "Span",
    "TRACE_SCHEMA",
    "TraceError",
    "Tracer",
    "activate",
    "capture",
    "clock",
    "count",
    "enabled",
    "gauge",
    "graft",
    "observe",
    "render_trace",
    "runtime",
    "span",
    "span_fingerprint",
    "validate",
    "write_run_trace",
]
