"""Observability: request tracing, unified metrics, profiling hooks.

Three pillars, wired through every layer of the stack:

* :mod:`repro.obs.trace` — contextvars-scoped ``Trace``/``Span`` records
  with hash-derived span ids, a bounded in-memory ring and an optional
  JSONL sink next to the artifact store.  Trace ids propagate client →
  server → broker → pipeline stage → solver/search via the
  ``x-repro-trace`` request field and the optional ``trace_id``/``span_id``
  fields of :class:`~repro.pipeline.events.PipelineEvent`; they never enter
  cache keys or stored payloads, so bit-identity guarantees hold.
* :mod:`repro.obs.metrics` — a stdlib-only :class:`MetricsRegistry`
  (counters, gauges, fixed-bucket histograms) rendered as Prometheus text
  on ``GET /metrics``.
* :mod:`repro.obs.names` — the one canonical table mapping ``/stats``
  counter keys to metric names (the fix for counter-name drift).
* :mod:`repro.obs.profile` — self-time tables and Chrome-trace-format
  exports of recorded span trees (``repro trace show`` / ``--profile``).
"""

from repro.obs.metrics import MetricsRegistry, global_registry, render_metrics
from repro.obs.trace import (
    Span,
    TRACE_FIELD,
    current_context,
    current_span_id,
    current_trace_id,
    maybe_trace,
    new_trace_id,
    ring_spans,
    span,
    start_trace,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "TRACE_FIELD",
    "current_context",
    "current_span_id",
    "current_trace_id",
    "global_registry",
    "maybe_trace",
    "new_trace_id",
    "render_metrics",
    "ring_spans",
    "span",
    "start_trace",
]
