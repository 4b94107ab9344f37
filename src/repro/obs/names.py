"""Canonical metric-name tables for the service's ``GET /metrics``.

The broker's ``/stats`` body names its counters for JSON readers
(``cache_hits_memory``, nested ``cache.l1`` dicts, ...).  This module is
the one translation of those keys into Prometheus family names:
:func:`stats_registry` mirrors a ``/stats`` payload into a registry.  A
parity unit test pins the tables to the broker's live counter dict, so a
counter added on one side without the other fails fast instead of
drifting.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.obs.metrics import MetricsRegistry

# ``Broker.counters`` key -> Prometheus family.  Keys here must exactly
# match the broker's counter dict (asserted by tests/test_obs.py), so a
# counter added to one without the other fails fast instead of drifting.
REQUEST_COUNTERS = {
    "submitted": "repro_requests_submitted_total",
    "completed": "repro_requests_completed_total",
    "failed": "repro_requests_failed_total",
    "rejected": "repro_requests_rejected_total",
    "coalesced": "repro_requests_coalesced_total",
    "cache_hits_memory": "repro_request_cache_hits_l1_total",
    "cache_hits_store": "repro_request_cache_hits_store_total",
    "batches": "repro_batches_total",
    "batched_lanes": "repro_batched_lanes_total",
}

# Non-monotonic request tallies exposed as gauges.
REQUEST_GAUGES = {
    "max_batch_lanes": "repro_max_batch_lanes",
}

# ``LruCache.stats()`` / ``ArtifactStore`` counters, nested under
# ``cache.l1`` / ``cache.store`` in the ``/stats`` body.
L1_CACHE_COUNTERS = {
    "hits": "repro_cache_l1_hits_total",
    "misses": "repro_cache_l1_misses_total",
}
L1_CACHE_GAUGES = {
    "size": "repro_cache_l1_size",
    "maxsize": "repro_cache_l1_maxsize",
}
L1_HIT_RATIO_GAUGE = "repro_cache_l1_hit_ratio"
STORE_CACHE_COUNTERS = {
    "hits": "repro_cache_store_hits_total",
    "misses": "repro_cache_store_misses_total",
}

# ``queue`` sub-dict gauges.
QUEUE_GAUGES = {
    "depth": "repro_queue_depth",
    "limit": "repro_queue_limit",
    "in_flight": "repro_queue_in_flight",
    "held": "repro_queue_held",
    "drain_rate_rps": "repro_drain_rate_rps",
}

UPTIME_GAUGE = "repro_uptime_seconds"
KERNEL_BACKEND_INFO = "repro_kernel_backend_info"

_HELP = {
    "repro_requests_submitted_total": "Requests accepted by the broker",
    "repro_requests_completed_total": "Requests finished successfully",
    "repro_requests_failed_total": "Requests that raised during execution",
    "repro_requests_rejected_total": "Requests rejected by admission control",
    "repro_requests_coalesced_total": "Requests coalesced onto an in-flight twin",
    "repro_request_cache_hits_l1_total": "Requests served from the in-memory L1 result cache",
    "repro_request_cache_hits_store_total": "Requests served from the persistent artifact store",
    "repro_batches_total": "Executed request batches",
    "repro_batched_lanes_total": "Simulation lanes executed via batching",
    "repro_max_batch_lanes": "Largest batch executed so far",
    "repro_cache_l1_hits_total": "L1 result-cache hits",
    "repro_cache_l1_misses_total": "L1 result-cache misses",
    "repro_cache_l1_size": "Entries currently in the L1 result cache",
    "repro_cache_l1_maxsize": "L1 result-cache capacity",
    "repro_cache_l1_hit_ratio": "L1 hits / lookups (0.0 on a fresh server)",
    "repro_cache_store_hits_total": "Artifact-store read hits",
    "repro_cache_store_misses_total": "Artifact-store read misses",
    "repro_queue_depth": "Requests waiting in the broker queue",
    "repro_queue_limit": "Broker queue admission limit",
    "repro_queue_in_flight": "Distinct request keys currently in flight",
    "repro_queue_held": "Held /result and /status calls currently parked",
    "repro_drain_rate_rps": "Estimated queue drain rate (0.0 until history exists)",
    "repro_uptime_seconds": "Seconds since the server started",
    "repro_kernel_backend_info": "Active compiled simulation backend (info gauge, always 1)",
}


def help_for(name: str) -> str:
    return _HELP.get(name, "")


def _as_number(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def stats_registry(stats: Mapping[str, Any]) -> MetricsRegistry:
    """Mirror one broker ``/stats`` payload into a fresh registry."""

    registry = MetricsRegistry()

    def mirror(section: Mapping[str, Any], table, kind) -> None:
        for key, family in table.items():
            value = _as_number(section.get(key))
            if value is not None:
                kind(family, help_for(family)).set(value)

    requests = stats.get("requests") or {}
    mirror(requests, REQUEST_COUNTERS, registry.counter)
    mirror(requests, REQUEST_GAUGES, registry.gauge)
    cache = stats.get("cache") or {}
    l1 = cache.get("l1") or {}
    mirror(l1, L1_CACHE_COUNTERS, registry.counter)
    mirror(l1, L1_CACHE_GAUGES, registry.gauge)
    hits = _as_number(l1.get("hits")) or 0.0
    lookups = hits + (_as_number(l1.get("misses")) or 0.0)
    registry.gauge(L1_HIT_RATIO_GAUGE, help_for(L1_HIT_RATIO_GAUGE)).set(
        round(hits / lookups, 6) if lookups else 0.0
    )
    mirror(cache.get("store") or {}, STORE_CACHE_COUNTERS, registry.counter)
    mirror(stats.get("queue") or {}, QUEUE_GAUGES, registry.gauge)
    uptime = _as_number(stats.get("uptime_seconds"))
    if uptime is not None:
        registry.gauge(UPTIME_GAUGE, help_for(UPTIME_GAUGE)).set(uptime)
    backend = stats.get("kernel_backend")
    if isinstance(backend, str) and backend:
        registry.gauge(KERNEL_BACKEND_INFO, help_for(KERNEL_BACKEND_INFO)).set(
            1, backend=backend
        )
    return registry
