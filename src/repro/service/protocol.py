"""Request protocol of the optimization service.

A request is a JSON object with a ``kind``:

* ``{"kind": "run", "target": ..., "options": {...}}`` — execute a run
  target (an experiment preset or any registry scenario) through
  :func:`repro.experiments.presets.run_preset`; the result is the same
  ``{"target", "headers", "rows", "summary"}`` dictionary the CLI prints.
* ``{"kind": "simulate", "scenario": ..., "params": {...}, "tokens": {...},
  "buffers": {...}, "cycles": ..., "seed": ..., "mode": ...}`` — estimate
  one marking's throughput; compatible requests (same graph, cycles, warmup
  and mode) are batched by the broker into one
  :func:`~repro.sim.batch.run_models` call, one lane per request.

:func:`prepare_request` validates a body (unknown targets, scenarios or
parameters fail *before* anything is queued) and derives the request's
**cache key** — for anything keyed by a single pipeline job this is exactly
the RRG-fingerprint + stage-parameter key the
:class:`~repro.pipeline.store.ArtifactStore` uses, so the service's request
cache, the artifact store and the in-memory throughput cache all agree on
what "the same request" means.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.experiments.presets import RunOptions, is_run_target, scenario_job
from repro.obs.trace import (
    TRACE_FIELD,
    format_trace_ref,
    parse_trace_ref,
    valid_trace_ref,
)
from repro.pipeline.stages import job_store_key
from repro.pipeline.store import content_key
from repro.sim import cache as _sim_cache
from repro.sim.batch import default_warmup
from repro.sim.cache import LruCache
from repro.workloads.registry import ScenarioError, has_scenario, resolve_scenario

#: Simulation modes a simulate request may ask for.
SIMULATION_MODES = ("tgmg", "elastic")
#: Most simulated cycles (``cycles + warmup``) one simulate request may ask.
MAX_SIM_CYCLES = 10**7
#: Largest token or buffer count a simulate request may set on one edge:
#: the kernel's per-lane scratch grows with the largest edge latency.
MAX_EDGE_COUNT = 4096


class RequestError(ValueError):
    """A malformed or unsatisfiable request body (HTTP 400)."""


class QueueFullError(RuntimeError):
    """The admission queue is at capacity (HTTP 429 — retry later)."""


class ShuttingDownError(RuntimeError):
    """The service is draining and accepts no new work (HTTP 503)."""


#: Built scenario graphs keyed by their canonical (name, params) form —
#: request preparation needs the graph only for its fingerprint, so repeat
#: submissions of the same scenario skip the generator entirely.  LruCache
#: itself is not thread-safe and this one is shared by the broker's
#: multi-threaded prepare pool (and the compute thread), hence the lock.
_RRG_CACHE = LruCache(maxsize=64)
_RRG_LOCK = threading.Lock()


def cached_scenario_rrg(name: str, params: Mapping[str, Any]):
    """Build (or reuse) one scenario graph; returns (rrg, normalized params).

    Thread-safe; also used by the worker bridge so executing a simulate
    batch never re-runs a generator that preparation already ran.
    """
    spec, normalized = resolve_scenario(name, params)
    key = content_key({"scenario": name, "params": normalized})
    with _RRG_LOCK:
        rrg = _RRG_CACHE.get(key)
    if rrg is None:
        rrg = spec.builder(**normalized)
        with _RRG_LOCK:
            _RRG_CACHE.put(key, rrg)
    return rrg, normalized


# Historical internal name.
_cached_rrg = cached_scenario_rrg


@dataclass
class PreparedRequest:
    """A validated request, ready for the broker.

    Attributes:
        kind: ``"run"`` or ``"simulate"``.
        key: Request cache key — coalescing, the L1 result cache and the
            persistent result artifacts are all keyed by it.
        spec: Canonical JSON description (echoed by the status endpoint).
        target: Run target (run requests).
        options: Validated run options (run requests).
        scenario: Scenario name (simulate requests).
        sim_key: The throughput-cache tuple key (simulate requests); equals
            the key :mod:`repro.sim.cache` and the store's throughput layer
            use, so every tier can answer the request.
        batch_key: Compatibility group of a simulate request — requests
            sharing it run as lanes of one batched simulation.
        tokens: Full per-edge token vector of the lane (simulate requests).
        buffers: Full per-edge buffer vector of the lane (simulate requests).
        cycles: Simulation length (simulate requests).
        warmup: Resolved warmup cycles (simulate requests).
        seed: Lane seed (simulate requests).
        mode: ``"tgmg"`` or ``"elastic"`` (simulate requests).
        deadline: Request budget in seconds (None = unbounded).  An
            *execution* knob, deliberately excluded from the cache key and
            canonical spec: two requests for the same computation are the
            same request however long each is willing to wait, and the cache
            only ever holds results that finished without deadline pressure.
        trace_id: Observability correlation id propagated via the
            ``x-repro-trace`` body field.  Like ``deadline``, excluded from
            the cache key and canonical spec — traced and untraced requests
            for the same computation are the same request, and trace ids
            never reach stored payloads.
        parent_span_id: The caller-side span the request's server spans
            parent under (second half of the ``x-repro-trace`` field).
    """

    kind: str
    key: str
    spec: Dict[str, Any]
    target: Optional[str] = None
    options: Optional[RunOptions] = None
    scenario: Optional[str] = None
    sim_key: Optional[Tuple] = None
    batch_key: Optional[str] = None
    tokens: Dict[int, int] = field(default_factory=dict)
    buffers: Dict[int, int] = field(default_factory=dict)
    cycles: int = 0
    warmup: int = 0
    seed: Optional[int] = None
    mode: str = "tgmg"
    deadline: Optional[float] = None
    trace_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    @property
    def trace_ref(self) -> Optional[str]:
        """The ``trace_id/parent_span_id`` form for re-propagation."""
        if self.trace_id is None:
            return None
        return format_trace_ref(self.trace_id, self.parent_span_id)


def _int_vector(raw: Any, what: str) -> Dict[int, int]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise RequestError(f"{what} must be an object of edge-index: count")
    try:
        vector = {int(k): int(v) for k, v in raw.items()}
    except (TypeError, ValueError) as exc:
        raise RequestError(f"{what} must map edge indices to integers") from exc
    if any(not 0 <= v <= MAX_EDGE_COUNT for v in vector.values()):
        raise RequestError(
            f"{what} counts must lie between 0 and {MAX_EDGE_COUNT}"
        )
    return vector


def _prepare_run(body: Mapping[str, Any]) -> PreparedRequest:
    target = body.get("target")
    if not isinstance(target, str) or not target:
        raise RequestError("run request needs a 'target' string")
    raw_options = body.get("options") or {}
    if not isinstance(raw_options, Mapping):
        raise RequestError("'options' must be an object")
    try:
        options = RunOptions.from_mapping(raw_options)
    except (ScenarioError, TypeError, ValueError) as exc:
        raise RequestError(str(exc)) from exc
    if not is_run_target(target):
        raise RequestError(
            f"unknown run target {target!r}; see list-scenarios or the presets"
        )
    spec = {"kind": "run", "target": target, "options": options.describe()}
    if has_scenario(target):
        # A plain-scenario run is one pipeline job: key it exactly as the
        # artifact store would, so identical requests coalesce with any
        # other path that computed the same job.
        try:
            job = scenario_job(target, options)
            rrg, _ = _cached_rrg(
                target, dict(job.build.params)
            )
        except ScenarioError as exc:
            raise RequestError(str(exc)) from exc
        key = content_key({
            "kind": "service-run", "job": job_store_key(job, rrg),
        })
    else:
        if options.params:
            raise RequestError(
                f"preset {target!r} takes no scenario params; "
                "use the dedicated options instead"
            )
        key = content_key(spec)
    return PreparedRequest(kind="run", key=key, spec=spec,
                           target=target, options=options)


def _prepare_simulate(body: Mapping[str, Any]) -> PreparedRequest:
    name = body.get("scenario")
    if not isinstance(name, str) or not name:
        raise RequestError("simulate request needs a 'scenario' string")
    params = body.get("params") or {}
    if not isinstance(params, Mapping):
        raise RequestError("'params' must be an object")
    try:
        rrg, normalized = _cached_rrg(name, params)
    except ScenarioError as exc:
        raise RequestError(str(exc)) from exc

    mode = str(body.get("mode", "tgmg"))
    if mode not in SIMULATION_MODES:
        raise RequestError(
            f"unknown simulation mode {mode!r}; expected one of {SIMULATION_MODES}"
        )
    try:
        cycles = int(body.get("cycles", 4000))
    except (TypeError, ValueError) as exc:
        raise RequestError("'cycles' must be an integer") from exc
    if cycles <= 0:
        raise RequestError("'cycles' must be positive")
    raw_warmup = body.get("warmup")
    try:
        warmup = default_warmup(cycles) if raw_warmup is None else int(raw_warmup)
    except (TypeError, ValueError) as exc:
        raise RequestError("'warmup' must be an integer") from exc
    if warmup < 0:
        raise RequestError("'warmup' must be non-negative")
    if cycles + warmup > MAX_SIM_CYCLES:
        raise RequestError(
            f"'cycles' + 'warmup' must not exceed {MAX_SIM_CYCLES}"
        )
    raw_seed = body.get("seed", 0)
    if raw_seed is None:
        raise RequestError(
            "simulate requests must be seeded (unseeded samples are neither "
            "reproducible nor cacheable); pass an integer 'seed'"
        )
    try:
        seed = int(raw_seed)
    except (TypeError, ValueError) as exc:
        raise RequestError("'seed' must be an integer") from exc

    tokens = rrg.token_vector()
    tokens.update(_int_vector(body.get("tokens"), "'tokens'"))
    buffers = rrg.buffer_vector()
    buffers.update(_int_vector(body.get("buffers"), "'buffers'"))
    known = {edge.index for edge in rrg.edges}
    stray = (set(tokens) | set(buffers)) - known
    if stray:
        raise RequestError(
            f"unknown edge indices {sorted(stray)} for scenario {name!r}"
        )

    fingerprint = _sim_cache.rrg_fingerprint(rrg)
    sim_key = _sim_cache.throughput_key(
        fingerprint, mode, tokens, buffers, cycles, warmup, seed
    )
    spec = {
        "kind": "simulate",
        "scenario": name,
        "params": dict(normalized),
        "tokens": {str(k): v for k, v in sorted(tokens.items())},
        "buffers": {str(k): v for k, v in sorted(buffers.items())},
        "cycles": cycles,
        "warmup": warmup,
        "seed": seed,
        "mode": mode,
    }
    return PreparedRequest(
        kind="simulate",
        key=content_key({"kind": "service-simulate", "sim": sim_key}),
        spec=spec,
        scenario=name,
        sim_key=sim_key,
        batch_key=content_key({
            "kind": "service-batch",
            "fingerprint": fingerprint,
            "cycles": cycles,
            "warmup": warmup,
            "mode": mode,
        }),
        tokens=tokens,
        buffers=buffers,
        cycles=cycles,
        warmup=warmup,
        seed=seed,
        mode=mode,
    )


def _parse_trace(body: Mapping[str, Any]) -> Tuple[Optional[str], Optional[str]]:
    """Extract ``x-repro-trace`` as ``(trace_id, parent_span_id)``.

    Absent → ``(None, None)``; present but malformed → :class:`RequestError`
    (a client that tries to trace deserves to hear it failed rather than
    silently losing the correlation).
    """
    raw = body.get(TRACE_FIELD)
    if raw is None:
        return None, None
    if not valid_trace_ref(raw):
        raise RequestError(
            f"'{TRACE_FIELD}' must be 'trace_id' or 'trace_id/span_id' "
            "(alphanumeric plus '._-', at most 64 chars each)"
        )
    return parse_trace_ref(raw)


def _parse_deadline(body: Mapping[str, Any]) -> Optional[float]:
    raw = body.get("deadline")
    if raw is None:
        return None
    try:
        deadline = float(raw)
    except (TypeError, ValueError) as exc:
        raise RequestError("'deadline' must be a number of seconds") from exc
    if deadline <= 0:
        raise RequestError("'deadline' must be positive")
    return deadline


def prepare_request(body: Any) -> PreparedRequest:
    """Validate a request body and derive its cache/batch keys.

    Raises :class:`RequestError` (HTTP 400) on anything malformed.  This may
    build the scenario graph (cached per canonical parameter set), so
    callers on an event loop should run it in an executor.

    An optional ``deadline`` (seconds) rides along on the prepared request —
    it scopes execution (see :mod:`repro.resilience.deadline`) but never
    enters the cache key, so deadline-bearing requests still coalesce with
    unbounded ones.  The same holds for the optional ``x-repro-trace``
    field: it rides along for observability and never affects the key.
    """
    if not isinstance(body, Mapping):
        raise RequestError("request body must be a JSON object")
    deadline = _parse_deadline(body)
    trace_id, parent_span_id = _parse_trace(body)
    kind = body.get("kind", "run")
    if kind == "run":
        prepared = _prepare_run(body)
    elif kind == "simulate":
        prepared = _prepare_simulate(body)
    else:
        raise RequestError(f"unknown request kind {kind!r}")
    prepared.deadline = deadline
    prepared.trace_id = trace_id
    prepared.parent_span_id = parent_span_id
    return prepared


def result_artifact_key(request_key: str) -> str:
    """Store key of a persisted request result (the tier-2 namespace)."""
    return content_key({"kind": "service-result", "key": request_key})
