"""Execution bridge between the async broker and the synchronous pipeline.

The broker forms :class:`ExecutionGroup`s (one ``run`` request, or many
compatible ``simulate`` requests) and hands them to :func:`execute_group` on
a background executor thread.  The bridge

* drives :func:`repro.experiments.presets.run_preset` — and through it
  :func:`repro.pipeline.runner.run_jobs` — for run requests, forwarding
  every :class:`~repro.pipeline.events.PipelineEvent` to the broker's
  thread-safe emit callback as it happens;
* batches the lanes of a simulate group through
  :func:`repro.sim.batch.simulate_vectors` (one compiled template, one
  lane per request with its own seed — the service's request-level
  batching);
* reads and writes the persistent tiers: simulated throughputs go through
  the :mod:`repro.sim.cache` persistent backend, rendered run results are
  published as ``service-result`` artifacts so a later identical request is
  a store hit without recomputing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.presets import RunOptions, run_preset
from repro.obs import trace as _trace
from repro.pipeline.events import PipelineEvent
from repro.pipeline.store import ArtifactStore, attach_persistent_throughputs
from repro.resilience.deadline import optional_scope
from repro.service.protocol import (
    PreparedRequest,
    cached_scenario_rrg,
    result_artifact_key,
)
from repro.sim import cache as _sim_cache
from repro.sim.batch import simulate_vectors

#: emit(request_id, event_dict) — must be safe to call from worker threads.
EmitCallback = Callable[[str, Dict[str, Any]], None]


@dataclass
class ExecutionGroup:
    """One unit of bridge work: request ids + their prepared requests.

    ``run`` groups always hold exactly one request; ``simulate`` groups hold
    every queued lane that shares a batch key.
    """

    kind: str
    request_ids: List[str] = field(default_factory=list)
    requests: List[PreparedRequest] = field(default_factory=list)

    def add(self, request_id: str, prepared: PreparedRequest) -> None:
        self.request_ids.append(request_id)
        self.requests.append(prepared)

    @property
    def lanes(self) -> int:
        return len(self.requests)


def group_requests(
    entries: Sequence[tuple]
) -> List[ExecutionGroup]:
    """Partition ``(request_id, PreparedRequest)`` pairs into groups.

    Run requests keep submission order, one group each.  Simulate requests
    with the same batch key merge into the earliest group with that key —
    batching never reorders results, only co-schedules compatible lanes.
    """
    groups: List[ExecutionGroup] = []
    by_batch: Dict[str, ExecutionGroup] = {}
    for request_id, prepared in entries:
        if prepared.kind == "simulate" and prepared.batch_key is not None:
            group = by_batch.get(prepared.batch_key)
            if group is None:
                group = ExecutionGroup(kind="simulate")
                by_batch[prepared.batch_key] = group
                groups.append(group)
            group.add(request_id, prepared)
        else:
            group = ExecutionGroup(kind=prepared.kind)
            group.add(request_id, prepared)
            groups.append(group)
    return groups


def _execute_run(
    group: ExecutionGroup,
    store: Optional[ArtifactStore],
    shards: int,
    emit: Optional[EmitCallback],
) -> List[Dict[str, Any]]:
    prepared = group.requests[0]
    request_id = group.request_ids[0]
    assert prepared.target is not None and prepared.options is not None

    events = None
    if emit is not None:
        def events(event: PipelineEvent) -> None:
            emit(request_id, event.to_dict())

    options: RunOptions = prepared.options.with_execution(
        shards=shards, store=None if store is None else str(store.root)
    )
    # The request deadline opens here, on the compute thread running the
    # job, and reaches the MILP walk / search racer through the ambient
    # Deadline.current() — no signature below needs a deadline parameter.
    # The trace scope opens alongside it: contextvars do not cross the
    # event-loop → executor boundary, so the propagated trace ref (already
    # re-parented to the broker's request span) restarts the ambient trace
    # here, and pipeline/stage/search spans nest under this execute span.
    with _trace.maybe_trace(prepared.trace_ref, f"execute:{prepared.target}"):
        with optional_scope(prepared.deadline):
            result = run_preset(prepared.target, options, events=events)
    if store is not None and "degraded" not in result:
        # Degraded results are answers to *this* deadline-pressed request,
        # not to the declaration — never persist them as the request's
        # canonical artifact.
        store.put(result_artifact_key(prepared.key), result)
    return [result]


def _execute_simulate(
    group: ExecutionGroup,
    store: Optional[ArtifactStore],
    emit: Optional[EmitCallback],
) -> List[Dict[str, Any]]:
    first = group.requests[0]
    assert first.scenario is not None
    # One graph serves every lane (the batch key guarantees a shared
    # fingerprint); preparation already built and cached it.
    rrg, _ = cached_scenario_rrg(first.scenario, first.spec["params"])
    job_id = f"simulate:{first.scenario}"
    if emit is not None:
        for request_id in group.request_ids:
            emit(request_id, {
                "kind": "job-start", "job_id": job_id, "total": group.lanes,
            })
    started = time.perf_counter()
    # Route lane throughputs through the persistent tier while this batch
    # runs, then restore whatever backend the host process had.
    previous = _sim_cache.persistent_backend()
    attach_persistent_throughputs(store)
    try:
        values = simulate_vectors(
            rrg,
            [(p.tokens, p.buffers) for p in group.requests],
            cycles=first.cycles,
            warmup=first.warmup,
            seeds=[p.seed for p in group.requests],
            mode=first.mode,
        )
    finally:
        _sim_cache.set_persistent_backend(previous)
    seconds = time.perf_counter() - started
    if emit is not None:
        # Pair every start with a completion, or stream consumers tracking
        # open jobs would see simulate requests as permanently in flight.
        for request_id in group.request_ids:
            emit(request_id, {
                "kind": "job-done", "job_id": job_id, "total": group.lanes,
                "seconds": seconds,
            })
    traced = [p for p in group.requests if p.trace_id is not None]
    if traced:
        # Batch membership: every traced lane gets a span under its own
        # request recording the shared batch execution it rode in.
        from repro.sim.kernels import kernel_backend

        backend = kernel_backend()
        batch_started = time.time() - seconds
        for prepared in traced:
            _trace.finish_span_record(
                prepared.trace_id,
                _trace.derive_span_id(
                    prepared.trace_id,
                    prepared.parent_span_id or "",
                    "simulate-batch",
                    0,
                ),
                prepared.parent_span_id,
                "simulate-batch",
                batch_started,
                seconds,
                lanes=group.lanes,
                kernel_backend=backend,
            )
    # The document must be a function of the request alone (no batch-shape
    # fields like the lane count): a store hit after a restart must return
    # exactly what the original execution returned.
    return [
        {
            "scenario": prepared.scenario,
            "throughput": value,
            "cycles": prepared.cycles,
            "warmup": prepared.warmup,
            "seed": prepared.seed,
            "mode": prepared.mode,
        }
        for prepared, value in zip(group.requests, values)
    ]


def execute_group(
    group: ExecutionGroup,
    store: Optional[ArtifactStore] = None,
    shards: int = 1,
    emit: Optional[EmitCallback] = None,
) -> List[Dict[str, Any]]:
    """Execute one group synchronously; returns one result per request.

    Runs on the broker's compute executor.  Exceptions propagate — the
    broker fails every request of the group with the error message.
    """
    if group.kind == "run":
        return _execute_run(group, store, shards, emit)
    if group.kind == "simulate":
        return _execute_simulate(group, store, emit)
    raise ValueError(f"unknown group kind {group.kind!r}")
