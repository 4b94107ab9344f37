"""Request broker: admission control, coalescing, batching, tiered caching.

The broker is the heart of the service and is usable without the HTTP layer
(tests drive it directly).  A submitted request flows through:

1. **validation** — :func:`repro.service.protocol.prepare_request` in a
   side executor (it may build the scenario graph for the key);
2. **tier 1** — the in-process :class:`~repro.sim.cache.LruCache` of
   rendered results, keyed by the request key: a hit answers immediately;
3. **tier 2** — the persistent :class:`~repro.pipeline.store.ArtifactStore`
   (``service-result`` artifacts for run requests, the throughput layer for
   simulate requests): a hit answers without recomputing and warms tier 1;
4. **coalescing** — an identical request already queued or running attaches
   to it as a follower: one execution, every caller gets the result;
5. **admission** — a bounded queue; at capacity the submit is rejected
   (:class:`~repro.service.protocol.QueueFullError`, HTTP 429) so load
   sheds at the edge instead of piling onto the workers;
6. **batching** — the work loop drains everything queued, groups compatible
   simulate requests into single batched-engine calls
   (:func:`repro.service.worker.group_requests`) and executes groups on the
   compute executor, streaming pipeline events back into the records.

A reader may also *hold* on a record (:meth:`Broker.hold`): park until the
record is terminal, or has events beyond a cursor, instead of polling.  The
wake-up behind a hold is allocated only while some call holds.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry, global_registry, render_metrics
from repro.obs.names import stats_registry
from repro.pipeline.store import ArtifactStore
from repro.service import protocol
from repro.service.worker import ExecutionGroup, execute_group, group_requests
from repro.sim.cache import LruCache, cache_stats

#: Request lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class RequestRecord:
    """One submitted request and everything observable about it."""

    id: str
    prepared: protocol.PreparedRequest
    status: str = QUEUED
    cached: Optional[str] = None  # None | "memory" | "store" | "coalesced"
    created: float = field(default_factory=time.monotonic)
    created_wall: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    primary: Optional["RequestRecord"] = None  # set on coalesced followers
    followers: List["RequestRecord"] = field(default_factory=list)
    # Observability only: the trace this request belongs to, the span the
    # broker minted for it, and the caller-side parent span.  Never copied
    # into results, cache entries or store artifacts.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None

    @property
    def key(self) -> str:
        return self.prepared.key

    def describe(self, events_from: int = 0) -> Dict[str, Any]:
        """JSON status view (the ``/status`` endpoint body)."""
        events = self.events if self.primary is None else self.primary.events
        out: Dict[str, Any] = {
            "id": self.id,
            "kind": self.prepared.kind,
            "status": self.status,
            "key": self.key,
            "cached": self.cached,
            "spec": self.prepared.spec,
            "events": list(events[events_from:]),
            "events_seen": len(events),
        }
        if self.primary is not None:
            out["coalesced_with"] = self.primary.id
        if self.error is not None:
            out["error"] = self.error
        if self.finished is not None and self.started is not None:
            out["seconds"] = round(self.finished - self.started, 6)
        if self.trace_id is not None:
            # Status metadata only — the /result document stays trace-free.
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
        return out


def _ready(record: RequestRecord, events_from: Optional[int]) -> bool:
    if record.status in (DONE, FAILED):
        return True
    if events_from is None:
        return False
    events = record.events if record.primary is None else record.primary.events
    return len(events) > events_from


class Broker:
    """Asynchronous request broker over the synchronous pipeline."""

    def __init__(
        self,
        store: Optional[ArtifactStore | str] = None,
        shards: int = 1,
        queue_limit: int = 32,
        l1_size: int = 256,
        keep_records: int = 1024,
    ) -> None:
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.shards = max(1, int(shards))
        self.queue_limit = max(1, int(queue_limit))
        self._queue: asyncio.Queue = asyncio.Queue()
        self._records: "dict[str, RequestRecord]" = {}
        self._record_order: List[str] = []
        self._keep_records = max(16, int(keep_records))
        self._inflight: Dict[str, RequestRecord] = {}
        # Record id -> the wake-up its held calls park on.  An entry exists
        # only while some call holds on the record; _wake pops and sets it.
        self._wakeups: Dict[str, asyncio.Event] = {}
        self._held = 0
        self._l1 = LruCache(maxsize=l1_size)
        self._ids = itertools.count(1)
        self._accepting = True
        self._busy = False
        # Admission slots reserved by submits that are between the capacity
        # check and their enqueue (the tier-2 probe awaits in between): a
        # concurrent burst must not slip past queue_limit through that gap.
        self._admitting = 0
        # EMA of per-request compute seconds — the drain-rate estimate behind
        # the 429 retry_after hint (None until the first group completes).
        self._ema_request_seconds: Optional[float] = None
        self._started = time.monotonic()
        self._worker_task: Optional[asyncio.Task] = None
        # Validation must not wait behind a long-running batch, or identical
        # requests could never meet in flight — hence two executors.
        self._prepare_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-svc-prepare"
        )
        self._compute_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-svc-compute"
        )
        self.counters = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "coalesced": 0,
            "cache_hits_memory": 0,
            "cache_hits_store": 0,
            "batches": 0,
            "batched_lanes": 0,
            "max_batch_lanes": 0,
        }
        # Live metric families owned by this broker (the /stats counters are
        # mirrored through repro.obs.names at render time instead, so both
        # views share one name table by construction).
        self.metrics = MetricsRegistry()
        self._latency = self.metrics.histogram(
            "repro_request_seconds",
            "Request wall time from admission to completion",
        )

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._worker_task is None:
            self._worker_task = asyncio.create_task(self._work_loop())

    def stop_accepting(self) -> None:
        """Refuse new submits and release every held call at once."""
        self._accepting = False
        for wakeup in self._wakeups.values():
            wakeup.set()
        self._wakeups.clear()

    async def close(self, drain: bool = True) -> None:
        """Stop accepting; optionally finish queued work, then shut down."""
        self.stop_accepting()
        if drain:
            await self.join()
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        self._prepare_pool.shutdown(wait=False)
        # On a hard abort (drain=False) this leaves the compute thread
        # running; callers that truly must exit immediately (the server's
        # second-signal path) os._exit, because executor threads are
        # non-daemon and the interpreter joins them at exit regardless.
        self._compute_pool.shutdown(wait=drain)

    async def join(self) -> None:
        """Wait until the queue is empty and nothing is executing."""
        while not self._queue.empty() or self._busy:
            await asyncio.sleep(0.02)

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- submission ---------------------------------------------------------

    def _new_record(self, prepared: protocol.PreparedRequest) -> RequestRecord:
        record = RequestRecord(
            id=f"req-{next(self._ids):05d}-{uuid.uuid4().hex[:6]}",
            prepared=prepared,
        )
        if prepared.trace_id is not None:
            # Mint the broker-side request span up front and re-point the
            # prepared request's parent at it, so execution spans recorded
            # on the compute thread nest under this request rather than
            # directly under the caller.
            record.trace_id = prepared.trace_id
            record.parent_span_id = prepared.parent_span_id
            record.span_id = _trace.derive_span_id(
                prepared.trace_id,
                prepared.parent_span_id or "",
                f"request:{record.id}",
                0,
            )
            prepared.parent_span_id = record.span_id
        self._records[record.id] = record
        self._record_order.append(record.id)
        # Retention only ever evicts *terminal* records: a flood of cache
        # hits must not 404 a client still waiting on its running request.
        while len(self._record_order) > self._keep_records:
            for position, stale_id in enumerate(self._record_order):
                stale = self._records.get(stale_id)
                if stale is None or stale.status in (DONE, FAILED):
                    del self._record_order[position]
                    self._records.pop(stale_id, None)
                    break
            else:
                break  # everything retained is live; let history run long
        return record

    def _tier2_lookup(
        self, prepared: protocol.PreparedRequest
    ) -> Optional[Dict[str, Any]]:
        """Blocking persistent-store probe (runs on the prepare executor)."""
        if self.store is None:
            return None
        if prepared.kind == "simulate":
            assert prepared.sim_key is not None
            value = self.store.get_throughput(prepared.sim_key)
            if value is None:
                return None
            # Same document shape as a fresh execution: the result is a
            # function of the request, whichever tier answers.
            return {
                "scenario": prepared.scenario,
                "throughput": value,
                "cycles": prepared.cycles,
                "warmup": prepared.warmup,
                "seed": prepared.seed,
                "mode": prepared.mode,
            }
        return self.store.get(protocol.result_artifact_key(prepared.key))

    async def submit(self, body: Any) -> RequestRecord:
        """Admit one request; returns its record (possibly already done).

        Raises:
            protocol.RequestError: Malformed body (HTTP 400).
            protocol.QueueFullError: Admission queue at capacity (HTTP 429).
            protocol.ShuttingDownError: Service draining (HTTP 503).
        """
        if not self._accepting:
            raise protocol.ShuttingDownError("service is shutting down")
        loop = asyncio.get_running_loop()
        prepared = await loop.run_in_executor(
            self._prepare_pool, protocol.prepare_request, body
        )
        self.counters["submitted"] += 1
        record = self._new_record(prepared)

        # Tier 1: rendered result already in memory.
        hit = self._l1.get(prepared.key)
        if hit is not None:
            self.counters["cache_hits_memory"] += 1
            self._finish(record, hit, cached="memory")
            return record

        # Coalesce with identical queued/running work before touching disk —
        # the in-flight primary will warm both tiers for everyone.
        primary = self._inflight.get(prepared.key)
        if primary is not None:
            self.counters["coalesced"] += 1
            record.primary = primary
            primary.followers.append(record)
            record.status = primary.status
            record.cached = "coalesced"
            return record

        # Admission control: bounded queue, shed at the edge (before the
        # disk probe so an overloaded service answers 429 cheaply).  The
        # reserved-slot count covers submits currently awaiting their probe,
        # so a concurrent burst cannot slip past the limit through the gap.
        if self._queue.qsize() + self._admitting >= self.queue_limit:
            self.counters["rejected"] += 1
            self._records.pop(record.id, None)
            # Drop the order entry too, or sustained overload would eat the
            # retention budget.
            try:
                self._record_order.remove(record.id)
            except ValueError:
                pass
            raise protocol.QueueFullError(
                f"queue full ({self.queue_limit} pending); retry in "
                f"~{self.retry_after_hint():g}s"
            )

        # Register as the in-flight primary *before* awaiting the store
        # probe, so a concurrent identical submit coalesces instead of
        # racing to a second execution; followers attached meanwhile are
        # completed by _finish either way.
        self._inflight[prepared.key] = record
        self._admitting += 1
        try:
            # Tier 2: persistent artifacts / throughputs.
            stored = await loop.run_in_executor(
                self._prepare_pool, self._tier2_lookup, prepared
            )
            if stored is not None:
                self.counters["cache_hits_store"] += 1
                self._inflight.pop(prepared.key, None)
                self._l1.put(prepared.key, stored)
                self._finish(record, stored, cached="store")
                return record
            # A drain may have started while this submit awaited its probe;
            # enqueueing now would strand the record with no consumer.
            if not self._accepting:
                raise protocol.ShuttingDownError("service is shutting down")
            self._queue.put_nowait(record)
        except BaseException as exc:
            # The probe cannot realistically raise (the store degrades to a
            # miss), but if it ever does, coalesced followers must not hang.
            self._inflight.pop(prepared.key, None)
            self._fail(record, f"{type(exc).__name__}: {exc}")
            raise
        finally:
            self._admitting -= 1
        return record

    def get(self, request_id: str) -> Optional[RequestRecord]:
        return self._records.get(request_id)

    async def hold(
        self,
        record: RequestRecord,
        seconds: float,
        events_from: Optional[int] = None,
    ) -> bool:
        """Park until ``record`` is ready, ``seconds`` pass or a drain starts.

        Ready means terminal (done or failed) or, when ``events_from`` is
        given, holding more than ``events_from`` events.  Returns whether
        the record is ready.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + seconds
        self._held += 1
        try:
            while not _ready(record, events_from):
                remaining = deadline - loop.time()
                if remaining <= 0 or not self._accepting:
                    return False
                wakeup = self._wakeups.get(record.id)
                if wakeup is None:
                    wakeup = self._wakeups[record.id] = asyncio.Event()
                try:
                    await asyncio.wait_for(wakeup.wait(), remaining)
                except asyncio.TimeoutError:
                    return _ready(record, events_from)
            return True
        finally:
            self._held -= 1

    def _wake(self, record: RequestRecord) -> None:
        """Release the calls held on ``record`` and on its followers."""
        if not self._wakeups:
            return
        for each in (record, *record.followers):
            wakeup = self._wakeups.pop(each.id, None)
            if wakeup is not None:
                wakeup.set()

    # -- completion ---------------------------------------------------------

    def _finish(
        self,
        record: RequestRecord,
        result: Dict[str, Any],
        cached: Optional[str],
    ) -> None:
        record.result = result
        record.status = DONE
        record.cached = cached if record.cached is None else record.cached
        now = time.monotonic()
        record.started = record.started if record.started is not None else now
        record.finished = now
        self.counters["completed"] += 1
        self._observe_done(record)
        for follower in record.followers:
            follower.result = result
            follower.status = DONE
            follower.started = record.started
            follower.finished = now
            self.counters["completed"] += 1
            self._observe_done(follower)
        self._wake(record)

    def _fail(self, record: RequestRecord, message: str) -> None:
        record.error = message
        record.status = FAILED
        record.finished = time.monotonic()
        self.counters["failed"] += 1
        self._observe_done(record)
        for follower in record.followers:
            follower.error = message
            follower.status = FAILED
            follower.finished = record.finished
            self.counters["failed"] += 1
            self._observe_done(follower)
        self._wake(record)

    def _observe_done(self, record: RequestRecord) -> None:
        """Latency histogram + broker-side spans for a terminal record.

        Runs on the event loop; span recording is a dict append (plus one
        small sink write when configured), never a compute.
        """
        finished = record.finished if record.finished is not None else time.monotonic()
        total = max(0.0, finished - record.created)
        self._latency.observe(total, kind=record.prepared.kind)
        if record.trace_id is None or record.span_id is None:
            return
        _trace.finish_span_record(
            record.trace_id,
            record.span_id,
            record.parent_span_id,
            "request",
            record.created_wall,
            total,
            request_id=record.id,
            kind=record.prepared.kind,
            status=record.status,
            cached=record.cached,
        )
        # Queue wait only exists for requests that actually executed (cache
        # hits and coalesced followers never enter the queue).
        if record.cached is None and record.started is not None:
            _trace.finish_span_record(
                record.trace_id,
                _trace.derive_span_id(
                    record.trace_id, record.span_id, "queue-wait", 0
                ),
                record.span_id,
                "queue-wait",
                record.created_wall,
                max(0.0, record.started - record.created),
            )

    def _emit_threadsafe(self, loop: asyncio.AbstractEventLoop):
        def emit(request_id: str, event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._append_event, request_id, event)
        return emit

    def _append_event(self, request_id: str, event: Dict[str, Any]) -> None:
        record = self._records.get(request_id)
        if record is not None:
            record.events.append(event)
            self._wake(record)

    # -- the work loop ------------------------------------------------------

    async def _work_loop(self) -> None:
        loop = asyncio.get_running_loop()
        emit = self._emit_threadsafe(loop)
        while True:
            record = await self._queue.get()
            batch = [record]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._busy = True
            try:
                entries = [(r.id, r.prepared) for r in batch]
                by_id = {r.id: r for r in batch}
                for group in group_requests(entries):
                    await self._run_group(loop, group, by_id, emit)
            finally:
                self._busy = False

    async def _run_group(
        self,
        loop: asyncio.AbstractEventLoop,
        group: ExecutionGroup,
        by_id: Dict[str, RequestRecord],
        emit,
    ) -> None:
        records = [by_id[request_id] for request_id in group.request_ids]
        now = time.monotonic()
        for record in records:
            record.status = RUNNING
            record.started = now
            for follower in record.followers:
                follower.status = RUNNING
                follower.started = now
        self.counters["batches"] += 1
        self.counters["batched_lanes"] += group.lanes
        self.counters["max_batch_lanes"] = max(
            self.counters["max_batch_lanes"], group.lanes
        )
        try:
            results = await loop.run_in_executor(
                self._compute_pool,
                execute_group,
                group,
                self.store,
                self.shards,
                emit,
            )
        except Exception as exc:  # noqa: BLE001 — a request must never kill the loop
            message = f"{type(exc).__name__}: {exc}"
            for record in records:
                self._inflight.pop(record.key, None)
                self._fail(record, message)
            return
        # Fold this group into the drain-rate estimate (per request, so a
        # 12-lane batch counts as 12 cheap requests, not one long one).
        elapsed = max(1e-3, time.monotonic() - now) / max(1, group.lanes)
        if self._ema_request_seconds is None:
            self._ema_request_seconds = elapsed
        else:
            self._ema_request_seconds = (
                0.7 * self._ema_request_seconds + 0.3 * elapsed
            )
        for record, result in zip(records, results):
            self._inflight.pop(record.key, None)
            if "degraded" not in result:
                # A degraded result answers *this* deadline-pressed request
                # only; caching it would serve a non-canonical answer to
                # later unconstrained requests for the same key.
                self._l1.put(record.key, result)
            self._finish(record, result, cached=None)

    # -- accounting ---------------------------------------------------------

    def retry_after_hint(self) -> float:
        """Seconds a 429'd client should wait before retrying.

        Derived from the live queue depth and the measured drain rate (EMA
        of per-request compute seconds) instead of a hardcoded constant: an
        idle-but-bursty service hints sub-second retries, a service deep in
        MILP sweeps tells clients to stay away longer.  Clamped to [0.1, 30].
        """
        depth = self._queue.qsize() + self._admitting + (1 if self._busy else 0)
        per_request = (
            self._ema_request_seconds
            if self._ema_request_seconds is not None
            else 1.0  # no history yet: assume a ~1s request
        )
        return round(min(30.0, max(0.1, depth * per_request)), 2)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss, queue and batching counters (the ``/stats`` body)."""
        from repro.sim.kernels import kernel_info

        kernel = kernel_info()
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "accepting": self._accepting,
            "shards": self.shards,
            # Live host provenance: which compiled simulation backend this
            # process runs and on how many threads a batch call runs its
            # lanes (results depend on neither).
            "kernel_backend": kernel["backend"],
            "kernel_workers": kernel["workers"],
            "queue": {
                "depth": self._queue.qsize(),
                "limit": self.queue_limit,
                "in_flight": len(self._inflight),
                "busy": self._busy,
                # Calls parked in hold() right now (held /result, /status).
                "held": self._held,
                "retry_after_hint": self.retry_after_hint(),
                # The drain-rate estimate behind retry_after_hint, exposed so
                # /metrics and humans reading /stats see the same numbers.
                "ema_request_seconds": (
                    None if self._ema_request_seconds is None
                    else round(self._ema_request_seconds, 6)
                ),
                # 0.0 (not None/NaN) before the first completion, so fresh
                # servers always expose a valid, chartable number.
                "drain_rate_rps": (
                    0.0 if not self._ema_request_seconds
                    else round(1.0 / self._ema_request_seconds, 3)
                ),
            },
            "requests": dict(self.counters),
            "cache": {
                "l1": self._l1.stats(),
                # Counters only — ArtifactStore.stats() walks the whole
                # directory for its entry count, far too slow for a stats
                # endpoint served from the event loop.
                "store": None if self.store is None else {
                    "hits": self.store.hits, "misses": self.store.misses,
                },
                "sim": cache_stats(),
            },
        }

    def render_metrics(self) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition.

        Counters are mirrored from :meth:`stats` through the canonical
        name table (:mod:`repro.obs.names`), merged with the broker's live
        latency histogram and the process-global registry (retries,
        journal records).
        """
        return render_metrics(
            stats_registry(self.stats()), self.metrics, global_registry()
        )
