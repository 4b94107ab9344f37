"""Fleet mode: multi-process service scale-out with sharded routing.

One :mod:`repro.service.server` process is a single-core ceiling — the
broker's compute executor, the asyncio loop and the JSON marshalling all
share one GIL.  Fleet mode turns that ceiling into a *per-worker* number:

* a **front-end router** (:class:`FleetRouter`) accepts the existing
  JSON-over-HTTP protocol unchanged and forwards each request to one of N
  **worker processes**, each running today's single-process server
  (``python -m repro serve``) on its own port;
* routing is **consistent hashing on the request cache key** — the same
  RRG-fingerprint + stage-params digest the
  :class:`~repro.pipeline.store.ArtifactStore` and the broker's coalescer
  use (:class:`~repro.service.ring.HashRing`), so each fingerprint's L1 LRU
  and in-flight coalescing live on exactly one worker;
* the **shared persistent ArtifactStore** behind every worker is the L3
  tier: a worker restart loses one shard's L1, never its computed results;
* a **supervisor** (:class:`FleetSupervisor`) spawns the workers and
  respawns them on death, with the same bounded-rebuild discipline as the
  pipeline's process pool (:data:`WORKER_RESPAWNS`, mirroring
  :data:`repro.pipeline.runner.POOL_REBUILDS`);
* the router's **health scoring** reuses the broker's own drain-rate
  estimate: each worker's ``/stats`` exposes its queue depth and
  per-request-seconds EMA, and the router scores workers by their product —
  the same quantity behind the 429 ``retry_after`` hint;
* **draining and death** move only the dead shard's keys (to the ring
  successor) and move them back on return; a request lost with a dying
  worker is reported to the client as a 503 with ``"lost": true`` and a
  ``retry_after`` hint, and the clients' ``submit_and_wait`` re-submits the
  idempotent body — no request is dropped, only delayed.

``python -m repro serve --workers N`` starts a fleet; ``--workers 1`` (the
default) runs the unchanged single-process server — byte-identical
behavior, zero router overhead.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import trace as _trace
from repro.obs.metrics import global_registry, render_metrics
from repro.obs.names import REQUEST_COUNTERS, REQUEST_GAUGES, fleet_registry
from repro.service import protocol
from repro.service.ring import HashRing
from repro.service.server import (
    FramingError,
    TextPayload,
    read_request,
    trace_endpoint,
    write_response,
)

#: Worker lifecycle states.
STARTING = "starting"
LIVE = "live"
DRAINING = "draining"
DEAD = "dead"

#: Unplanned respawns allowed per worker before its shard fails over to the
#: ring successor permanently — the pool-rebuild pattern of
#: :data:`repro.pipeline.runner.POOL_REBUILDS`, per worker instead of per
#: pool (a service heals workers individually, it never tears down the
#: whole fleet).
WORKER_RESPAWNS = 5

#: Transport failures while talking to a worker.
_RELAY_ERRORS = (
    OSError,
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
    ValueError,  # a half-dead worker emitting a truncated status line
)

#: Consecutive failed health probes before a live worker is declared dead.
_PROBE_FAILURES = 3

#: Seconds a STARTING worker may stay unresponsive before it is treated as
#: dead and respawned — a process that is alive but hung at boot must not
#: leave its shard silently degraded forever.
_BOOT_DEADLINE = 30.0

#: Seconds a DRAINING worker may keep running after its drain began.  A
#: draining worker closes its listener before publishing in-flight work, so
#: failed probes are the *expected* shape of a drain, not a death; only an
#: overrun deadline forces the issue.
_DRAIN_DEADLINE = 120.0

#: A worker death this soon after spawn is most likely the bind-and-release
#: port race in :func:`_free_port` (another process grabbed the port between
#: release and the worker's bind), not a worker bug: respawn on a fresh port
#: without charging the unplanned-death budget.  Bounded by its own counter
#: so a worker that always crashes at boot still fails permanently.
_EARLY_DEATH_GRACE = 2.0
_EARLY_DEATH_RESPAWNS = 10


def _free_port(host: str) -> int:
    """An OS-assigned free TCP port on ``host`` (bind-and-release)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


class WorkerHandle:
    """One worker process and everything the router knows about it."""

    def __init__(self, name: str, host: str) -> None:
        self.name = name
        self.host = host
        self.port: Optional[int] = None
        self.state = DEAD
        self.process: Optional[subprocess.Popen] = None
        self.respawns = 0          # unplanned (budgeted) respawns
        self.restarts = 0          # planned drain/restart cycles
        self.early_deaths = 0      # bind-race deaths (unbudgeted respawns)
        self.consecutive_failures = 0
        self.score: Optional[float] = None  # queue depth x drain EMA
        self.stats: Optional[Dict[str, Any]] = None
        self.spawned_at: Optional[float] = None
        self.draining_since: Optional[float] = None

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def describe(self) -> Dict[str, Any]:
        return {
            "port": self.port,
            "pid": self.pid,
            "state": self.state,
            "score": self.score,
            "respawns": self.respawns,
            "restarts": self.restarts,
            "early_deaths": self.early_deaths,
        }


class FleetSupervisor:
    """Spawns and respawns the worker processes of a fleet.

    Every worker is literally today's single-process server — the
    supervisor runs ``python -m repro serve --port <free-port> --quiet``
    with the shared store, so a one-worker fleet and the plain server are
    the same code executing.  Respawns always pick a fresh port (no bind
    races with a dying predecessor); workers are addressed by *name* in the
    hash ring, so the key mapping never moves on a restart.
    """

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        store: Optional[str] = None,
        shards: int = 1,
        queue_limit: int = 32,
        quiet: bool = True,
        max_respawns: int = WORKER_RESPAWNS,
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.host = host
        self.store = store
        self.shards = max(1, int(shards))
        self.queue_limit = max(1, int(queue_limit))
        self.quiet = quiet
        self.max_respawns = max(0, int(max_respawns))
        self.handles: Dict[str, WorkerHandle] = {
            f"worker-{index}": WorkerHandle(f"worker-{index}", host)
            for index in range(workers)
        }

    @property
    def names(self) -> List[str]:
        return list(self.handles)

    def command(self, handle: WorkerHandle) -> List[str]:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", self.host,
            "--port", str(handle.port),
            "--shards", str(self.shards),
            "--queue-limit", str(self.queue_limit),
            "--quiet",
        ]
        if self.store is not None:
            cmd += ["--store", str(self.store)]
        return cmd

    def environment(self) -> Dict[str, str]:
        env = dict(os.environ)
        # Make `python -m repro` importable in the child regardless of how
        # this process found the package (tests run from a src/ layout).
        src = str(Path(__file__).resolve().parents[2])
        parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        return env

    def spawn(self, handle: WorkerHandle) -> None:
        """(Re)start one worker on a fresh port; state becomes STARTING."""
        handle.port = _free_port(self.host)
        sink = subprocess.DEVNULL if self.quiet else None
        handle.process = subprocess.Popen(
            self.command(handle),
            env=self.environment(),
            stdout=sink,
            stderr=sink,
        )
        handle.state = STARTING
        handle.consecutive_failures = 0
        handle.score = None
        handle.stats = None
        handle.spawned_at = time.monotonic()
        handle.draining_since = None

    def spawn_all(self) -> None:
        for handle in self.handles.values():
            self.spawn(handle)

    def stop(self, timeout: float = 10.0) -> None:
        """Terminate (then kill) every worker process still running."""
        for handle in self.handles.values():
            if handle.alive():
                handle.process.terminate()
        deadline = time.monotonic() + timeout
        for handle in self.handles.values():
            if handle.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait()
            handle.state = DEAD


class FleetRouter:
    """The HTTP front of a fleet: sharded routing, health, aggregation.

    Speaks the single-process server's protocol unchanged on the outside;
    on the inside it validates each submit (the same
    :func:`repro.service.protocol.prepare_request` the workers run), hashes
    the request's cache key onto the ring, and relays to the owning worker.
    ``/status`` and ``/result`` follow the request id back to the worker
    that issued it; ``/stats`` and ``/healthz`` aggregate across the fleet.
    """

    def __init__(
        self,
        supervisor: FleetSupervisor,
        host: str = "127.0.0.1",
        port: int = 8642,
        quiet: bool = True,
        health_interval: float = 0.5,
        max_tracked_requests: int = 65536,
        metrics_digest: bool = False,
        digest_interval: float = 10.0,
    ) -> None:
        self.supervisor = supervisor
        self.workers = supervisor.handles
        self.ring = HashRing(supervisor.names)
        self.host = host
        self.port = port
        self.quiet = quiet
        self.health_interval = health_interval
        self._owners: "OrderedDict[str, str]" = OrderedDict()
        self._max_tracked = max(1024, int(max_tracked_requests))
        self._accepting = True
        self._started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_task: Optional[asyncio.Task] = None
        self._metrics_digest = metrics_digest
        self._digest_interval = max(0.5, float(digest_interval))
        self._digest_task: Optional[asyncio.Task] = None
        self._shutdown = asyncio.Event()
        self._exit_code = 0
        # Validation runs here once per submit (the worker re-validates on
        # its own prepare pool; both share the per-process scenario cache).
        self._prepare_pool = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-fleet-prepare"
        )
        self.counters = {
            "routed": 0,
            "rerouted": 0,
            "unrouted": 0,
            "lost": 0,
            "worker_deaths": 0,
            "respawns": 0,
            "drains": 0,
        }
        self.routed_by_worker = {name: 0 for name in self.workers}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self.supervisor.store is not None:
            # Router route-spans land in the same JSONL sink the workers
            # append to (they share the store), so /trace/<id> on the
            # router sees the whole fleet even after a worker restart.
            _trace.set_trace_sink(
                _trace.store_sink_path(self.supervisor.store)
            )
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._health_task = asyncio.create_task(self._health_loop())
        if self._metrics_digest:
            self._digest_task = asyncio.create_task(self._digest_loop())
        self._log(
            f"fleet: router on http://{self.host}:{self.port} "
            f"({len(self.workers)} worker(s))"
        )

    async def _digest_loop(self) -> None:
        """One metrics line every ``digest_interval`` seconds (``--metrics``)."""
        while True:
            await asyncio.sleep(self._digest_interval)
            live = sum(
                1 for handle in self.workers.values() if handle.state == LIVE
            )
            submitted = 0
            for handle in self.workers.values():
                if isinstance(handle.stats, dict):
                    submitted += int(
                        (handle.stats.get("requests") or {}).get("submitted")
                        or 0
                    )
            counters = self.counters
            print(
                f"metrics: uptime={time.monotonic() - self._started:.0f}s "
                f"workers={live}/{len(self.workers)} "
                f"submitted={submitted} routed={counters['routed']} "
                f"rerouted={counters['rerouted']} lost={counters['lost']} "
                f"deaths={counters['worker_deaths']}",
                flush=True,
            )

    async def serve_until_shutdown(self) -> int:
        await self._shutdown.wait()
        await self.stop(drain=self._exit_code == 0)
        return self._exit_code

    async def stop(self, drain: bool = True) -> None:
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._digest_task is not None:
            self._digest_task.cancel()
            try:
                await self._digest_task
            except asyncio.CancelledError:
                pass
            self._digest_task = None
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if drain:
            self._log("fleet: draining workers")
            await self._drain_workers()
        self.supervisor.stop()
        self._prepare_pool.shutdown(wait=False)
        self._log("fleet: stopped")

    async def _drain_workers(self, timeout: float = 60.0) -> None:
        """Ask every running worker to drain, then wait for their exits."""
        async def ask(handle: WorkerHandle) -> None:
            if not handle.alive():
                return
            try:
                await self._relay(handle, "POST", "/shutdown", {}, timeout=10)
            except _RELAY_ERRORS:
                pass

        await asyncio.gather(
            *(ask(handle) for handle in self.workers.values()),
            return_exceptions=True,
        )
        deadline = time.monotonic() + timeout
        while (
            any(handle.alive() for handle in self.workers.values())
            and time.monotonic() < deadline
        ):
            await asyncio.sleep(0.1)

    def request_shutdown(self, exit_code: int = 0) -> None:
        self._exit_code = exit_code or self._exit_code
        self._shutdown.set()

    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """First SIGINT/SIGTERM drains the fleet; the second aborts hard."""
        def _signal() -> None:
            if not self._shutdown.is_set():
                self._log(
                    "fleet: shutdown requested — draining "
                    "(signal again to abort)"
                )
                self.request_shutdown(0)
            else:
                self._log("fleet: hard abort")
                for handle in self.workers.values():
                    if handle.alive():
                        handle.process.kill()
                os._exit(1)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _signal)
            except (NotImplementedError, RuntimeError):
                pass

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(message, flush=True)

    # -- worker health ------------------------------------------------------

    async def _health_loop(self) -> None:
        """Probe each worker's ``/stats``; promote, score, or declare dead.

        The score is queue depth × the per-request-seconds EMA — the exact
        numbers the worker's broker derives its 429 ``retry_after`` hint
        from, now shared between the router and ``/stats`` readers.
        """
        while True:
            await asyncio.sleep(self.health_interval)
            try:
                await self._health_tick()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — one bad probe must
                # never kill the loop: a dead health task would leave
                # workers unpromoted and unhealed forever.
                self._log(
                    f"fleet: health tick error "
                    f"({type(exc).__name__}: {exc}); continuing"
                )

    async def _health_tick(self) -> None:
        for handle in self.workers.values():
            if handle.state == DEAD:
                continue  # respawn budget exhausted: permanent
            if not handle.alive():
                if handle.state == DRAINING:
                    # Planned exit: restart outside the respawn budget.
                    handle.restarts += 1
                    self.supervisor.spawn(handle)
                else:
                    self._mark_dead(handle)
                continue
            try:
                status, payload = await self._relay(
                    handle, "GET", "/stats", None, timeout=5
                )
            except _RELAY_ERRORS:
                now = time.monotonic()
                if handle.state == STARTING:
                    # Still booting; the process is alive — but not
                    # forever: a worker hung at boot is respawned.
                    if (
                        handle.spawned_at is not None
                        and now - handle.spawned_at > _BOOT_DEADLINE
                    ):
                        self._mark_dead(handle)
                    continue
                if handle.state == DRAINING:
                    # A draining worker closes its listener before
                    # publishing in-flight work: failed probes are
                    # expected.  Killing it here would discard the very
                    # work the drain is preserving, so only an overrun
                    # drain deadline forces the issue.
                    if (
                        handle.draining_since is not None
                        and now - handle.draining_since > _DRAIN_DEADLINE
                    ):
                        self._mark_dead(handle)
                    continue
                handle.consecutive_failures += 1
                if handle.consecutive_failures >= _PROBE_FAILURES:
                    self._mark_dead(handle)
                continue
            if status != 200 or not isinstance(payload, dict):
                continue
            handle.consecutive_failures = 0
            queue = payload.get("queue") or {}
            depth = queue.get("depth") or 0
            ema = queue.get("ema_request_seconds") or 1.0
            handle.score = round(float(depth) * float(ema), 6)
            handle.stats = payload
            if handle.state == STARTING:
                handle.state = LIVE
                self._log(
                    f"fleet: {handle.name} live on port {handle.port}"
                )
            elif handle.state == LIVE and payload.get("accepting") is False:
                # The worker began its own drain (direct SIGTERM).
                self._note_draining(handle)

    def _note_draining(self, handle: WorkerHandle) -> None:
        """Transition a handle to DRAINING, stamping the drain deadline."""
        if handle.state != DRAINING:
            handle.state = DRAINING
            handle.draining_since = time.monotonic()

    def _mark_dead(self, handle: WorkerHandle) -> None:
        """Unplanned death: fail the shard over and respawn within budget."""
        if handle.state == DEAD:
            return
        early_exit = (
            not handle.alive()
            and handle.state == STARTING
            and handle.spawned_at is not None
            and time.monotonic() - handle.spawned_at <= _EARLY_DEATH_GRACE
        )
        if handle.alive():
            handle.process.kill()
        handle.state = DEAD
        self.counters["worker_deaths"] += 1
        if early_exit and handle.early_deaths < _EARLY_DEATH_RESPAWNS:
            # Probable _free_port bind race: the port was taken between
            # release and the worker's bind.  A fresh port fixes it, and
            # the race is not the worker's fault, so it doesn't spend the
            # unplanned-death budget.
            handle.early_deaths += 1
            self.counters["respawns"] += 1
            self._log(
                f"fleet: {handle.name} exited at boot (likely port race); "
                f"respawning on a fresh port "
                f"({handle.early_deaths}/{_EARLY_DEATH_RESPAWNS} early exits)"
            )
            self.supervisor.spawn(handle)
            return
        if handle.respawns < self.supervisor.max_respawns:
            handle.respawns += 1
            self.counters["respawns"] += 1
            self._log(
                f"fleet: {handle.name} died; respawning "
                f"(attempt {handle.respawns}/{self.supervisor.max_respawns})"
            )
            self.supervisor.spawn(handle)
        else:
            self._log(
                f"fleet: {handle.name} exceeded its respawn budget; its "
                "shard fails over to the ring successor"
            )

    def _retry_hint(self) -> float:
        """How soon a rerouted/lost client should retry: two health ticks
        (a respawned worker is usually live again by then)."""
        return round(max(0.2, 2 * self.health_interval), 2)

    # -- HTTP ---------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            method, path, body = request
            status, payload = await self._route(method, path, body)
            await write_response(writer, status, payload)
        except FramingError as exc:
            try:
                await write_response(writer, exc.status, {"error": str(exc)})
            except ConnectionError:
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the router
            try:
                await write_response(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except ConnectionError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _route(
        self, method: str, path: str, body: Any
    ) -> Tuple[int, Any]:
        path, _, _query = path.partition("?")
        stripped = path.rstrip("/") or "/"
        if isinstance(body, dict) and body.get("__oversized__"):
            return 400, {"error": "request body too large"}
        if isinstance(body, dict) and body.get("__malformed__"):
            return 400, {"error": "request body is not valid JSON"}

        if method == "POST" and stripped == "/submit":
            return await self._submit(body)
        if method == "GET" and stripped.startswith("/status/"):
            return await self._relay_owned(
                stripped[len("/status/"):], "GET", path + (
                    f"?{_query}" if _query else ""
                )
            )
        if method == "GET" and stripped.startswith("/result/"):
            return await self._relay_owned(
                stripped[len("/result/"):], "GET", path
            )
        if method == "GET" and stripped == "/stats":
            return await self._stats()
        if method == "GET" and stripped == "/metrics":
            return 200, TextPayload(self.render_metrics())
        if method == "GET" and stripped.startswith("/trace/"):
            return await self._trace(stripped[len("/trace/"):])
        if method == "GET" and stripped == "/healthz":
            return self._healthz()
        if method == "GET" and stripped == "/fleet":
            return 200, self.describe()
        if method == "POST" and stripped == "/fleet/drain":
            return await self._drain_one(body)
        if method == "POST" and stripped == "/shutdown":
            asyncio.get_running_loop().call_soon(self.request_shutdown, 0)
            return 200, {"ok": True, "draining": True, "fleet": True}
        return 404, {"error": f"no route {method} {stripped}"}

    async def _relay(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: Any,
        timeout: float = 60.0,
    ) -> Tuple[int, Any]:
        """One HTTP exchange with a worker (close-delimited, JSON)."""
        async def exchange() -> Tuple[int, Any]:
            reader, writer = await asyncio.open_connection(
                handle.host, handle.port
            )
            try:
                payload = (
                    b"" if body is None else json.dumps(body).encode("utf-8")
                )
                head = (
                    f"{method} {path} HTTP/1.1\r\n"
                    f"Host: {handle.host}:{handle.port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n"
                    "\r\n"
                )
                writer.write(head.encode("latin-1") + payload)
                await writer.drain()
                status_line = await reader.readline()
                parts = status_line.decode("latin-1").split(" ", 2)
                if len(parts) < 2:
                    # EOF (b"") or a truncated line from a worker that died
                    # after accepting the connection.
                    raise ConnectionError(
                        f"truncated status line from worker: {status_line!r}"
                    )
                status = int(parts[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip() or 0)
                raw = await reader.readexactly(length) if length else b""
                data = json.loads(raw.decode("utf-8")) if raw else None
                return status, data
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, RuntimeError):
                    pass

        return await asyncio.wait_for(exchange(), timeout=timeout)

    # -- routing ------------------------------------------------------------

    def _remember_owner(self, request_id: str, worker: str) -> None:
        self._owners[request_id] = worker
        while len(self._owners) > self._max_tracked:
            self._owners.popitem(last=False)

    async def _submit(self, body: Any) -> Tuple[int, Any]:
        if not self._accepting:
            return 503, {"error": "fleet is shutting down"}
        loop = asyncio.get_running_loop()
        try:
            prepared = await loop.run_in_executor(
                self._prepare_pool, protocol.prepare_request, body
            )
        except protocol.RequestError as exc:
            return 400, {"error": str(exc)}

        route_span_id: Optional[str] = None
        route_started = time.time()
        route_t0 = time.perf_counter()
        if prepared.trace_id is not None:
            # Interpose a "route" span between the client's root and the
            # worker's request span: rewrite the forwarded trace ref so
            # worker-side spans parent under it.  The field rides outside
            # the cache key, so the rewrite cannot split coalescing.
            route_span_id = _trace.derive_span_id(
                prepared.trace_id,
                prepared.parent_span_id or "",
                "route",
                0,
            )
            body = {
                **body,
                _trace.TRACE_FIELD: _trace.format_trace_ref(
                    prepared.trace_id, route_span_id
                ),
            }

        primary: Optional[str] = None
        for name in self.ring.chain(prepared.key):
            if primary is None:
                primary = name
            handle = self.workers[name]
            if handle.state != LIVE:
                continue
            try:
                status, payload = await self._relay(
                    handle, "POST", "/submit", body, timeout=60
                )
            except _RELAY_ERRORS:
                if not handle.alive():
                    self._mark_dead(handle)
                else:
                    handle.consecutive_failures += 1
                    if handle.consecutive_failures >= _PROBE_FAILURES:
                        self._mark_dead(handle)
                continue
            if status == 503:
                # The worker began draining before the health loop noticed;
                # its keys spill to the ring successor until it returns.
                if handle.state == LIVE:
                    self._note_draining(handle)
                continue
            self.counters["routed"] += 1
            if name != primary:
                self.counters["rerouted"] += 1
            self.routed_by_worker[name] += 1
            if isinstance(payload, dict) and "id" in payload:
                self._remember_owner(payload["id"], name)
                payload.setdefault("worker", name)
            if route_span_id is not None:
                _trace.finish_span_record(
                    prepared.trace_id,
                    route_span_id,
                    prepared.parent_span_id,
                    "route",
                    route_started,
                    time.perf_counter() - route_t0,
                    worker=name,
                    rerouted=(name != primary),
                )
            return status, payload
        # Every candidate is starting, draining or dead: tell the client to
        # come back after the respawn instead of failing the request.
        self.counters["unrouted"] += 1
        return 503, {
            "error": "no live worker for this shard (fleet healing); retry",
            "retry_after": self._retry_hint(),
        }

    async def _relay_owned(
        self, request_id: str, method: str, path: str
    ) -> Tuple[int, Any]:
        owner = self._owners.get(request_id)
        if owner is None:
            return 404, {"error": f"unknown request {request_id!r}"}
        handle = self.workers[owner]
        if handle.alive() and handle.state in (LIVE, DRAINING, STARTING):
            try:
                status, payload = await self._relay(
                    handle, method, path, None, timeout=30
                )
            except _RELAY_ERRORS:
                if not handle.alive():
                    self._mark_dead(handle)
            else:
                if status != 404:
                    return status, payload
                # The worker restarted since issuing this id: its in-memory
                # record is gone even though the process answers.
        self.counters["lost"] += 1
        self._owners.pop(request_id, None)
        return 503, {
            "error": (
                f"worker {owner} lost request {request_id}; "
                "re-submit the request body (submits are idempotent)"
            ),
            "retry_after": self._retry_hint(),
            "lost": True,
        }

    # -- aggregation --------------------------------------------------------

    def _healthz(self) -> Tuple[int, Any]:
        states = {name: h.state for name, h in self.workers.items()}
        return 200, {
            "ok": all(state == LIVE for state in states.values()),
            "accepting": self._accepting,
            "fleet": True,
            "workers": states,
        }

    def describe(self) -> Dict[str, Any]:
        """The ``/fleet`` body: ring, per-worker detail, router counters."""
        return {
            "host": self.host,
            "port": self.port,
            "ring": self.ring.describe(),
            "workers": {
                name: handle.describe()
                for name, handle in self.workers.items()
            },
            "router": {
                **self.counters,
                "routed_by_worker": dict(self.routed_by_worker),
                "tracked_requests": len(self._owners),
            },
        }

    async def _stats(self) -> Tuple[int, Any]:
        """Fleet-wide ``/stats``: live worker stats plus summed counters."""
        async def probe(handle: WorkerHandle):
            if not handle.alive():
                return None
            try:
                status, payload = await self._relay(
                    handle, "GET", "/stats", None, timeout=5
                )
            except _RELAY_ERRORS:
                return None
            return payload if status == 200 else None

        names = list(self.workers)
        replies = await asyncio.gather(
            *(probe(self.workers[name]) for name in names)
        )
        requests: Dict[str, int] = {}
        depth = limit = l1_hits = l1_misses = 0
        hints: List[float] = []
        per_worker: Dict[str, Any] = {}
        for name, reply in zip(names, replies):
            handle = self.workers[name]
            per_worker[name] = {
                "state": handle.state,
                "score": handle.score,
                "stats": reply,
            }
            if not isinstance(reply, dict):
                continue
            # Aggregate over the canonical counter table, not whatever keys
            # the reply happens to carry: counters sum, gauges max-merge
            # (summing max_batch_lanes across workers would fabricate a
            # batch size no worker ever ran).
            worker_requests = reply.get("requests") or {}
            for key in REQUEST_COUNTERS:
                value = worker_requests.get(key)
                if isinstance(value, int):
                    requests[key] = requests.get(key, 0) + value
            for key in REQUEST_GAUGES:
                value = worker_requests.get(key)
                if isinstance(value, int):
                    requests[key] = max(requests.get(key, 0), value)
            queue = reply.get("queue") or {}
            depth += int(queue.get("depth") or 0)
            limit += int(queue.get("limit") or 0)
            hint = queue.get("retry_after_hint")
            if isinstance(hint, (int, float)):
                hints.append(float(hint))
            l1 = (reply.get("cache") or {}).get("l1") or {}
            l1_hits += int(l1.get("hits") or 0)
            l1_misses += int(l1.get("misses") or 0)
        return 200, {
            "fleet": True,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "accepting": self._accepting,
            "workers": len(self.workers),
            "requests": requests,
            "queue": {
                "depth": depth,
                "limit": limit,
                "retry_after_hint": max(hints) if hints else None,
            },
            "cache": {"l1": {"hits": l1_hits, "misses": l1_misses}},
            "router": {
                **self.counters,
                "routed_by_worker": dict(self.routed_by_worker),
            },
            "per_worker": per_worker,
        }

    def render_metrics(self) -> str:
        """Fleet-wide Prometheus text for ``GET /metrics``.

        Rendered from the health loop's cached per-worker ``/stats``
        snapshots (no extra worker round-trips on scrape) through the same
        canonical table the single-process server uses: each family appears
        as an unlabeled fleet sum plus one ``worker="..."``-labeled sample
        per live worker, so the sum is exactly the sum of the parts.
        """
        per_worker = {
            name: handle.stats
            for name, handle in self.workers.items()
            if handle.state == LIVE and isinstance(handle.stats, dict)
        }
        registry = fleet_registry(
            per_worker,
            self.counters,
            round(time.monotonic() - self._started, 3),
        )
        return render_metrics(registry, global_registry())

    async def _trace(self, trace_id: str) -> Tuple[int, Any]:
        """Fleet-wide ``GET /trace/<id>``: router spans + worker fan-out.

        With a shared store the router's sink read already covers every
        worker; the live fan-out additionally recovers ring-only spans of
        store-less fleets and spans not yet flushed.
        """
        status, merged = trace_endpoint(trace_id)
        if status != 200:
            return status, merged
        by_id = {
            record.get("span_id"): record for record in merged["spans"]
        }

        async def probe(handle: WorkerHandle):
            if handle.state != LIVE or not handle.alive():
                return None
            try:
                reply_status, payload = await self._relay(
                    handle, "GET", f"/trace/{trace_id}", None, timeout=5
                )
            except _RELAY_ERRORS:
                return None
            return payload if reply_status == 200 else None

        replies = await asyncio.gather(
            *(probe(handle) for handle in self.workers.values())
        )
        for payload in replies:
            if not isinstance(payload, dict):
                continue
            for record in payload.get("spans") or []:
                if isinstance(record, dict) and record.get("span_id"):
                    by_id.setdefault(record["span_id"], record)
        spans = sorted(
            by_id.values(),
            key=lambda r: (r.get("started_unix") or 0.0, r.get("span_id") or ""),
        )
        return 200, {"trace_id": trace_id, "spans": spans}

    # -- draining -----------------------------------------------------------

    async def _drain_one(self, body: Any) -> Tuple[int, Any]:
        name = (body or {}).get("worker") if isinstance(body, dict) else None
        handle = self.workers.get(name or "")
        if handle is None:
            return 404, {"error": f"unknown worker {name!r}"}
        if handle.state in (DRAINING, DEAD):
            return 200, {"ok": True, "worker": name, "state": handle.state}
        self._note_draining(handle)
        self.counters["drains"] += 1
        # Ask the worker to drain and exit; the health loop restarts it
        # (planned, so outside the respawn budget) once the process is gone.
        try:
            await self._relay(handle, "POST", "/shutdown", {}, timeout=10)
        except _RELAY_ERRORS:
            pass
        return 200, {"ok": True, "worker": name, "state": DRAINING}


async def _serve_fleet_async(router: FleetRouter) -> int:
    loop = asyncio.get_running_loop()
    # Bind the router socket before spawning anything: a router that cannot
    # start (port already bound, say) must not orphan N worker processes.
    try:
        await router.start()
        router.supervisor.spawn_all()
    except BaseException:
        await router.stop(drain=False)
        raise
    router.install_signal_handlers(loop)
    try:
        return await router.serve_until_shutdown()
    except asyncio.CancelledError:
        await router.stop(drain=False)
        return 1


def serve_fleet(
    host: str = "127.0.0.1",
    port: int = 8642,
    store: Optional[str] = None,
    workers: int = 2,
    shards: int = 1,
    queue_limit: int = 32,
    quiet: bool = False,
    metrics_digest: bool = False,
) -> int:
    """Run a router + N-worker fleet until shutdown; returns the exit code.

    ``python -m repro serve --workers N`` lands here for N >= 2 (N = 1 runs
    the unchanged single-process :func:`repro.service.server.serve`).
    """
    supervisor = FleetSupervisor(
        workers=workers, host=host, store=store, shards=shards,
        queue_limit=queue_limit, quiet=quiet,
    )
    router = FleetRouter(
        supervisor, host=host, port=port, quiet=quiet,
        metrics_digest=metrics_digest,
    )
    try:
        return asyncio.run(_serve_fleet_async(router))
    except KeyboardInterrupt:
        return 1


class FleetThread:
    """A fleet running on a daemon thread (tests, benchmarks, notebooks).

    Usage::

        with FleetThread(workers=4, store=path) as fleet:
            client = ServiceClient(port=fleet.port)
            ...
    """

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("quiet", True)
        kwargs.setdefault("health_interval", 0.25)
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.router: Optional[FleetRouter] = None
        self.supervisor: Optional[FleetSupervisor] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None

    def start(self) -> "FleetThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("fleet thread did not become ready")
        if self.error is not None:
            raise RuntimeError(f"fleet failed to start: {self.error!r}")
        return self

    def wait_live(self, timeout: float = 60.0) -> "FleetThread":
        """Block until every worker has been promoted to LIVE."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.router is not None and all(
                handle.state == LIVE
                for handle in self.router.workers.values()
            ):
                return self
            time.sleep(0.05)
        states = (
            {}
            if self.router is None
            else {n: h.state for n, h in self.router.workers.items()}
        )
        raise RuntimeError(f"fleet workers not live after {timeout}s: {states}")

    def _run(self) -> None:
        kwargs = dict(self._kwargs)
        port = kwargs.pop("port")
        health_interval = kwargs.pop("health_interval")
        quiet = kwargs.pop("quiet")
        host = kwargs.pop("host", "127.0.0.1")

        async def main() -> None:
            supervisor: Optional[FleetSupervisor] = None
            router: Optional[FleetRouter] = None
            try:
                supervisor = FleetSupervisor(host=host, quiet=quiet, **kwargs)
                router = FleetRouter(
                    supervisor, host=host, port=port, quiet=quiet,
                    health_interval=health_interval,
                )
                # Same ordering as _serve_fleet_async: bind the router
                # before spawning workers, so a failed start leaks nothing.
                await router.start()
                supervisor.spawn_all()
            except BaseException as exc:  # noqa: BLE001 — surface to starter
                if router is not None:
                    try:
                        await router.stop(drain=False)
                    except Exception:
                        pass
                elif supervisor is not None:
                    supervisor.stop()
                self.error = exc
                self._ready.set()
                return
            self.router = router
            self.supervisor = supervisor
            self.port = router.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await router.serve_until_shutdown()
        asyncio.run(main())

    def stop(self) -> None:
        if self._loop is not None and self.router is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.router.request_shutdown, 0
                )
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=90)
            self._thread = None
        if self.supervisor is not None:
            # Belt and braces: no worker process may outlive the thread.
            self.supervisor.stop()

    def __enter__(self) -> "FleetThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
