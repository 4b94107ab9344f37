"""The asyncio JSON-over-HTTP front of the optimization service.

Stdlib only: a tiny HTTP/1.1 implementation over ``asyncio.start_server``
(the request bodies and responses are small JSON documents; no keep-alive,
no chunking).  Endpoints:

========================  ====================================================
``POST /submit``          Admit a request; 200 with the record, 400
                          malformed, 429 queue full, 503 draining.  A
                          record already ``done`` (a cache hit) also carries
                          ``result``, so a hit costs one call.
``GET /status/<id>``      Record status + progress events.  ``?events_from=N``
                          returns only events N onwards (incremental
                          streaming); ``&wait=S`` holds the call until there
                          are events beyond N or the record is terminal.
``GET /result/<id>``      The result document (200), 202 while pending,
                          404 unknown, 500 failed.  ``?wait=S`` holds the
                          call until the record is terminal or S seconds
                          pass.
``GET /stats``            Broker/cache/queue counters.
``GET /metrics``          Prometheus text exposition of the same counters
                          (plus latency histograms and process-global
                          tallies) via :mod:`repro.obs.names`.
``GET /trace/<id>``       Recorded spans of one trace id (from the bounded
                          in-memory ring and the JSONL sink, if any).
``GET /healthz``          Liveness probe.
``POST /shutdown``        Graceful drain + exit (what SIGTERM does).
========================  ====================================================

A simulate submit is answered 400 when ``cycles + warmup`` exceeds
:data:`repro.service.protocol.MAX_SIM_CYCLES` (10^7) or a ``tokens`` or
``buffers`` count lies outside 0 ..
:data:`repro.service.protocol.MAX_EDGE_COUNT` (4096).

A hold of ``wait=S`` is clamped to :data:`READ_TIMEOUT_S`; an ``S`` that is
not a non-negative number is answered 400.  A drain releases every held call
at once: one whose record is not ready gets 503.

Any endpoint answers 400 to a ``Content-Length`` that is not a
non-negative integer, 431 to a request-head line longer than
:data:`MAX_LINE_BYTES` or a head of more than :data:`MAX_HEADER_LINES`
header lines, and 408 to a request not complete within
:data:`READ_TIMEOUT_S`.

Shutdown: the first SIGINT/SIGTERM stops admission (new submits get 503),
drains queued and in-flight work — publishing artifacts as jobs finish —
then exits 0.  A second signal aborts hard and the process exits nonzero.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import signal
import threading
from typing import Any, Dict, Optional, Tuple

from repro.obs import trace as _trace
from repro.service.broker import Broker, RequestRecord
from repro.service.protocol import (
    QueueFullError,
    RequestError,
    ShuttingDownError,
)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Refuse to buffer absurd request bodies (admission control for bytes).
MAX_BODY_BYTES = 1 << 20

#: Seconds a client gets to deliver one complete request; a connection that
#: stalls longer is answered 408 instead of pinning a handler forever.
READ_TIMEOUT_S = 30.0

#: Longest accepted request-head line (request line included), in bytes.
MAX_LINE_BYTES = 8 * 1024

#: Most header lines accepted in one request head.
MAX_HEADER_LINES = 100


class FramingError(Exception):
    """A request that cannot be read as HTTP; answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class TextPayload(str):
    """Marker: a pre-rendered plain-text response body (``/metrics``)."""


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Any]]:
    """Read one HTTP/1.1 request; returns (method, path, parsed JSON body).

    The server speaks a tiny close-delimited JSON dialect.  Oversized or
    malformed bodies come back as ``{"__oversized__"|"__malformed__": True}``
    markers so the caller can answer 400 instead of resetting the
    connection.  Unreadable framing raises :class:`FramingError`: 400 for a
    ``Content-Length`` that is not a non-negative integer, 431 for a head
    line over :data:`MAX_LINE_BYTES` or more than :data:`MAX_HEADER_LINES`
    header lines, 408 when the request is not complete within
    :data:`READ_TIMEOUT_S`.
    """
    try:
        return await asyncio.wait_for(_read_framed(reader), READ_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise FramingError(
            408, f"request not received within {READ_TIMEOUT_S:g} s"
        ) from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request-head line (``b""`` at EOF), capped at MAX_LINE_BYTES."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        line = exc.partial
    except asyncio.LimitOverrunError:
        # Longer than the stream's own buffer limit, so longer than ours.
        line = None
    if line is None or len(line) > MAX_LINE_BYTES:
        raise FramingError(
            431, f"request-head line longer than {MAX_LINE_BYTES} bytes"
        )
    return line


async def _read_framed(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Any]]:
    request_line = await _read_line(reader)
    if not request_line.strip():
        return None
    try:
        method, path, _ = request_line.decode("latin-1").split(" ", 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    for count in itertools.count():
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        if count == MAX_HEADER_LINES:
            raise FramingError(
                431, f"more than {MAX_HEADER_LINES} header lines"
            )
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise FramingError(400, f"invalid Content-Length {declared!r}")
    length = int(declared)
    if length > MAX_BODY_BYTES:
        # Drain (and discard) the body so the 400 reaches the client
        # instead of a connection reset from closing with bytes unread.
        remaining = length
        while remaining > 0:
            chunk = await reader.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)
        return method.upper(), path, {"__oversized__": True}
    raw = await reader.readexactly(length) if length else b""
    body: Any = None
    if raw:
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            body = {"__malformed__": True}
    return method.upper(), path, body


async def write_response(
    writer: asyncio.StreamWriter, status: int, payload: Any
) -> None:
    """Write one response and flush (connection-close framing).

    JSON by default; a :class:`TextPayload` body goes out verbatim as
    ``text/plain`` (the Prometheus exposition content type).
    """
    if isinstance(payload, TextPayload):
        body = str(payload).encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    reason = _REASONS.get(status, "OK")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


def trace_endpoint(trace_id: str) -> Tuple[int, Any]:
    """The ``GET /trace/<id>`` body: every known span of one trace.

    Merges the process-local ring with the JSONL sink (ring entries win on
    id collisions — they are the freshest copy), so a span survives either
    ring eviction or a missing sink.
    """
    if not _trace.valid_trace_ref(trace_id) or "/" in trace_id:
        return 400, {"error": f"invalid trace id {trace_id!r}"}
    spans = {
        record["span_id"]: record
        for record in _trace.ring_spans(trace_id)
    }
    sink = _trace.trace_sink_path()
    if sink is not None:
        for record in _trace.read_sink(sink, trace_id):
            spans.setdefault(record.get("span_id", ""), record)
    ordered = sorted(
        spans.values(),
        key=lambda record: (
            record.get("started_unix", 0.0), str(record.get("span_id"))
        ),
    )
    return 200, {"trace_id": trace_id, "spans": ordered}


class ServiceServer:
    """One service instance: a broker behind an HTTP listener."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        store: Optional[str] = None,
        shards: int = 1,
        queue_limit: int = 32,
        l1_size: int = 256,
        quiet: bool = True,
        metrics_digest: bool = False,
        digest_interval: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.quiet = quiet
        self.metrics_digest = metrics_digest
        self.digest_interval = max(0.5, float(digest_interval))
        self.broker = Broker(
            store=store, shards=shards, queue_limit=queue_limit, l1_size=l1_size
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._exit_code = 0
        self._digest_task: Optional[asyncio.Task] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self.broker.store is not None:
            # Traced spans persist next to the artifact store, where
            # `repro trace show --store` can read them later.
            _trace.set_trace_sink(
                _trace.store_sink_path(self.broker.store.root)
            )
        await self.broker.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.metrics_digest:
            self._digest_task = asyncio.get_running_loop().create_task(
                self._digest_loop()
            )
        self._log(f"service: listening on http://{self.host}:{self.port}")

    async def _digest_loop(self) -> None:
        """Periodic one-line metrics digest (``serve --metrics``)."""
        while True:
            await asyncio.sleep(self.digest_interval)
            stats = self.broker.stats()
            requests = stats.get("requests", {})
            queue = stats.get("queue", {})
            l1 = (stats.get("cache") or {}).get("l1") or {}
            print(
                "metrics: uptime={:.0f}s submitted={} completed={} failed={} "
                "queue={}/{} drain_rps={} l1_hit_ratio={}".format(
                    stats.get("uptime_seconds", 0.0),
                    requests.get("submitted", 0),
                    requests.get("completed", 0),
                    requests.get("failed", 0),
                    queue.get("depth", 0),
                    queue.get("limit", 0),
                    queue.get("drain_rate_rps", 0.0),
                    l1.get("hit_ratio", 0.0),
                ),
                flush=True,
            )

    async def serve_until_shutdown(self) -> int:
        """Block until a shutdown is requested; returns the exit code."""
        await self._shutdown.wait()
        await self.stop(drain=self._exit_code == 0)
        return self._exit_code

    async def stop(self, drain: bool = True) -> None:
        if self._digest_task is not None:
            self._digest_task.cancel()
            self._digest_task = None
        # Release held calls first: the listener's wait_closed waits for
        # open connections, and a drain must never sit behind a hold.
        self.broker.stop_accepting()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            self._log("service: draining in-flight work")
        await self.broker.close(drain=drain)
        self._log("service: stopped")

    def request_shutdown(self, exit_code: int = 0) -> None:
        """Ask the serve loop to stop (idempotent, loop-thread only)."""
        self._exit_code = exit_code or self._exit_code
        self._shutdown.set()

    def install_signal_handlers(self, loop: asyncio.AbstractEventLoop) -> None:
        """First SIGINT/SIGTERM drains gracefully; the second aborts (exit 1)."""
        def _signal() -> None:
            if not self._shutdown.is_set():
                self._log(
                    "service: shutdown requested — draining "
                    "(signal again to abort)"
                )
                self.request_shutdown(0)
            else:
                self._log("service: hard abort")
                # The compute executor's threads are non-daemon and joined
                # by the interpreter's atexit hook, so any graceful exit
                # would still block behind an in-flight MILP sweep.  A hard
                # abort means now.
                os._exit(1)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _signal)
            except (NotImplementedError, RuntimeError):
                pass

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(message, flush=True)

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
            await self._respond(writer, status, payload)
        except FramingError as exc:
            try:
                await self._respond(writer, exc.status, {"error": str(exc)})
            except ConnectionError:
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            try:
                await self._respond(
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

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        await write_response(writer, status, payload)

    async def _route(
        self, method: str, path: str, body: Any
    ) -> Tuple[int, Any]:
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        if isinstance(body, dict) and body.get("__oversized__"):
            return 400, {"error": "request body too large"}
        if isinstance(body, dict) and body.get("__malformed__"):
            return 400, {"error": "request body is not valid JSON"}

        if method == "POST" and path == "/submit":
            return await self._submit(body)
        if method == "GET" and path.startswith("/status/"):
            return await self._status(path[len("/status/"):], query)
        if method == "GET" and path.startswith("/result/"):
            return await self._result(path[len("/result/"):], query)
        if method == "GET" and path == "/stats":
            return 200, self.broker.stats()
        if method == "GET" and path == "/metrics":
            return 200, TextPayload(self.broker.render_metrics())
        if method == "GET" and path.startswith("/trace/"):
            return trace_endpoint(path[len("/trace/"):])
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "accepting": self.broker.accepting}
        if method == "POST" and path == "/shutdown":
            # Answer first, then stop: request_shutdown only sets an event.
            asyncio.get_running_loop().call_soon(self.request_shutdown, 0)
            return 200, {"ok": True, "draining": True}
        return 404, {"error": f"no route {method} {path}"}

    async def _submit(self, body: Any) -> Tuple[int, Any]:
        try:
            record = await self.broker.submit(body)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        except QueueFullError as exc:
            # Derived from queue depth x measured drain rate, not hardcoded:
            # clients back off proportionally to the actual backlog.
            return 429, {
                "error": str(exc),
                "retry_after": self.broker.retry_after_hint(),
            }
        except ShuttingDownError as exc:
            return 503, {"error": str(exc)}
        reply = record.describe()
        if record.status == "done":
            reply["result"] = record.result
        return 200, reply

    async def _lookup(
        self, request_id: str, query: Dict[str, str], events_from: Optional[int]
    ) -> Tuple[Optional[RequestRecord], Optional[Tuple[int, Any]]]:
        """The record a read endpoint answers for, after its ``wait`` hold.

        Returns ``(record, None)``, or ``(None, reply)`` with the 400, 404
        or 503 reply to send instead.  ``events_from`` (None for
        ``/result``) makes the hold also end on events beyond that cursor.
        """
        try:
            seconds = _wait_seconds(query)
        except RequestError as exc:
            return None, (400, {"error": str(exc)})
        record = self.broker.get(request_id)
        if record is None:
            return None, (404, {"error": f"unknown request {request_id!r}"})
        if seconds is not None:
            ready = await self.broker.hold(record, seconds, events_from)
            if not ready and not self.broker.accepting:
                return None, (
                    503, {"id": record.id, "error": "service is shutting down"}
                )
        return record, None

    async def _status(self, request_id: str, query: str) -> Tuple[int, Any]:
        params = _query_params(query)
        try:
            events_from = max(0, int(params.get("events_from", "0")))
        except ValueError:
            events_from = 0
        record, reply = await self._lookup(request_id, params, events_from)
        if reply is not None:
            return reply
        return 200, record.describe(events_from=events_from)

    async def _result(self, request_id: str, query: str) -> Tuple[int, Any]:
        record, reply = await self._lookup(
            request_id, _query_params(query), None
        )
        if reply is not None:
            return reply
        status = record.status
        if status == "failed":
            return 500, {"id": record.id, "status": status, "error": record.error}
        if status != "done":
            return 202, {"id": record.id, "status": status}
        return 200, {
            "id": record.id,
            "status": status,
            "cached": record.cached,
            "result": record.result,
        }


def _query_params(query: str) -> Dict[str, str]:
    """``a=1&b=2`` -> ``{"a": "1", "b": "2"}`` (the last repeat wins)."""
    params = {}
    for part in query.split("&"):
        name, _, value = part.partition("=")
        if name:
            params[name] = value
    return params


def _wait_seconds(params: Dict[str, str]) -> Optional[float]:
    """The ``wait=S`` hold clamped to READ_TIMEOUT_S; None when absent.

    Raises:
        RequestError: ``S`` is not a non-negative number (NaN included).
    """
    raw = params.get("wait")
    if raw is None:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    if not seconds >= 0.0:
        raise RequestError(f"invalid wait {raw!r}: not a non-negative number")
    return min(seconds, READ_TIMEOUT_S)


async def _serve_async(server: ServiceServer) -> int:
    loop = asyncio.get_running_loop()
    await server.start()
    server.install_signal_handlers(loop)
    try:
        return await server.serve_until_shutdown()
    except asyncio.CancelledError:
        # Hard abort path: tasks were cancelled by the second signal.
        await server.stop(drain=False)
        return 1


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    store: Optional[str] = None,
    shards: int = 1,
    queue_limit: int = 32,
    quiet: bool = False,
    metrics_digest: bool = False,
) -> int:
    """Run the service until shutdown; returns the process exit code."""
    server = ServiceServer(
        host=host, port=port, store=store, shards=shards,
        queue_limit=queue_limit, quiet=quiet, metrics_digest=metrics_digest,
    )
    try:
        return asyncio.run(_serve_async(server))
    except KeyboardInterrupt:
        return 1


class ServerThread:
    """A service running on a daemon thread (tests, benchmarks, notebooks).

    Usage::

        with ServerThread(store=path) as server:
            client = ServiceClient(port=server.port)
            ...
    """

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("quiet", True)
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[ServiceServer] = None
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread did not become ready")
        if self.error is not None:
            raise RuntimeError(f"service failed to start: {self.error!r}")
        return self

    def _run(self) -> None:
        async def main() -> None:
            server = ServiceServer(**self._kwargs)
            try:
                await server.start()
            except BaseException as exc:  # noqa: BLE001 — surface to starter
                self.error = exc
                self._ready.set()
                return
            self.server = server
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await server.serve_until_shutdown()
        asyncio.run(main())

    def stop(self) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown, 0)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
