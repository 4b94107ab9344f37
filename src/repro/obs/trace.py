"""Request tracing: contextvars-scoped spans with deterministic ids.

A *trace* follows one logical request (a CLI run, a service submit) across
every layer it touches; a *span* is one timed operation inside it (queue
wait, pipeline job, optimize stage, kernel batch, ...).  Spans carry:

* ``trace_id`` — opaque hex string minted once at the edge (client or CLI)
  and propagated verbatim via the ``x-repro-trace`` request field.
* ``span_id`` — hash-derived from ``(trace_id, parent_id, name, index)``
  through :func:`repro.seeding.derive_seed`, so chaos/replay tests see the
  same ids for the same request shape (no wall-clock or RNG involved).
* monotonic wall time (``time.perf_counter``) and CPU time
  (``time.process_time``), plus free-form ``annotations``.

Completed spans land in a bounded in-memory ring (queried by the
``/trace/<id>`` endpoints and ``--profile``) and, when a sink is
configured, are appended as single JSONL lines next to the artifact store
so every process sharing a store directory contributes to one file.

Tracing is strictly observational: span ids and trace ids never enter
cache keys, canonical specs, or stored payloads.  When no trace is active
every hook here is a cheap no-op.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.seeding import derive_seed

# The top-level JSON field used to propagate "<trace_id>/<parent_span_id>"
# on service requests.  Stray body fields are ignored by request preparers,
# so old servers tolerate it and it can never reach a cache key.
TRACE_FIELD = "x-repro-trace"

# Bounded ring of completed span dicts (process-wide).
RING_CAPACITY = 4096

_MAX_ID_CHARS = 64


class Span:
    """One timed operation within a trace.

    Mutable while open; closed exactly once, at which point it is recorded
    to the ring (and sink).  Truthy, so call sites can guard expensive
    annotation computation with ``if span:``.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "started_unix",
        "annotations",
        "_start",
        "_cpu_start",
        "seconds",
        "cpu_seconds",
        "_children",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started_unix = time.time()
        self.annotations: Dict[str, Any] = {}
        self._start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self._children = 0

    def __bool__(self) -> bool:
        return True

    def annotate(self, **fields: Any) -> None:
        """Attach observability metadata (never read by computation)."""

        self.annotations.update(fields)

    def next_child_id(self, name: str) -> str:
        index = self._children
        self._children += 1
        return derive_span_id(self.trace_id, self.span_id, name, index)

    def close(self) -> None:
        self.seconds = time.perf_counter() - self._start
        self.cpu_seconds = time.process_time() - self._cpu_start

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_unix": round(self.started_unix, 6),
            "seconds": round(self.seconds, 9),
            "cpu_seconds": round(self.cpu_seconds, 9),
            "pid": os.getpid(),
        }
        if self.annotations:
            record["annotations"] = self.annotations
        return record


class _NullSpan:
    """Falsy stand-in yielded when no trace is active; every hook no-ops."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def annotate(self, **fields: Any) -> None:
        return None


NULL_SPAN = _NullSpan()

_current_span: ContextVar[Optional[Span]] = ContextVar("repro-obs-span", default=None)

_ring_lock = threading.Lock()
_ring: deque = deque(maxlen=RING_CAPACITY)
_sink_path: Optional[Path] = None


def new_trace_id(seed: Optional[int] = None, *labels: Any) -> str:
    """Mint a trace id: random by default, derived when a seed is given.

    Passing a seed makes trace ids reproducible for deterministic tests;
    production edges use the random form so concurrent clients never
    collide.
    """

    if seed is not None:
        return format(derive_seed(seed, "trace", *labels), "08x")
    return uuid.uuid4().hex[:16]


def derive_span_id(trace_id: str, parent_id: str, name: str, index: int) -> str:
    """Hash-derive a span id; stable for a given position in the tree."""

    return format(derive_seed(0, "span", trace_id, parent_id, name, index), "08x")


def valid_trace_ref(value: Any) -> bool:
    """Validate an ``x-repro-trace`` value: ``trace_id[/parent_span_id]``."""

    if not isinstance(value, str) or not value or len(value) > 2 * _MAX_ID_CHARS + 1:
        return False
    parts = value.split("/")
    if len(parts) > 2:
        return False
    for part in parts:
        if not part or len(part) > _MAX_ID_CHARS:
            return False
        if not all(ch.isalnum() or ch in "._-" for ch in part):
            return False
    return True


def parse_trace_ref(value: str) -> tuple[str, Optional[str]]:
    """Split a validated trace ref into ``(trace_id, parent_span_id)``."""

    trace_id, _, parent = value.partition("/")
    return trace_id, (parent or None)


def format_trace_ref(trace_id: str, span_id: Optional[str]) -> str:
    return f"{trace_id}/{span_id}" if span_id else trace_id


def current_trace_id() -> Optional[str]:
    active = _current_span.get()
    return active.trace_id if active is not None else None


def current_span_id() -> Optional[str]:
    active = _current_span.get()
    return active.span_id if active is not None else None


def current_context() -> Optional[str]:
    """The ``trace_id/span_id`` propagation ref for the active span."""

    active = _current_span.get()
    if active is None:
        return None
    return format_trace_ref(active.trace_id, active.span_id)


@contextmanager
def start_trace(
    name: str,
    trace_id: Optional[str] = None,
    parent_span_id: Optional[str] = None,
) -> Iterator[Span]:
    """Open a root span, minting a trace id unless one is propagated in."""

    tid = trace_id or new_trace_id()
    root = Span(
        trace_id=tid,
        span_id=derive_span_id(tid, parent_span_id or "", name, 0),
        parent_id=parent_span_id,
        name=name,
    )
    token = _current_span.set(root)
    try:
        yield root
    finally:
        _current_span.reset(token)
        root.close()
        record_raw(root.to_dict())


@contextmanager
def maybe_trace(
    trace_ref: Optional[str],
    name: str,
) -> Iterator[Any]:
    """Open a trace scope from a propagated ref, or no-op when absent.

    Used at thread boundaries (service worker threads) where the
    caller's contextvars do not flow across.
    """

    if not trace_ref or not valid_trace_ref(trace_ref):
        yield NULL_SPAN
        return
    trace_id, parent = parse_trace_ref(trace_ref)
    with start_trace(name, trace_id=trace_id, parent_span_id=parent) as root:
        yield root


@contextmanager
def span(name: str, **annotations: Any) -> Iterator[Any]:
    """Open a child span under the active trace; no-op without one."""

    parent = _current_span.get()
    if parent is None:
        yield NULL_SPAN
        return
    child = Span(
        trace_id=parent.trace_id,
        span_id=parent.next_child_id(name),
        parent_id=parent.span_id,
        name=name,
    )
    if annotations:
        child.annotations.update(annotations)
    token = _current_span.set(child)
    try:
        yield child
    finally:
        _current_span.reset(token)
        child.close()
        record_raw(child.to_dict())


def record_span(name: str, seconds: float, **annotations: Any) -> Optional[Dict[str, Any]]:
    """Record a completed child span with an externally measured duration.

    Used where the timed work ran somewhere contextvars cannot reach —
    e.g. sharded pipeline jobs whose wall time is reported back by the
    ``ProcessPoolExecutor`` worker.
    """

    parent = _current_span.get()
    if parent is None:
        return None
    record: Dict[str, Any] = {
        "trace_id": parent.trace_id,
        "span_id": parent.next_child_id(name),
        "parent_id": parent.span_id,
        "name": name,
        "started_unix": round(time.time() - seconds, 6),
        "seconds": round(float(seconds), 9),
        "cpu_seconds": 0.0,
        "pid": os.getpid(),
    }
    if annotations:
        record["annotations"] = dict(annotations)
    record_raw(record)
    return record


def finish_span_record(
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    name: str,
    started_unix: float,
    seconds: float,
    **annotations: Any,
) -> Dict[str, Any]:
    """Record a completed span with explicit ids and timing.

    Event-loop components (the broker) time requests with their
    own clocks and mint span ids up front for propagation; this records
    the finished span without touching the contextvar stack.
    """

    record: Dict[str, Any] = {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "started_unix": round(started_unix, 6),
        "seconds": round(max(0.0, float(seconds)), 9),
        "cpu_seconds": 0.0,
        "pid": os.getpid(),
    }
    if annotations:
        record["annotations"] = {k: v for k, v in annotations.items() if v is not None}
    record_raw(record)
    return record


def record_raw(record: Dict[str, Any]) -> None:
    """Append a completed span dict to the ring and the sink, if any."""

    with _ring_lock:
        _ring.append(record)
        sink = _sink_path
    if sink is not None:
        try:
            with open(sink, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass  # observability must never take down the request path


def ring_spans(trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
    with _ring_lock:
        records = list(_ring)
    if trace_id is None:
        return records
    return [record for record in records if record.get("trace_id") == trace_id]


def clear_ring() -> None:
    with _ring_lock:
        _ring.clear()


def set_trace_sink(path: Optional[os.PathLike] = None) -> Optional[Path]:
    """Point the JSONL sink at ``path`` (``None`` disables); returns it.

    Lines are appended with small single ``write`` calls, so multiple
    processes sharing one store directory can target the same file.
    """

    global _sink_path
    with _ring_lock:
        if path is None:
            _sink_path = None
        else:
            _sink_path = Path(path)
            _sink_path.parent.mkdir(parents=True, exist_ok=True)
        return _sink_path


def trace_sink_path() -> Optional[Path]:
    with _ring_lock:
        return _sink_path


def store_sink_path(store_root: os.PathLike) -> Path:
    """Canonical sink location next to an artifact store root."""

    return Path(store_root) / "traces" / "spans.jsonl"


def read_sink(path: os.PathLike, trace_id: Optional[str] = None) -> List[Dict[str, Any]]:
    """Load spans from a JSONL sink, optionally filtered by trace id."""

    records: List[Dict[str, Any]] = []
    sink = Path(path)
    if not sink.exists():
        return records
    with open(sink, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn line from a concurrent append
            if trace_id is None or record.get("trace_id") == trace_id:
                records.append(record)
    return records


def assemble_tree(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest span dicts into forests via parent ids; roots sorted by start.

    Unknown parents (span evicted from the ring, foreign process) leave
    the child as a root rather than dropping it.
    """

    by_id: Dict[str, Dict[str, Any]] = {}
    for record in spans:
        entry = dict(record)
        entry["children"] = []
        by_id[entry["span_id"]] = entry
    roots: List[Dict[str, Any]] = []
    for entry in by_id.values():
        parent = by_id.get(entry.get("parent_id") or "")
        if parent is not None and parent is not entry:
            parent["children"].append(entry)
        else:
            roots.append(entry)
    def _sort(nodes: List[Dict[str, Any]]) -> None:
        nodes.sort(key=lambda node: (node.get("started_unix", 0.0), node["span_id"]))
        for node in nodes:
            _sort(node["children"])
    _sort(roots)
    return roots
