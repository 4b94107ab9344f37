"""Persistent, content-addressed artifact store for pipeline results.

The in-memory caches of :mod:`repro.sim.cache` die with the process; this
store extends them with an on-disk layer so that

* re-running a sweep only recomputes jobs whose inputs changed (the key is a
  digest of the built RRG's fingerprint — structure, delays, probabilities,
  initial tokens/buffers — plus every stage parameter), and
* shards share results across processes: every worker reads and writes the
  same directory, with atomic ``os.replace`` publication so concurrent
  writers of the same key are safe (last writer wins with identical bytes —
  results are deterministic functions of the key).

Entries are JSON files named ``<sha256>.json`` in two-level fan-out
directories (``ab/cd/abcd....json``).  A corrupted or truncated entry is
treated as a miss and deleted; the job recomputes and rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs import trace as _trace
from repro.resilience.faults import InjectedFault
from repro.resilience import faults as _faults
from repro.resilience.retry import STORE_RETRY, RetryPolicy

#: Bump when the payload layout changes; old entries become misses.
SCHEMA_VERSION = 1


#: Exact types that are already canonical (``float(x) is x`` for a float).
_CANONICAL_SCALARS = frozenset({str, int, bool, float, type(None)})


def _str_key(item: Tuple[Any, Any]) -> str:
    return str(item[0])


def _canonical(value: Any) -> Any:
    """Convert tuples/mappings into canonical JSON-serialisable structures.

    The common exact built-in types are dispatched on ``type()`` first;
    ``isinstance`` checks, which are far slower against the ``Mapping``
    ABC, only run for subclasses and foreign types.
    """
    kind = type(value)
    if kind in _CANONICAL_SCALARS:
        return value
    if kind is list or kind is tuple:
        return [_canonical(v) for v in value]
    if kind is dict or isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=_str_key)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly and is stable across platforms.
        return float(value)
    return repr(value)


def content_key(payload: Any) -> str:
    """SHA-256 digest of the canonical JSON encoding of ``payload``."""
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactStore:
    """A directory of content-addressed JSON artifacts.

    The store never trusts its contents: reads validate JSON structure and
    the embedded schema version, and any failure degrades to a cache miss
    (the offending file is removed so it cannot fail again).

    I/O resilience: reads and writes run under ``retry`` (jittered backoff),
    with the ``store_read``/``store_write`` fault-injection sites inside the
    retried section — an injected (or marked-transient) failure is retried
    deterministically, and *exhausted* retries degrade rather than crash: a
    read becomes a miss (the job recomputes), a write is dropped (the result
    stays correct in memory, only unpublished — counted in ``dropped_writes``).
    """

    def __init__(
        self, root: os.PathLike, retry: Optional[RetryPolicy] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.retry = retry if retry is not None else STORE_RETRY
        self.hits = 0
        self.misses = 0
        self.dropped_writes = 0
        self.retried_io = 0

    # -- key layout ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    # -- generic artifacts --------------------------------------------------

    def _count_retry(self, attempt: int, exc: BaseException) -> None:
        del attempt, exc
        self.retried_io += 1

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or None on miss/corruption."""
        # Inside a trace the persistent tier gets its own span (hit/miss
        # annotated); span() is a falsy no-op without an active trace, so
        # untraced reads pay one contextvar lookup and nothing else.
        with _trace.span("store-get", key=key) as tier_span:
            payload = self._read(key)
            if tier_span:
                tier_span.annotate(tier="l3", hit=payload is not None)
            return payload

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)

        def read(attempt: int) -> Dict[str, Any]:
            _faults.check("store_read", key, attempt)
            with open(path, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
            if (
                not isinstance(wrapper, dict)
                or wrapper.get("schema") != SCHEMA_VERSION
                or "payload" not in wrapper
            ):
                raise ValueError("artifact schema mismatch")
            return wrapper

        try:
            wrapper = self.retry.call(
                read,
                retry_on=(InjectedFault,),
                salt=f"get:{key}",
                on_retry=self._count_retry,
            )
        except FileNotFoundError:
            self.misses += 1
            return None
        except InjectedFault:
            # Retries exhausted: a persistent-tier outage is a miss, never a
            # crash — the caller recomputes.
            self.misses += 1
            return None
        except (OSError, ValueError):
            # Corrupted, truncated or stale-schema entry: recover by
            # recomputing, never by crashing.
            self.misses += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return wrapper["payload"]

    def put(self, key: str, payload: Mapping[str, Any]) -> Optional[Path]:
        """Atomically publish ``payload`` under ``key``.

        Returns the published path, or None when a (injected/transient)
        write failure survived every retry — the payload is then simply not
        persisted; callers already hold it in memory and stay correct.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        wrapper = {"schema": SCHEMA_VERSION, "key": key, "payload": payload}
        text = json.dumps(wrapper, sort_keys=True)

        def write(attempt: int) -> Path:
            _faults.check("store_write", key, attempt)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            return path

        try:
            return self.retry.call(
                write,
                retry_on=(InjectedFault,),
                salt=f"put:{key}",
                on_retry=self._count_retry,
            )
        except InjectedFault:
            self.dropped_writes += 1
            return None

    # -- throughput layer ---------------------------------------------------
    #
    # Fine-grained persistence for the simulation throughput cache: one tiny
    # entry per (fingerprint, vectors, cycles, warmup, seed) key, shared by
    # every process pointed at the same directory.  Installed into
    # repro.sim.cache via attach_persistent_throughputs().

    def throughput_digest(self, key: Tuple) -> str:
        return content_key({"kind": "throughput", "key": key})

    def get_throughput(self, key: Tuple) -> Optional[float]:
        payload = self.get(self.throughput_digest(key))
        if payload is None:
            return None
        value = payload.get("throughput")
        if not isinstance(value, (int, float)):
            return None
        return float(value)

    def put_throughput(self, key: Tuple, value: float) -> None:
        self.put(self.throughput_digest(key), {"throughput": float(value)})

    # -- maintenance --------------------------------------------------------

    def _entries(self) -> Iterator[Path]:
        yield from self.root.glob("??/??/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self),
            "dropped_writes": self.dropped_writes,
            "retried_io": self.retried_io,
        }


def attach_persistent_throughputs(store: Optional[ArtifactStore]) -> None:
    """Back the in-memory throughput cache with ``store`` (None detaches).

    After attaching, :func:`repro.sim.cache.cached_throughput` falls through
    to the store on memory misses and :func:`repro.sim.cache.store_throughput`
    writes through, so independent processes pointed at the same directory
    share simulated throughputs.
    """
    from repro.sim import cache as _cache

    if store is None:
        _cache.set_persistent_backend(None)
    else:
        _cache.set_persistent_backend(
            _PersistentThroughputBackend(store)
        )


class _PersistentThroughputBackend:
    """Adapter matching repro.sim.cache's persistent-backend protocol."""

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store

    def get(self, key: Tuple) -> Optional[float]:
        return self.store.get_throughput(key)

    def put(self, key: Tuple, value: float) -> None:
        self.store.put_throughput(key, value)
