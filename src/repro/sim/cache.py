"""Caches for the compiled simulation engine.

Two layers of reuse keep Pareto sweeps cheap:

* a **compiled-template cache**: the CSR structure of an RRG's TGMG (or of
  its structural elastic circuit) depends only on the graph shape, so it is
  compiled once per RRG fingerprint and re-instantiated per configuration;
* a **throughput cache** keyed by ``(configuration, cycles, warmup, seed)``:
  simulation is deterministic given a seed, so re-evaluating the same
  configuration (e.g. RC_lp_min appearing both as ``best`` and among the
  stored Pareto points) is a dictionary lookup.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (
    Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.core.rrg import RRG
from repro.sim.engine import (
    CompiledTemplate,
    compile_elastic_template,
    compile_template,
)


def rrg_fingerprint(rrg: RRG) -> Tuple:
    """Structural identity of an RRG for cache keys.

    Covers everything the simulators read: node order, delays, early flags,
    edge endpoints and branch probabilities.  Token/buffer vectors are *not*
    part of the fingerprint — they vary per configuration and enter the
    throughput-cache key separately.

    Equal fingerprints are returned as one shared object, so the many
    cache keys and service records of one graph do not each hold a copy.
    """
    nodes = tuple(
        (node.name, float(node.delay), bool(node.early)) for node in rrg.nodes
    )
    edges = tuple(
        (
            edge.src,
            edge.dst,
            None if edge.probability is None else float(edge.probability),
        )
        for edge in rrg.edges
    )
    fingerprint = (rrg.name, nodes, edges)
    if len(_FINGERPRINTS) >= _FINGERPRINTS_MAX:
        _FINGERPRINTS.clear()  # interning only shares memory; never stale
    return _FINGERPRINTS.setdefault(fingerprint, fingerprint)


#: Interned fingerprints (each maps to itself), bounded by clearing.
_FINGERPRINTS: Dict[Tuple, Tuple] = {}
_FINGERPRINTS_MAX = 256


class _EdgePairs(dict):
    """Interned ``(edge, count)`` key pairs of one edge index, by count."""

    __slots__ = ("edge",)

    def __init__(self, edge: int) -> None:
        super().__init__()
        self.edge = edge

    def __missing__(self, count) -> Tuple[int, int]:
        pair = self[count] = (self.edge, int(count))
        return pair


#: One pair table per edge index, grown on demand (under the lock, so
#: table ``i`` always holds edge ``i``).  A dense key is then a tuple of
#: shared pairs: no per-edge tuple allocation (and no garbage collector
#: churn) per cache probe.
_EDGE_PAIRS: List[_EdgePairs] = []
_EDGE_PAIRS_LOCK = threading.Lock()


def vector_key(
    vector: Union[Mapping[int, int], Sequence[int]]
) -> Tuple[Tuple[int, int], ...]:
    """Hashable form of a per-edge token/buffer vector.

    Takes the sparse ``{edge: count}`` form or the dense per-edge sequence
    (numpy ints allowed).  A dense vector gives the key of its dict with
    every edge present, ``((0, c0), (1, c1), ...)`` of plain ints, so both
    forms share in-memory and persistent cache entries.  Both forms build
    the key from the shared pair tables.
    """
    if isinstance(vector, Mapping):
        items = sorted((int(k), int(v)) for k, v in vector.items())
        if not items or items[0][0] < 0:
            return tuple(items)
        tables = _edge_pair_tables(items[-1][0] + 1)
        return tuple([tables[edge][count] for edge, count in items])
    tables = _edge_pair_tables(len(vector))
    return tuple(map(dict.__getitem__, tables, vector))


def _edge_pair_tables(edges: int) -> List[_EdgePairs]:
    """The pair tables, grown to cover edge indices below ``edges``."""
    tables = _EDGE_PAIRS
    if len(tables) < edges:
        with _EDGE_PAIRS_LOCK:
            tables.extend(
                _EdgePairs(edge) for edge in range(len(tables), edges)
            )
    return tables


class LruCache:
    """A tiny LRU dictionary with hit/miss counters.

    Public because it is the in-process tier of every cache front in the
    repository: the template/throughput caches below and the request-result
    cache of :mod:`repro.service` all count hits and misses through it.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/size counters (the exported accounting interface).

        ``hit_ratio`` is 0.0 (not NaN, not an exception) before the first
        lookup, so freshly started servers always report a valid number.
        """
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hit_ratio": round(self.hits / lookups, 6) if lookups else 0.0,
        }


#: Backwards-compatible alias of the pre-export name.
_LruCache = LruCache

_TEMPLATES = LruCache(maxsize=64)
_THROUGHPUTS = LruCache(maxsize=4096)

# Optional persistent layer behind the in-memory throughput cache.  The
# backend exposes ``get(key) -> Optional[float]`` and ``put(key, value)``;
# :func:`repro.pipeline.store.attach_persistent_throughputs` installs one
# backed by an on-disk artifact store shared across processes.
_PERSISTENT = None


def set_persistent_backend(backend) -> None:
    """Install (or with None, remove) the persistent throughput backend."""
    global _PERSISTENT
    _PERSISTENT = backend


def persistent_backend():
    """The currently installed persistent backend (None when detached)."""
    return _PERSISTENT


def compiled_template_for(
    rrg: RRG, mode: str = "tgmg", refine: bool = True
) -> CompiledTemplate:
    """The (cached) compiled template of an RRG for one simulation mode."""
    key = (rrg_fingerprint(rrg), mode, refine)
    template = _TEMPLATES.get(key)
    if template is None:
        if mode == "tgmg":
            template = compile_template(rrg, refine=refine)
        elif mode == "elastic":
            template = compile_elastic_template(rrg)
        else:
            raise ValueError(f"unknown simulation mode {mode!r}")
        _TEMPLATES.put(key, template)
    return template


def throughput_key(
    fingerprint: Tuple,
    mode: str,
    tokens: Union[Mapping[int, int], Sequence[int]],
    buffers: Union[Mapping[int, int], Sequence[int]],
    cycles: int,
    warmup: int,
    seed: Optional[int],
) -> Tuple:
    return (
        fingerprint,
        mode,
        vector_key(tokens),
        vector_key(buffers),
        int(cycles),
        int(warmup),
        seed,
    )


def cached_throughput(key: Tuple) -> Optional[float]:
    value = _THROUGHPUTS.get(key)
    if value is None and _PERSISTENT is not None:
        try:
            value = _PERSISTENT.get(key)
        except Exception:
            value = None  # a broken store must never break simulation
        if value is not None:
            _THROUGHPUTS.put(key, float(value))
    return value  # type: ignore[return-value]


def store_throughput(key: Tuple, value: float) -> None:
    _THROUGHPUTS.put(key, float(value))
    if _PERSISTENT is not None:
        try:
            _PERSISTENT.put(key, float(value))
        except Exception:
            pass  # persistence is best-effort; memory keeps the value


def cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of both caches (for tests and diagnostics)."""
    return {
        "template_hits": _TEMPLATES.hits,
        "template_misses": _TEMPLATES.misses,
        "template_size": len(_TEMPLATES),
        "throughput_hits": _THROUGHPUTS.hits,
        "throughput_misses": _THROUGHPUTS.misses,
        "throughput_size": len(_THROUGHPUTS),
    }


def clear_caches() -> None:
    """Drop every cached template and throughput (mainly for tests)."""
    _TEMPLATES.clear()
    _THROUGHPUTS.clear()
