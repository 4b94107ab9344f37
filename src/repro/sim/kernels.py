"""The generated-C simulation kernel (the fast path).

The pure-python :class:`repro.sim.scalar.ScalarSimulator` advances one lane
with event-driven bookkeeping; its inner loop is the cost center of every
search evaluation.  This module emits that exact loop — same worklist, same
threshold crossings, same ``random.Random``-compatible guard draws — as C,
compiles it once per machine with the system C compiler and loads it
through ``ctypes``.  Two backends exist:

* ``c`` — the generated kernel.  :func:`run_windows` runs every lane of a
  batch in one C call on pthreads (as many as the CPUs this process may
  use, capped at the lane count, and only for the duration of the call);
  ``sim.batch.run_models`` calls it once per batch.  :func:`run_window`
  runs one lane and keeps its full state, for the state-parity tests;
* ``python`` — the fallback: :meth:`ScalarSimulator.step` itself.

Both are firing-for-firing identical, so results never depend on which one
ran.  Selection happens at import time from ``REPRO_SIM_KERNEL``:

* ``auto`` (default) — the C kernel if a C compiler is on ``PATH``, else
  pure python;
* ``c`` — require the C kernel (raise if unavailable);
* ``python`` — force the pure-python fallback.

The C kernel is *materialized* lazily (compiled at first use, guarded by a
lock); under ``auto`` a build failure demotes to python and records the
reason in :func:`kernel_info`.

Bit-identical RNG: guard draws must consume the stream of one fresh
``random.Random(seed)`` in exactly the reference order (cycle start, early
node order, only when no guard is held).  The kernel carries CPython's
MT19937 itself: each lane is seeded with the 624 state words and the index
of ``random.Random(seed).getstate()``, and every draw is ``random()``'s
53-bit construction from two 32-bit outputs, so the kernel consumes exactly
the uniforms the reference consumes, bit for bit, and never returns to
python mid-run.  Lanes share nothing but the read-only structure, so a
batch's windows do not depend on how many threads ran it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import random
import shutil
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

_ENV_VAR = "REPRO_SIM_KERNEL"
_CACHE_ENV_VAR = "REPRO_SIM_KERNEL_CACHE"
_BACKENDS = ("auto", "c", "python")

#: Compiler flags of the shared object; part of its cache name.  No
#: ``-march=native`` (the cache may be shared across machines) and no
#: ``-ffast-math`` (results must stay bit-identical to python).
_CFLAGS = ("-O3", "-shared", "-fPIC", "-pthread")

#: Words of MT19937 state (CPython's ``N``).
_MT_WORDS = 624


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: Threads a :func:`run_windows` call runs its lanes on (capped at the lane
#: count): the CPUs this process may use.
_WORKERS = max(1, _usable_cpus())


# -- the generated C kernel ----------------------------------------------------
#
# Cycles of the event-driven engine over flat int64/float64 arrays; the body
# is a statement-for-statement mirror of ``ScalarSimulator.step`` (same
# worklist order, same threshold crossings, same guard-draw positions), so
# markings, firings and RNG consumption are bit-identical.
#
# The structure arrays come in one ``Plan`` (built once per ``KernelPlan``);
# lane state is carried in the arrays plus ``io``: ``io[0]`` the cycle
# counter, ``io[1]`` the MT19937 index into ``mt``, ``io[2]`` the persistent
# ready-list length.  ``repro_lane_init`` sets up a lane's start state;
# ``repro_sim_kernel`` runs ``warmup + cycles`` cycles and copies ``firings``
# into ``baseline`` at the warm-up boundary; ``repro_sim_batch`` runs every
# lane of a batch on pthreads, each worker reusing one set of lane scratch.

_C_SOURCE = r"""
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t I64;

typedef struct {
    I64 num_nodes, num_edges, num_early;
    const I64 *cons, *in_ptr, *in_idx, *out_ptr, *out_idx;
    const I64 *early_nodes, *early_slot;
    const I64 *guard_ptr, *guard_edges;
    const double *guard_cumw, *guard_total;
    const I64 *guard_hi;
    I64 queue_cap, ready_cap;
} Plan;

/* CPython's MT19937 (Modules/_randommodule.c): genrand_uint32 ... */
#define MT_N 624
#define MT_M 397

static uint32_t genrand_uint32(uint32_t *mt, I64 *index)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (*index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        *index = 0;
    }
    y = mt[(*index)++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* ... and random(): a 53-bit float from two outputs. */
static double random_random(uint32_t *mt, I64 *index)
{
    uint32_t a = genrand_uint32(mt, index) >> 5;
    uint32_t b = genrand_uint32(mt, index) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

void repro_sim_kernel(
    const Plan *plan, I64 warmup, I64 cycles, I64 depth,
    const I64 *latency,
    I64 *marking, I64 *deficit, I64 *pending, I64 *firings, I64 *baseline,
    I64 *ring_count, I64 *ring_edges,
    I64 *queue, I64 *next_ready, I64 *fired_cycle,
    uint32_t *mt, I64 *io)
{
    const I64 num_nodes = plan->num_nodes;
    const I64 num_edges = plan->num_edges;
    const I64 num_early = plan->num_early;
    const I64 *cons = plan->cons;
    const I64 *in_ptr = plan->in_ptr, *in_idx = plan->in_idx;
    const I64 *out_ptr = plan->out_ptr, *out_idx = plan->out_idx;
    const I64 *early_nodes = plan->early_nodes;
    const I64 *early_slot = plan->early_slot;
    const I64 *guard_ptr = plan->guard_ptr, *guard_edges = plan->guard_edges;
    const double *guard_cumw = plan->guard_cumw;
    const double *guard_total = plan->guard_total;
    const I64 *guard_hi = plan->guard_hi;
    I64 cycle = io[0];
    I64 mt_index = io[1];
    I64 nr_len = io[2];
    const I64 total = warmup + cycles;
    for (I64 done = 0;; done++) {
        if (done == warmup)
            memcpy(baseline, firings, (size_t)num_nodes * sizeof(I64));
        if (done == total) break;
        I64 qlen = nr_len;
        for (I64 i = 0; i < nr_len; i++) queue[i] = next_ready[i];
        nr_len = 0;

        /* 1. deliveries */
        I64 slot = cycle % depth;
        I64 *bucket = ring_edges + slot * num_edges;
        I64 count = ring_count[slot];
        for (I64 i = 0; i < count; i++) {
            I64 edge = bucket[i];
            I64 value = marking[edge];
            marking[edge] = value + 1;
            if (value == 0) {
                I64 consumer = cons[edge];
                I64 position = early_slot[consumer];
                if (position >= 0) {
                    if (pending[position] == edge) queue[qlen++] = consumer;
                } else {
                    I64 remaining = deficit[consumer] - 1;
                    deficit[consumer] = remaining;
                    if (remaining == 0) queue[qlen++] = consumer;
                }
            }
        }
        ring_count[slot] = 0;

        /* 2. guard draws */
        for (I64 position = 0; position < num_early; position++) {
            I64 guard = pending[position];
            if (guard < 0) {
                double x = random_random(mt, &mt_index) * guard_total[position];
                I64 gbase = guard_ptr[position];
                I64 hi = guard_hi[position];
                I64 k = 0;
                while (k < hi && guard_cumw[gbase + k] <= x) k++;
                guard = guard_edges[gbase + k];
                pending[position] = guard;
            }
            if (marking[guard] >= 1) queue[qlen++] = early_nodes[position];
        }

        /* 3. firing fixpoint */
        while (qlen > 0) {
            I64 node = queue[--qlen];
            if (fired_cycle[node] == cycle) continue;
            I64 position = early_slot[node];
            if (position >= 0) {
                I64 guard = pending[position];
                if (guard < 0) guard += num_edges;
                if (marking[guard] < 1) continue;
            } else if (deficit[node] != 0) continue;
            fired_cycle[node] = cycle;
            firings[node]++;
            for (I64 k = in_ptr[node]; k < in_ptr[node + 1]; k++) {
                I64 edge = in_idx[k];
                I64 value = marking[edge] - 1;
                marking[edge] = value;
                if (value == 0) deficit[node]++;
            }
            if (position >= 0) pending[position] = -1;
            for (I64 k = out_ptr[node]; k < out_ptr[node + 1]; k++) {
                I64 edge = out_idx[k];
                I64 lat = latency[edge];
                if (lat == 0) {
                    I64 value = marking[edge];
                    marking[edge] = value + 1;
                    if (value == 0) {
                        I64 consumer = cons[edge];
                        I64 cpos = early_slot[consumer];
                        if (cpos >= 0) {
                            if (pending[cpos] == edge) queue[qlen++] = consumer;
                        } else {
                            I64 remaining = deficit[consumer] - 1;
                            deficit[consumer] = remaining;
                            if (remaining == 0) {
                                if (fired_cycle[consumer] == cycle)
                                    next_ready[nr_len++] = consumer;
                                else
                                    queue[qlen++] = consumer;
                            }
                        }
                    }
                } else {
                    I64 target = slot + lat;
                    if (target >= depth) target -= depth;
                    ring_edges[target * num_edges + ring_count[target]] = edge;
                    ring_count[target]++;
                }
            }
            if (deficit[node] == 0) next_ready[nr_len++] = node;
        }

        cycle++;
    }
    io[0] = cycle; io[1] = mt_index; io[2] = nr_len;
}

/* A lane's start state: marking0 copied, deficits counted, no guard held,
   the initial ready list (non-early nodes with no deficit, in node order)
   and the MT19937 start words of its seed. */
void repro_lane_init(
    const Plan *plan, I64 depth, const I64 *marking0,
    const uint32_t *mt0, I64 mt_index,
    I64 *marking, I64 *deficit, I64 *pending, I64 *firings, I64 *baseline,
    I64 *ring_count, I64 *next_ready, I64 *fired_cycle,
    uint32_t *mt, I64 *io)
{
    const I64 num_nodes = plan->num_nodes;
    const I64 num_edges = plan->num_edges;
    memcpy(marking, marking0, (size_t)num_edges * sizeof(I64));
    memset(deficit, 0, (size_t)num_nodes * sizeof(I64));
    for (I64 edge = 0; edge < num_edges; edge++)
        if (marking[edge] < 1) deficit[plan->cons[edge]]++;
    for (I64 position = 0; position < plan->num_early; position++)
        pending[position] = -1;
    memset(firings, 0, (size_t)num_nodes * sizeof(I64));
    memset(baseline, 0, (size_t)num_nodes * sizeof(I64));
    memset(ring_count, 0, (size_t)depth * sizeof(I64));
    I64 nr_len = 0;
    for (I64 node = 0; node < num_nodes; node++) {
        fired_cycle[node] = -1;
        if (deficit[node] == 0 && plan->early_slot[node] < 0)
            next_ready[nr_len++] = node;
    }
    memcpy(mt, mt0, MT_N * sizeof(uint32_t));
    io[0] = 0; io[1] = mt_index; io[2] = nr_len;
}

/* Every lane of a batch: workers pull lane indices from a shared counter,
   reuse one block of lane scratch and write only the lane's window counts.
   All scratch is allocated by the calling thread before any worker starts,
   so workers never allocate. */
typedef struct {
    const Plan *plan;
    I64 lanes, warmup, cycles;
    const I64 *const *latency;
    const I64 *const *marking0;
    const uint32_t *const *mt0;
    const I64 *mt_index;
    I64 *windows;
    I64 *scratch, stride, depth_cap;
    I64 next_lane, next_block;
} Batch;

static I64 lane_depth(const Plan *plan, const I64 *latency)
{
    I64 depth = 1;
    for (I64 edge = 0; edge < plan->num_edges; edge++)
        if (latency[edge] >= depth) depth = latency[edge] + 1;
    return depth;
}

static void *batch_worker(void *arg)
{
    Batch *batch = arg;
    const Plan *plan = batch->plan;
    const I64 num_nodes = plan->num_nodes;
    const I64 num_edges = plan->num_edges;
    I64 block = __atomic_fetch_add(&batch->next_block, 1, __ATOMIC_RELAXED);
    I64 *cursor = batch->scratch + block * batch->stride;
    I64 *io = cursor; cursor += 4;
    uint32_t *mt = (uint32_t *)cursor; cursor += MT_N / 2;
    I64 *marking = cursor; cursor += num_edges;
    I64 *deficit = cursor; cursor += num_nodes;
    I64 *firings = cursor; cursor += num_nodes;
    I64 *baseline = cursor; cursor += num_nodes;
    I64 *fired_cycle = cursor; cursor += num_nodes;
    I64 *pending = cursor; cursor += plan->num_early;
    I64 *queue = cursor; cursor += plan->queue_cap;
    I64 *next_ready = cursor; cursor += plan->ready_cap;
    I64 *ring_count = cursor; cursor += batch->depth_cap;
    I64 *ring_edges = cursor;
    for (;;) {
        I64 lane = __atomic_fetch_add(&batch->next_lane, 1, __ATOMIC_RELAXED);
        if (lane >= batch->lanes) break;
        const I64 *latency = batch->latency[lane];
        I64 depth = lane_depth(plan, latency);
        repro_lane_init(
            plan, depth, batch->marking0[lane],
            batch->mt0[lane], batch->mt_index[lane],
            marking, deficit, pending, firings, baseline,
            ring_count, next_ready, fired_cycle, mt, io);
        repro_sim_kernel(
            plan, batch->warmup, batch->cycles, depth, latency,
            marking, deficit, pending, firings, baseline,
            ring_count, ring_edges, queue, next_ready, fired_cycle, mt, io);
        I64 *row = batch->windows + lane * num_nodes;
        for (I64 node = 0; node < num_nodes; node++)
            row[node] = firings[node] - baseline[node];
    }
    return NULL;
}

/* Runs on up to `workers` threads, the calling thread included; a thread
   that cannot be started leaves its lanes to the others.  Returns 0, or -1
   (having run nothing) when the lane scratch cannot be allocated. */
int repro_sim_batch(
    const Plan *plan, I64 lanes, I64 warmup, I64 cycles,
    const I64 *const *latency, const I64 *const *marking0,
    const uint32_t *const *mt0, const I64 *mt_index,
    I64 workers, I64 *windows)
{
    I64 depth_cap = 1;
    for (I64 lane = 0; lane < lanes; lane++) {
        I64 depth = lane_depth(plan, latency[lane]);
        if (depth > depth_cap) depth_cap = depth;
    }
    /* io, mt, the per-edge/per-node arrays, worklists and the ring. */
    I64 stride = 4 + MT_N / 2 + plan->num_edges + 4 * plan->num_nodes
        + plan->num_early + plan->queue_cap + plan->ready_cap
        + depth_cap * (1 + plan->num_edges);
    Batch batch = {plan, lanes, warmup, cycles, latency, marking0, mt0,
                   mt_index, windows, NULL, stride, depth_cap, 0, 0};
    if (workers < 1) workers = 1;
    batch.scratch = malloc((size_t)(workers * stride) * sizeof(I64));
    pthread_t *threads = malloc((size_t)workers * sizeof(pthread_t));
    if (!batch.scratch || !threads) {
        free(batch.scratch);
        free(threads);
        return -1;
    }
    I64 started = 0;
    while (started < workers - 1
           && pthread_create(&threads[started], NULL, batch_worker, &batch) == 0)
        started++;
    batch_worker(&batch);
    for (I64 i = 0; i < started; i++) pthread_join(threads[i], NULL);
    free(threads);
    free(batch.scratch);
    return 0;
}
"""


class _CPlan(ctypes.Structure):
    """The C ``Plan``: sizes, the 12 structure arrays of a ``KernelPlan``
    and its worklist capacities."""

    _fields_ = (
        [(name, ctypes.c_int64) for name in ("num_nodes", "num_edges", "num_early")]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "cons", "in_ptr", "in_idx", "out_ptr", "out_idx",
                "early_nodes", "early_slot", "guard_ptr", "guard_edges",
                "guard_cumw", "guard_total", "guard_hi",
            )
        ]
        + [(name, ctypes.c_int64) for name in ("queue_cap", "ready_cap")]
    )


# -- backend selection ---------------------------------------------------------

_lock = threading.Lock()
_backend: str = "python"
_requested: str = "auto"
_materialized = False
_c_kernel = None  # the loaded kernel library (ctypes.CDLL), once built
_info_notes: List[str] = []


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _select_backend() -> str:
    requested = (os.environ.get(_ENV_VAR) or "auto").strip().lower() or "auto"
    if requested not in _BACKENDS:
        raise ValueError(
            f"{_ENV_VAR}={requested!r} is not one of {', '.join(_BACKENDS)}"
        )
    global _requested
    _requested = requested
    if requested == "python":
        return "python"
    if _find_compiler() is not None:
        return "c"
    if requested == "c":
        raise RuntimeError(f"{_ENV_VAR}=c but no C compiler is on PATH")
    _info_notes.append("no C compiler on PATH")
    return "python"


_backend = _select_backend()


def _kernel_path(flags=_CFLAGS) -> str:
    """Cached shared object, named by a hash of the source and the flags."""
    text = "\0".join((_C_SOURCE,) + tuple(flags))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    cache_dir = os.environ.get(_CACHE_ENV_VAR) or os.path.join(
        tempfile.gettempdir(), "repro-sim-kernels"
    )
    return os.path.join(cache_dir, f"kernel-{digest}.so")


def _build_c_kernel():
    lib_path = _kernel_path()
    if not os.path.exists(lib_path):
        os.makedirs(os.path.dirname(lib_path), exist_ok=True)
        src_path = lib_path[: -len(".so")] + ".c"
        with open(src_path, "w", encoding="utf-8") as handle:
            handle.write(_C_SOURCE)
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler on PATH")
        scratch = f"{lib_path}.tmp-{os.getpid()}"
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", scratch, src_path],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(scratch, lib_path)  # atomic under concurrent builders
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    library = ctypes.CDLL(lib_path)
    plan, i64, ptr = ctypes.POINTER(_CPlan), ctypes.c_int64, ctypes.c_void_p
    library.repro_sim_kernel.restype = None
    library.repro_sim_kernel.argtypes = (
        [plan, i64, i64, i64]  # warmup, cycles, depth
        + [ptr] * 13           # latency .. mt, io
    )
    library.repro_lane_init.restype = None
    library.repro_lane_init.argtypes = (
        [plan, i64, ptr, ptr, i64]  # depth, marking0, mt0, mt_index
        + [ptr] * 10                # marking .. mt, io
    )
    library.repro_sim_batch.restype = ctypes.c_int
    library.repro_sim_batch.argtypes = (
        [plan, i64, i64, i64]  # lanes, warmup, cycles
        + [ptr] * 4            # latency, marking0, mt0, mt_index (per lane)
        + [i64, ptr]           # workers, windows
    )
    return library


def _materialize_locked() -> None:
    """Compile the C kernel if selected; demote under ``auto`` on failure."""
    global _backend, _materialized, _c_kernel
    if _materialized:
        return
    if _backend == "c" and _c_kernel is None:
        try:
            _c_kernel = _build_c_kernel()
        except Exception as exc:  # noqa: BLE001 — demote, never break callers
            if _requested == "c":
                raise
            _info_notes.append(f"C build failed: {type(exc).__name__}: {exc}")
            _backend = "python"
    _materialized = True


def kernel_backend() -> str:
    """The active backend name (``c`` / ``python``), materialized."""
    with _lock:
        _materialize_locked()
        return _backend


def native_active() -> bool:
    """True when the compiled C kernel is loaded and selected."""
    return kernel_backend() == "c"


def kernel_info() -> dict:
    """Probe report: requested vs active backend, the threads a batch call
    runs its lanes on (1 on the python fallback) and any demotion notes."""
    with _lock:
        _materialize_locked()
        return {
            "requested": _requested,
            "backend": _backend,
            "workers": _WORKERS if _backend == "c" else 1,
            "notes": list(_info_notes),
        }


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Force a backend for the duration of a block (tests and benchmarks).

    Raises ``RuntimeError`` when the requested backend cannot be
    materialized, so callers can skip gracefully.
    """
    if name not in ("c", "python"):
        raise ValueError(f"unknown backend {name!r}")
    global _backend, _requested, _materialized
    with _lock:
        _materialize_locked()
        saved = (_backend, _requested, _materialized)
        _requested = name
        _backend = name
        _materialized = False
        try:
            _materialize_locked()
        except Exception as exc:
            _backend, _requested, _materialized = saved
            if isinstance(exc, RuntimeError):
                raise
            raise RuntimeError(
                f"kernel backend {name!r} is unavailable: {exc}"
            ) from exc
    try:
        yield name
    finally:
        with _lock:
            _backend, _requested, _materialized = saved


# -- per-structure kernel plans ------------------------------------------------


class KernelPlan:
    """Flat index arrays of one compiled structure, shared by both backends.

    Also carries the python-side lists the :class:`ScalarSimulator`
    constructor needs, so the O(V + E) numpy-scalar conversions happen once
    per structure instead of once per candidate evaluation.
    """

    def __init__(self, structure) -> None:
        num_nodes = structure.num_nodes
        num_edges = structure.num_edges
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.cons = np.ascontiguousarray(structure.cons, dtype=np.int64)
        self.in_ptr = np.ascontiguousarray(structure.in_ptr, dtype=np.int64)
        self.in_idx = np.ascontiguousarray(structure.in_idx, dtype=np.int64)
        prod = np.asarray(structure.prod, dtype=np.int64)
        # Stable sort keeps each node's out-edges in ascending edge order —
        # the same order ScalarSimulator builds its out-lists in.
        self.out_idx = np.ascontiguousarray(
            np.argsort(prod, kind="stable"), dtype=np.int64
        )
        out_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
        counts = np.bincount(prod, minlength=num_nodes) if num_edges else (
            np.zeros(num_nodes, dtype=np.int64)
        )
        np.cumsum(counts, out=out_ptr[1:])
        self.out_ptr = out_ptr
        self.early_nodes = np.ascontiguousarray(
            structure.early_pos, dtype=np.int64
        )
        early_slot = np.full(num_nodes, -1, dtype=np.int64)
        for slot, node in enumerate(self.early_nodes):
            early_slot[node] = slot
        self.early_slot = early_slot
        guard_ptr = [0]
        guard_edges: List[int] = []
        guard_cumw: List[float] = []
        guard_total: List[float] = []
        guard_hi: List[int] = []
        for table in structure.guards:
            guard_edges.extend(table.edges)
            guard_cumw.extend(table.cum_weights)
            guard_ptr.append(len(guard_edges))
            guard_total.append(table.total)
            guard_hi.append(table.hi)
        self.guard_ptr = np.asarray(guard_ptr, dtype=np.int64)
        self.guard_edges = np.asarray(guard_edges, dtype=np.int64)
        self.guard_cumw = np.asarray(guard_cumw, dtype=np.float64)
        self.guard_total = np.asarray(guard_total, dtype=np.float64)
        self.guard_hi = np.asarray(guard_hi, dtype=np.int64)
        self.num_early = len(guard_total)

        # python-side structure lists (shared with ScalarSimulator).
        in_ptr_list = self.in_ptr.tolist()
        in_idx_list = self.in_idx.tolist()
        out_ptr_list = out_ptr.tolist()
        out_idx_list = self.out_idx.tolist()
        self.cons_list = self.cons.tolist()
        self.in_edges = [
            tuple(in_idx_list[in_ptr_list[n] : in_ptr_list[n + 1]])
            for n in range(num_nodes)
        ]
        self.out_lists = [
            tuple(out_idx_list[out_ptr_list[n] : out_ptr_list[n + 1]])
            for n in range(num_nodes)
        ]
        self.early_nodes_list = self.early_nodes.tolist()
        self.early_slot_list = early_slot.tolist()
        self.is_early = [slot >= 0 for slot in self.early_slot_list]

        # Worklist capacities: per cycle the queue sees at most the previous
        # ready list (<= V + E), one delivery crossing per edge, one draw per
        # early node and two production crossings per edge; sized generously.
        self.queue_cap = 4 * (num_nodes + num_edges) + self.num_early + 64
        self.ready_cap = 2 * (num_nodes + num_edges) + 64

        # The C view of the structure arrays, marshalled once per plan.
        self.c_plan = _CPlan(
            num_nodes, num_edges, self.num_early,
            *(
                array.ctypes.data
                for array in (
                    self.cons, self.in_ptr, self.in_idx, self.out_ptr,
                    self.out_idx, self.early_nodes, self.early_slot,
                    self.guard_ptr, self.guard_edges, self.guard_cumw,
                    self.guard_total, self.guard_hi,
                )
            ),
            self.queue_cap, self.ready_cap,
        )


def plan_for(structure) -> KernelPlan:
    """The (cached) kernel plan of a compiled structure."""
    plan = getattr(structure, "_kernel_plan", None)
    if plan is None:
        plan = KernelPlan(structure)
        structure._kernel_plan = plan
    return plan


# -- kernel runs ---------------------------------------------------------------


def _mt_start(seed: Optional[int]) -> Tuple[np.ndarray, int]:
    """``random.Random(seed)``'s MT19937 state: the 624 words and the index."""
    words = random.Random(seed).getstate()[1]
    return np.array(words[:_MT_WORDS], dtype=np.uint32), words[_MT_WORDS]


def _theta(window: List[int], cycles: int) -> float:
    """Mean per-node rate of a window, in the pure-python engines' float
    arithmetic (rate list, left-to-right sum), so it is bit-identical."""
    rates = [count / cycles for count in window]
    return sum(rates) / len(rates) if rates else 0.0


def _lane_arrays(model, plan: KernelPlan) -> Tuple[np.ndarray, np.ndarray]:
    """A model's latency and initial marking as int64 C arrays, checked to
    be one value per edge of ``plan`` before C reads them."""
    latency = np.ascontiguousarray(model.latency, dtype=np.int64)
    marking0 = np.ascontiguousarray(model.marking0, dtype=np.int64)
    if latency.shape != (plan.num_edges,) or marking0.shape != latency.shape:
        raise ValueError("a lane needs one latency and one marking per edge")
    return latency, marking0


class KernelRun:
    """Full state of one lane advanced by the C kernel.

    Only :func:`run_window` builds one; batches run through
    :func:`run_windows`, whose workers keep their lane state in C.
    """

    def __init__(self, model, seed: Optional[int]) -> None:
        plan = plan_for(model.structure)
        self.plan = plan
        num_nodes, num_edges = plan.num_nodes, plan.num_edges
        self.latency, marking0 = _lane_arrays(model, plan)
        self.depth = int(self.latency.max()) + 1 if num_edges else 1
        self.marking = np.empty(num_edges, dtype=np.int64)
        self.deficit = np.empty(num_nodes, dtype=np.int64)
        self.pending = np.empty(plan.num_early, dtype=np.int64)
        self.firings = np.empty(num_nodes, dtype=np.int64)
        self.baseline = np.empty(num_nodes, dtype=np.int64)
        self.ring_count = np.empty(self.depth, dtype=np.int64)
        self.ring_edges = np.empty(self.depth * num_edges, dtype=np.int64)
        self.queue = np.empty(plan.queue_cap, dtype=np.int64)
        self.next_ready = np.empty(plan.ready_cap, dtype=np.int64)
        self.fired_cycle = np.empty(num_nodes, dtype=np.int64)
        self.mt = np.empty(_MT_WORDS, dtype=np.uint32)
        self.io = np.zeros(4, dtype=np.int64)
        mt0, mt_index = _mt_start(seed)
        _c_kernel.repro_lane_init(
            ctypes.byref(plan.c_plan), self.depth, marking0.ctypes.data,
            mt0.ctypes.data, mt_index,
            *(
                array.ctypes.data
                for array in (
                    self.marking, self.deficit, self.pending, self.firings,
                    self.baseline, self.ring_count, self.next_ready,
                    self.fired_cycle, self.mt, self.io,
                )
            ),
        )

    @property
    def cycle(self) -> int:
        return int(self.io[0])

    def run(self, warmup: int, cycles: int) -> None:
        """Run ``warmup + cycles`` cycles in one C call.

        ``firings`` holds the totals afterwards and ``baseline`` the totals
        at the warm-up boundary.
        """
        _c_kernel.repro_sim_kernel(
            ctypes.byref(self.plan.c_plan), warmup, cycles, self.depth,
            *(
                array.ctypes.data
                for array in (
                    self.latency, self.marking, self.deficit, self.pending,
                    self.firings, self.baseline, self.ring_count,
                    self.ring_edges, self.queue, self.next_ready,
                    self.fired_cycle, self.mt, self.io,
                )
            ),
        )


def _require_native(name: str) -> None:
    if not native_active():
        raise RuntimeError(
            f"{name} needs the C kernel (active backend: {kernel_backend()})"
        )


def run_window(
    model, seed: Optional[int], cycles: int, warmup: int
) -> Tuple[KernelRun, List[int], float]:
    """Run one lane in C; return (full state, window counts, Theta).

    Kept for the state-parity tests, which read the whole lane state; no
    code under ``src/`` calls it — :func:`run_windows` runs every batch.
    Lane set-up is the same C ``repro_lane_init`` the batch workers use and
    the throughput the same reduction, so both agree bit for bit.  Raises
    ``RuntimeError`` unless the C backend is active.
    """
    _require_native("run_window")
    run = KernelRun(model, seed)
    run.run(max(0, warmup), max(0, cycles))
    window = (run.firings - run.baseline).tolist()
    return run, window, _theta(window, cycles)


def run_windows(
    models: Sequence, seeds: Sequence[Optional[int]], cycles: int, warmup: int
) -> Tuple[np.ndarray, List[float]]:
    """Run one lane per model in one C call; return (windows, Thetas).

    ``windows`` is the ``(lanes, nodes)`` int64 array of window firing
    counts and ``Thetas`` the per-lane throughputs, reduced exactly as
    :func:`run_window` reduces them.  The lanes (all of one structure) run
    on up to ``_WORKERS`` threads inside the call; each lane owns its
    MT19937 stream, so the result does not depend on the thread count.
    Raises ``ValueError`` for ``cycles <= 0``, ``MemoryError`` when the C
    side cannot allocate lane scratch and ``RuntimeError`` unless the C
    backend is active.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if len(models) != len(seeds):
        raise ValueError("need one seed per model")
    _require_native("run_windows")
    lanes = len(models)
    if not lanes:
        return np.zeros((0, 0), dtype=np.int64), []
    structure = models[0].structure
    if any(model.structure is not structure for model in models):
        raise ValueError("run_windows needs models of one compiled structure")
    plan = plan_for(structure)
    # Per-lane pointers into the models' own arrays (no stacking copy);
    # ``arrays`` keeps any converted copy alive through the call.
    arrays: List[np.ndarray] = []
    latency = (ctypes.c_void_p * lanes)()
    marking0 = (ctypes.c_void_p * lanes)()
    mt0 = (ctypes.c_void_p * lanes)()
    mt_index = np.empty(lanes, dtype=np.int64)
    starts = {}
    for lane, (model, seed) in enumerate(zip(models, seeds)):
        lat, mark = _lane_arrays(model, plan)
        arrays += (lat, mark)
        latency[lane] = lat.ctypes.data
        marking0[lane] = mark.ctypes.data
        # An unseeded lane draws its own fresh stream; a seeded one shares
        # the start words of every lane with the same seed.
        start = starts.get(seed)
        if start is None:
            start = _mt_start(seed)
            arrays.append(start[0])
            if seed is not None:
                starts[seed] = start
        mt0[lane] = start[0].ctypes.data
        mt_index[lane] = start[1]
    windows = np.empty((lanes, plan.num_nodes), dtype=np.int64)
    status = _c_kernel.repro_sim_batch(
        ctypes.byref(plan.c_plan), lanes, max(0, warmup), cycles,
        latency, marking0, mt0, mt_index.ctypes.data,
        min(_WORKERS, lanes), windows.ctypes.data,
    )
    if status != 0:
        raise MemoryError("the simulation kernel could not allocate lane scratch")
    return windows, [_theta(window, cycles) for window in windows.tolist()]
