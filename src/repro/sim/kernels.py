"""The generated-C simulation kernel (the fast path).

The pure-python :class:`repro.sim.scalar.ScalarSimulator` advances one lane
with event-driven bookkeeping; its inner loop is the cost center of every
search evaluation.  This module emits that exact loop — same worklist, same
threshold crossings, same ``random.Random``-compatible guard draws — as C,
compiles it once per machine with the system C compiler and loads it
through ``ctypes``.  Two backends exist:

* ``c`` — the generated kernel, driven by :func:`run_window`;
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
python mid-run.
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
from typing import Iterator, List, Optional, Tuple

import numpy as np

_ENV_VAR = "REPRO_SIM_KERNEL"
_CACHE_ENV_VAR = "REPRO_SIM_KERNEL_CACHE"
_BACKENDS = ("auto", "c", "python")

#: Compiler flags of the shared object; part of its cache name.  No
#: ``-march=native`` (the cache may be shared across machines) and no
#: ``-ffast-math`` (results must stay bit-identical to python).
_CFLAGS = ("-O3", "-shared", "-fPIC")

#: Words of MT19937 state (CPython's ``N``).
_MT_WORDS = 624


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
# ready-list length.  One call runs ``warmup + cycles`` cycles and copies
# ``firings`` into ``baseline`` at the warm-up boundary.

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef int64_t I64;

typedef struct {
    I64 num_nodes, num_edges, num_early;
    const I64 *cons, *in_ptr, *in_idx, *out_ptr, *out_idx;
    const I64 *early_nodes, *early_slot;
    const I64 *guard_ptr, *guard_edges;
    const double *guard_cumw, *guard_total;
    const I64 *guard_hi;
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
"""


class _CPlan(ctypes.Structure):
    """The C ``Plan``: sizes and the 12 structure arrays of a ``KernelPlan``."""

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
    )


# -- backend selection ---------------------------------------------------------

_lock = threading.Lock()
_backend: str = "python"
_requested: str = "auto"
_materialized = False
_c_kernel = None
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
    fn = library.repro_sim_kernel
    i64 = ctypes.c_int64
    fn.restype = None
    fn.argtypes = (
        [ctypes.POINTER(_CPlan), i64, i64, i64]  # plan, warmup, cycles, depth
        + [ctypes.c_void_p] * 13                 # latency .. mt, io
    )
    fn._library = library  # keep the CDLL alive alongside the function
    return fn


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
    """Probe report: requested vs active backend and any demotion notes."""
    with _lock:
        _materialize_locked()
        return {
            "requested": _requested,
            "backend": _backend,
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
        )


def plan_for(structure) -> KernelPlan:
    """The (cached) kernel plan of a compiled structure."""
    plan = getattr(structure, "_kernel_plan", None)
    if plan is None:
        plan = KernelPlan(structure)
        structure._kernel_plan = plan
    return plan


# -- kernel runs ---------------------------------------------------------------


class KernelRun:
    """State of one lane advanced by the C kernel."""

    def __init__(self, model, seed: Optional[int]) -> None:
        plan = plan_for(model.structure)
        self.plan = plan
        num_nodes, num_edges = plan.num_nodes, plan.num_edges
        self.latency = np.ascontiguousarray(model.latency, dtype=np.int64)
        self.depth = int(self.latency.max()) + 1 if num_edges else 1
        self.marking = np.array(model.marking0, dtype=np.int64)
        below = self.marking < 1
        self.deficit = np.bincount(
            plan.cons[below], minlength=num_nodes
        ).astype(np.int64) if num_edges else np.zeros(num_nodes, dtype=np.int64)
        self.pending = np.full(plan.num_early, -1, dtype=np.int64)
        self.firings = np.zeros(num_nodes, dtype=np.int64)
        self.baseline = np.zeros(num_nodes, dtype=np.int64)
        self.ring_count = np.zeros(self.depth, dtype=np.int64)
        self.ring_edges = np.empty(self.depth * num_edges, dtype=np.int64)
        self.queue = np.empty(plan.queue_cap, dtype=np.int64)
        self.next_ready = np.empty(plan.ready_cap, dtype=np.int64)
        ready0 = np.nonzero((self.deficit == 0) & (plan.early_slot < 0))[0]
        self.next_ready[: ready0.size] = ready0
        self.fired_cycle = np.full(num_nodes, -1, dtype=np.int64)
        # random.Random(seed)'s MT19937 state: 624 words, then the index.
        words = random.Random(seed).getstate()[1]
        self.mt = np.array(words[:_MT_WORDS], dtype=np.uint32)
        self.io = np.zeros(4, dtype=np.int64)
        self.io[1] = words[_MT_WORDS]
        self.io[2] = ready0.size

    @property
    def cycle(self) -> int:
        return int(self.io[0])

    def run(self, warmup: int, cycles: int) -> None:
        """Run ``warmup + cycles`` cycles in one C call.

        ``firings`` holds the totals afterwards and ``baseline`` the totals
        at the warm-up boundary.
        """
        _c_kernel(
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


def run_window(
    model, seed: Optional[int], cycles: int, warmup: int
) -> Tuple[KernelRun, List[int], float]:
    """Run ``warmup + cycles`` cycles in C; return (state, window counts, Theta).

    The throughput is reduced with the same python-float arithmetic as the
    pure-python engines (per-node rate list, mean in node order), so the
    reported double is bit-identical to a :class:`ScalarSimulator` run.
    Raises ``RuntimeError`` unless the C backend is active.
    """
    if not native_active():
        raise RuntimeError(
            f"run_window needs the C kernel (active backend: {kernel_backend()})"
        )
    run = KernelRun(model, seed)
    run.run(max(0, warmup), max(0, cycles))
    window = (run.firings - run.baseline).tolist()
    rates = [count / cycles for count in window]
    throughput = sum(rates) / len(rates) if rates else 0.0
    return run, window, throughput
