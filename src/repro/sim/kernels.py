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

Packed lanes.  One C loop, ``repro_lane_run``, advances every lane, batch
or single.  A lane's state is int32 records:

* a 32-byte node record — in-edge range, zero-latency out-range, delayed
  out-range (the two out-ranges share their middle bound), guard slot
  (-1 for a simple node), deficit and the cycle it last fired in;
* a 16-byte edge record — consumer, the consumer's guard slot (the
  early-consumer flag), marking and latency;
* the lane's out list of (edge, consumer) pairs.

At lane set-up each node's out-edges are split into its zero-latency list
followed by its delayed list, each in ascending edge order.  The reference
walks one list in edge order, but a zero-latency edge only changes
markings, deficits and the worklists, and a delayed edge only appends to
its arrival bucket; neither reads what the other writes.  So walking the
zero-latency edges first pushes onto the worklists in the reference order,
and walking the delayed ones next fills every bucket in the reference
order.  Deliveries and a firing's own deficit and ready-list updates are
branch-free.

int32 bounds.  :func:`run_windows` and :func:`run_window` raise
``ValueError`` rather than wrap when a lane's counts could leave int32:
``cycles + warmup`` must be below 2**31, and so must the node, edge, queue
and ready-list capacities; a latency must lie in 0 .. 2**31 - 1; every
marking must stay within int32 over ``cycles + warmup`` cycles, each of
which moves it by at most one; and an early node's deficit, which grows by
up to its in-degree per firing, must stay below 2**31.
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
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import global_registry

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
# Cycles of the event-driven engine over packed int32 lane records; the loop
# mirrors ``ScalarSimulator.step`` (same worklist order, same threshold
# crossings, same guard-draw positions), so markings, firings and RNG
# consumption are bit-identical.
#
# The structure arrays come in one ``Plan`` (built once per ``KernelPlan``);
# a lane's state is one ``Lane``: node and edge records, the lane's split
# out-lists, counters, worklists, the arrival ring, the MT19937 words and
# ``io`` (cycle, MT19937 index, ready-list length, ring depth).
# ``repro_lane_init`` sets up a lane's start state; ``repro_lane_run`` runs
# ``warmup + cycles`` cycles and copies ``firings`` into ``baseline`` at the
# warm-up boundary; ``repro_sim_batch`` runs every lane of a batch on
# pthreads, each worker reusing one block of lane scratch.  A single-lane
# ``KernelRun`` calls the same two functions on numpy-owned arrays.

_C_SOURCE = r"""
#define _POSIX_C_SOURCE 200809L
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int32_t I32;
typedef int64_t I64;

typedef struct {
    I32 num_nodes, num_edges, num_early;
    const I32 *cons, *in_ptr, *in_idx, *out_ptr, *out_idx;
    const I32 *early_nodes, *early_slot;
    const I32 *guard_ptr, *guard_edges;
    const double *guard_cumw, *guard_total;
    const I32 *guard_hi;
    I32 queue_cap, ready_cap;
} Plan;

/* 32 bytes: in-edges [in_lo, in_hi) of plan->in_idx; zero-latency
   out-edges [out_lo, out_mid) and delayed ones [out_mid, out_hi) of the
   lane's out list; guard slot (-1: simple node); deficit; last cycle the
   node fired (-1: never). */
typedef struct {
    I32 in_lo, in_hi, out_lo, out_mid, out_hi;
    I32 early_slot, deficit, fired;
} Node;

/* 16 bytes: consumer, the consumer's guard slot (-1: a simple consumer),
   marking, latency. */
typedef struct {
    I32 cons, cslot, marking, latency;
} Edge;

/* An out-list entry: the edge and its consumer, so the node a firing
   enables next is one load away from the firing node's list. */
typedef struct {
    I32 edge, cons;
} Arc;

/* A lane's state.  pending[-1] holds a sentinel no edge id equals, so
   pending[cslot] can be read for a simple consumer too.  io: cycle, MT19937
   index into mt, ready-list length, ring depth. */
typedef struct {
    Node *node;
    Edge *edge;
    Arc *out;
    I32 *firings, *baseline, *pending, *queue, *next_ready;
    I32 *ring_count, *ring_edges;
    uint32_t *mt;
    I64 *io;
} Lane;

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

/* A lane's start state: the edge and node records (each node's out-edges
   split into its zero-latency list, then its delayed list, both in
   ascending edge order), deficits counted, no guard held, the initial
   ready list (simple nodes with no deficit, in node order) and the
   MT19937 start words of its seed.  latency and marking0 are the model's
   int64 vectors, range-checked by the caller. */
void repro_lane_init(
    const Plan *plan, I64 depth, const I64 *latency, const I64 *marking0,
    const uint32_t *mt0, I64 mt_index, const Lane *lane)
{
    const I32 num_nodes = plan->num_nodes;
    const I32 num_edges = plan->num_edges;
    Node *const node = lane->node;
    Edge *const edge = lane->edge;
    for (I32 e = 0; e < num_edges; e++) {
        const I32 consumer = plan->cons[e];
        edge[e].cons = consumer;
        edge[e].cslot = plan->early_slot[consumer];
        edge[e].marking = (I32)marking0[e];
        edge[e].latency = (I32)latency[e];
    }
    for (I32 n = 0; n < num_nodes; n++) {
        const I32 lo = plan->out_ptr[n], hi = plan->out_ptr[n + 1];
        I32 mid = lo;
        for (I32 k = lo; k < hi; k++) mid += edge[plan->out_idx[k]].latency == 0;
        I32 zero = lo, delayed = mid;
        for (I32 k = lo; k < hi; k++) {
            const I32 e = plan->out_idx[k];
            Arc *const arc = &lane->out[edge[e].latency == 0 ? zero++ : delayed++];
            arc->edge = e;
            arc->cons = edge[e].cons;
        }
        Node *const record = &node[n];
        record->in_lo = plan->in_ptr[n];
        record->in_hi = plan->in_ptr[n + 1];
        record->out_lo = lo;
        record->out_mid = mid;
        record->out_hi = hi;
        record->early_slot = plan->early_slot[n];
        record->deficit = 0;
        record->fired = -1;
    }
    for (I32 e = 0; e < num_edges; e++)
        node[edge[e].cons].deficit += edge[e].marking < 1;
    lane->pending[-1] = INT32_MIN;
    for (I32 position = 0; position < plan->num_early; position++)
        lane->pending[position] = -1;
    memset(lane->firings, 0, (size_t)num_nodes * sizeof(I32));
    memset(lane->baseline, 0, (size_t)num_nodes * sizeof(I32));
    memset(lane->ring_count, 0, (size_t)depth * sizeof(I32));
    I32 nr_len = 0;
    for (I32 n = 0; n < num_nodes; n++) {
        lane->next_ready[nr_len] = n;
        nr_len += node[n].deficit == 0 && node[n].early_slot < 0;
    }
    memcpy(lane->mt, mt0, MT_N * sizeof(uint32_t));
    lane->io[0] = 0;
    lane->io[1] = mt_index;
    lane->io[2] = nr_len;
    lane->io[3] = depth;
}

/* The one lane loop: warmup + cycles cycles from the lane's current state.
   Deliveries, a firing's own deficit and its ready-list push are
   branch-free: such a push always writes the slot past the list's end and
   advances the length by the push condition.  A firing's zero-latency
   productions stay branches: the consumer one enables is the next node
   popped, and a predicted branch lets that pop start before the edge's
   marking and the consumer's deficit are loaded. */
void repro_lane_run(const Plan *plan, I64 warmup, I64 cycles, const Lane *lane)
{
    const I32 num_nodes = plan->num_nodes;
    const I32 num_edges = plan->num_edges;
    const I32 num_early = plan->num_early;
    const I32 *const in_idx = plan->in_idx;
    const I32 *const early_nodes = plan->early_nodes;
    const I32 *const guard_ptr = plan->guard_ptr;
    const I32 *const guard_edges = plan->guard_edges;
    const I32 *const guard_hi = plan->guard_hi;
    const double *const guard_cumw = plan->guard_cumw;
    const double *const guard_total = plan->guard_total;
    Node *const node = lane->node;
    Edge *const edge = lane->edge;
    const Arc *const out = lane->out;
    I32 *const firings = lane->firings;
    I32 *const pending = lane->pending;
    I32 *const queue = lane->queue;
    I32 *const next_ready = lane->next_ready;
    I32 *const ring_count = lane->ring_count;
    I32 *const ring_edges = lane->ring_edges;
    I32 cycle = (I32)lane->io[0];
    I64 mt_index = lane->io[1];
    I32 nr_len = (I32)lane->io[2];
    const I64 depth = lane->io[3];
    I64 slot = cycle % depth;
    const I64 total = warmup + cycles;
    for (I64 done = 0;; done++) {
        if (done == warmup)
            memcpy(lane->baseline, firings, (size_t)num_nodes * sizeof(I32));
        if (done == total) break;
        I32 qlen = nr_len;
        memcpy(queue, next_ready, (size_t)nr_len * sizeof(I32));
        nr_len = 0;

        /* 1. deliveries */
        const I32 *const bucket = ring_edges + slot * num_edges;
        const I32 count = ring_count[slot];
        for (I32 i = 0; i < count; i++) {
            const I32 e = bucket[i];
            Edge *const delivered = &edge[e];
            const I32 crossed = delivered->marking++ == 0;
            const I32 consumer = delivered->cons, cslot = delivered->cslot;
            const I32 simple = cslot < 0;
            Node *const target = &node[consumer];
            const I32 deficit = target->deficit - (crossed & simple);
            target->deficit = deficit;
            queue[qlen] = consumer;
            qlen += crossed & ((simple & (deficit == 0)) | (pending[cslot] == e));
        }
        ring_count[slot] = 0;

        /* 2. guard draws */
        for (I32 position = 0; position < num_early; position++) {
            I32 guard = pending[position];
            if (guard < 0) {
                const double x = random_random(lane->mt, &mt_index) * guard_total[position];
                const I32 base = guard_ptr[position], hi = guard_hi[position];
                I32 k = 0;
                while (k < hi && guard_cumw[base + k] <= x) k++;
                guard = guard_edges[base + k];
                pending[position] = guard;
            }
            queue[qlen] = early_nodes[position];
            qlen += edge[guard].marking >= 1;
        }

        /* 3. firing fixpoint */
        while (qlen > 0) {
            const I32 n = queue[--qlen];
            Node *const fired = &node[n];
            if (fired->fired == cycle) continue;
            const I32 position = fired->early_slot;
            if (position >= 0) {
                I32 guard = pending[position];
                if (guard < 0) guard += num_edges; /* the reference's marking[-1] */
                if (edge[guard].marking < 1) continue;
            } else if (fired->deficit != 0) continue;
            fired->fired = cycle;
            firings[n]++;
            I32 emptied = 0;
            for (I32 k = fired->in_lo; k < fired->in_hi; k++)
                emptied += --edge[in_idx[k]].marking == 0;
            fired->deficit += emptied;
            if (position >= 0) pending[position] = -1;
            for (I32 k = fired->out_lo; k < fired->out_mid; k++) {
                const I32 e = out[k].edge, consumer = out[k].cons;
                if (edge[e].marking++ == 0) {
                    Node *const target = &node[consumer];
                    const I32 cslot = target->early_slot;
                    if (cslot >= 0) {
                        if (pending[cslot] == e) queue[qlen++] = consumer;
                    } else if (--target->deficit == 0) {
                        if (target->fired == cycle) next_ready[nr_len++] = consumer;
                        else queue[qlen++] = consumer;
                    }
                }
            }
            for (I32 k = fired->out_mid; k < fired->out_hi; k++) {
                const I32 e = out[k].edge;
                I64 arrival = slot + edge[e].latency;
                arrival -= depth & -(I64)(arrival >= depth);
                ring_edges[arrival * num_edges + ring_count[arrival]++] = e;
            }
            next_ready[nr_len] = n;
            nr_len += fired->deficit == 0;
        }

        cycle++;
        if (++slot == depth) slot = 0;
    }
    lane->io[0] = cycle;
    lane->io[1] = mt_index;
    lane->io[2] = nr_len;
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
    char *scratch;
    size_t stride;
    I64 depth_cap;
    I64 next_lane, next_block;
} Batch;

static I64 lane_depth(const Plan *plan, const I64 *latency)
{
    I64 depth = 1;
    for (I32 edge = 0; edge < plan->num_edges; edge++)
        if (latency[edge] >= depth) depth = latency[edge] + 1;
    return depth;
}

/* Bytes of one lane's scratch block, each array on a 64-byte boundary;
   with `base` set, also points `lane` into the block at `base`. */
static size_t lane_layout(const Plan *plan, I64 depth_cap, char *base, Lane *lane)
{
    size_t offset = 0;
#define CARVE(field, type, count)                                     \
    do {                                                              \
        offset = (offset + 63) & ~(size_t)63;                         \
        if (base) lane->field = (type *)(void *)(base + offset);      \
        offset += (size_t)(count) * sizeof(type);                     \
    } while (0)
    CARVE(io, I64, 4);
    CARVE(mt, uint32_t, MT_N);
    CARVE(node, Node, plan->num_nodes);
    CARVE(edge, Edge, plan->num_edges);
    CARVE(out, Arc, plan->num_edges);
    CARVE(firings, I32, plan->num_nodes);
    CARVE(baseline, I32, plan->num_nodes);
    CARVE(pending, I32, plan->num_early + 1);
    CARVE(queue, I32, plan->queue_cap);
    CARVE(next_ready, I32, plan->ready_cap);
    CARVE(ring_count, I32, depth_cap);
    CARVE(ring_edges, I32, depth_cap * plan->num_edges);
#undef CARVE
    if (base) lane->pending++;
    return (offset + 63) & ~(size_t)63;
}

static void *batch_worker(void *arg)
{
    Batch *batch = arg;
    const Plan *plan = batch->plan;
    const I64 block = __atomic_fetch_add(&batch->next_block, 1, __ATOMIC_RELAXED);
    Lane lane;
    lane_layout(plan, batch->depth_cap,
                batch->scratch + (size_t)block * batch->stride, &lane);
    for (;;) {
        const I64 index = __atomic_fetch_add(&batch->next_lane, 1, __ATOMIC_RELAXED);
        if (index >= batch->lanes) break;
        const I64 *latency = batch->latency[index];
        repro_lane_init(
            plan, lane_depth(plan, latency), latency, batch->marking0[index],
            batch->mt0[index], batch->mt_index[index], &lane);
        repro_lane_run(plan, batch->warmup, batch->cycles, &lane);
        I64 *row = batch->windows + index * plan->num_nodes;
        for (I32 n = 0; n < plan->num_nodes; n++)
            row[n] = lane.firings[n] - lane.baseline[n];
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
        const I64 depth = lane_depth(plan, latency[lane]);
        if (depth > depth_cap) depth_cap = depth;
    }
    const size_t stride = lane_layout(plan, depth_cap, NULL, NULL);
    Batch batch = {plan, lanes, warmup, cycles, latency, marking0, mt0,
                   mt_index, windows, NULL, stride, depth_cap, 0, 0};
    if (workers < 1) workers = 1;
    void *scratch = NULL;
    if (posix_memalign(&scratch, 64, (size_t)workers * stride) != 0)
        return -1;
    batch.scratch = scratch;
    pthread_t *threads = malloc((size_t)workers * sizeof(pthread_t));
    if (!threads) {
        free(scratch);
        return -1;
    }
    I64 started = 0;
    while (started < workers - 1
           && pthread_create(&threads[started], NULL, batch_worker, &batch) == 0)
        started++;
    batch_worker(&batch);
    for (I64 i = 0; i < started; i++) pthread_join(threads[i], NULL);
    free(threads);
    free(scratch);
    return 0;
}
"""


class _CPlan(ctypes.Structure):
    """The C ``Plan``: sizes, the 12 structure arrays of a ``KernelPlan``
    and its worklist capacities."""

    _fields_ = (
        [(name, ctypes.c_int32) for name in ("num_nodes", "num_edges", "num_early")]
        + [
            (name, ctypes.c_void_p)
            for name in (
                "cons", "in_ptr", "in_idx", "out_ptr", "out_idx",
                "early_nodes", "early_slot", "guard_ptr", "guard_edges",
                "guard_cumw", "guard_total", "guard_hi",
            )
        ]
        + [(name, ctypes.c_int32) for name in ("queue_cap", "ready_cap")]
    )


class _CLane(ctypes.Structure):
    """The C ``Lane``: pointers to one lane's state arrays."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "node", "edge", "out", "firings", "baseline", "pending", "queue",
            "next_ready", "ring_count", "ring_edges", "mt", "io",
        )
    ]


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
    lane = ctypes.POINTER(_CLane)
    library.repro_lane_init.restype = None
    library.repro_lane_init.argtypes = (
        [plan, i64, ptr, ptr, ptr, i64]  # depth, latency, marking0, mt0, mt_index
        + [lane]
    )
    library.repro_lane_run.restype = None
    library.repro_lane_run.argtypes = [plan, i64, i64, lane]  # warmup, cycles
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
        self.cons = np.ascontiguousarray(structure.cons, dtype=np.int32)
        self.in_ptr = np.ascontiguousarray(structure.in_ptr, dtype=np.int32)
        self.in_idx = np.ascontiguousarray(structure.in_idx, dtype=np.int32)
        prod = np.asarray(structure.prod, dtype=np.int64)
        # Stable sort keeps each node's out-edges in ascending edge order —
        # the same order ScalarSimulator builds its out-lists in.
        self.out_idx = np.ascontiguousarray(
            np.argsort(prod, kind="stable"), dtype=np.int32
        )
        out_ptr = np.zeros(num_nodes + 1, dtype=np.int32)
        counts = np.bincount(prod, minlength=num_nodes) if num_edges else (
            np.zeros(num_nodes, dtype=np.int64)
        )
        np.cumsum(counts, out=out_ptr[1:])
        self.out_ptr = out_ptr
        self.early_nodes = np.ascontiguousarray(
            structure.early_pos, dtype=np.int32
        )
        early_slot = np.full(num_nodes, -1, dtype=np.int32)
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
        self.guard_ptr = np.asarray(guard_ptr, dtype=np.int32)
        self.guard_edges = np.asarray(guard_edges, dtype=np.int32)
        self.guard_cumw = np.asarray(guard_cumw, dtype=np.float64)
        self.guard_total = np.asarray(guard_total, dtype=np.float64)
        self.guard_hi = np.asarray(guard_hi, dtype=np.int32)
        self.num_early = len(guard_total)
        # An early node's deficit only ever grows (deliveries never lower
        # it): by up to its in-degree per firing, bounded by the run guard.
        in_degree = np.diff(self.in_ptr)
        self.early_in_degree = (
            int(in_degree[self.early_nodes].max()) if self.num_early else 0
        )

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
        # early node and two production crossings per edge; sized generously,
        # since a branch-free push also writes the slot past the list's end.
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

#: Every index and count a kernel lane keeps is int32: values must stay
#: below this bound (and markings above its negative) for the whole run.
_INT32_END = 2**31

_KERNEL_SECONDS = global_registry().counter(
    "repro_sim_kernel_seconds_total", "Wall seconds spent in kernels.run_windows"
)
_KERNEL_LANE_CYCLES = global_registry().counter(
    "repro_sim_kernel_lane_cycles_total",
    "Lane-cycles simulated by kernels.run_windows: lanes x (cycles + warmup)",
)


def _mt_start(seed: Optional[int]) -> Tuple[np.ndarray, int]:
    """``random.Random(seed)``'s MT19937 state: the 624 words and the index."""
    words = random.Random(seed).getstate()[1]
    return np.array(words[:_MT_WORDS], dtype=np.uint32), words[_MT_WORDS]


def _theta(window: List[int], cycles: int) -> float:
    """Mean per-node rate of a window, in the pure-python engines' float
    arithmetic (rate list, left-to-right sum), so it is bit-identical."""
    rates = [count / cycles for count in window]
    return sum(rates) / len(rates) if rates else 0.0


def _check_run(plan: KernelPlan, cycles: int, warmup: int) -> int:
    """``cycles + warmup``, after checking that the cycle counter, the
    structure's capacities and its early nodes' deficits fit int32."""
    total = cycles + warmup
    if total >= _INT32_END:
        raise ValueError(
            f"cycles + warmup = {total} does not fit the kernel's int32 cycle counter"
        )
    for what, size in (
        ("node", plan.num_nodes), ("edge", plan.num_edges),
        ("queue", plan.queue_cap), ("ready-list", plan.ready_cap),
    ):
        if size >= _INT32_END:
            raise ValueError(f"the kernel's int32 {what} capacity cannot hold {size}")
    if plan.early_in_degree * (total + 1) >= _INT32_END:
        raise ValueError(
            f"an early node's deficit could outgrow int32 over {total} cycles"
        )
    return total


def _lane_arrays(
    model, plan: KernelPlan, total: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A model's latency and initial marking as int64 C arrays, checked to
    be one value per edge of ``plan`` and to stay int32 over ``total``
    cycles (a firing moves a marking by one) before C narrows them."""
    latency = np.ascontiguousarray(model.latency, dtype=np.int64)
    marking0 = np.ascontiguousarray(model.marking0, dtype=np.int64)
    if latency.shape != (plan.num_edges,) or marking0.shape != latency.shape:
        raise ValueError("a lane needs one latency and one marking per edge")
    if latency.size:
        if latency.min() < 0 or latency.max() >= _INT32_END:
            raise ValueError("a latency is outside 0 .. 2**31 - 1")
        if int(marking0.max()) + total >= _INT32_END or (
            int(marking0.min()) - total < -_INT32_END
        ):
            raise ValueError(
                f"a marking could leave int32 within {total} cycles"
            )
    return latency, marking0


class KernelRun:
    """Full state of one lane advanced by the C kernel.

    Only :func:`run_window` builds one; batches run through
    :func:`run_windows`, whose workers keep their lane state in C.  The
    packed records are ``nodes`` (``(V, 8)``) and ``edges`` (``(E, 4)``);
    ``marking``, ``deficit`` and ``fired_cycle`` are views of their
    columns, so every attribute reads in the reference layout.
    """

    def __init__(self, model, seed: Optional[int]) -> None:
        plan = plan_for(model.structure)
        self.plan = plan
        num_nodes, num_edges = plan.num_nodes, plan.num_edges
        latency, marking0 = _lane_arrays(model, plan, 0)
        self.depth = int(latency.max()) + 1 if num_edges else 1
        self.nodes = np.empty((num_nodes, 8), dtype=np.int32)
        self.edges = np.empty((num_edges, 4), dtype=np.int32)
        self.out = np.empty((num_edges, 2), dtype=np.int32)
        self.firings = np.empty(num_nodes, dtype=np.int32)
        self.baseline = np.empty(num_nodes, dtype=np.int32)
        # Slot 0 is the sentinel the C side reads as pending[-1].
        pending = np.empty(plan.num_early + 1, dtype=np.int32)
        self.pending = pending[1:]
        self.queue = np.empty(plan.queue_cap, dtype=np.int32)
        self.next_ready = np.empty(plan.ready_cap, dtype=np.int32)
        self.ring_count = np.empty(self.depth, dtype=np.int32)
        self.ring_edges = np.empty(self.depth * num_edges, dtype=np.int32)
        self.mt = np.empty(_MT_WORDS, dtype=np.uint32)
        self.io = np.zeros(4, dtype=np.int64)
        self.marking = self.edges[:, 2]
        self.deficit = self.nodes[:, 6]
        self.fired_cycle = self.nodes[:, 7]
        self._lane = _CLane(
            self.nodes.ctypes.data, self.edges.ctypes.data, self.out.ctypes.data,
            self.firings.ctypes.data, self.baseline.ctypes.data,
            pending.ctypes.data + pending.itemsize, self.queue.ctypes.data,
            self.next_ready.ctypes.data, self.ring_count.ctypes.data,
            self.ring_edges.ctypes.data, self.mt.ctypes.data, self.io.ctypes.data,
        )
        mt0, mt_index = _mt_start(seed)
        _c_kernel.repro_lane_init(
            ctypes.byref(plan.c_plan), self.depth, latency.ctypes.data,
            marking0.ctypes.data, mt0.ctypes.data, mt_index,
            ctypes.byref(self._lane),
        )

    @property
    def cycle(self) -> int:
        return int(self.io[0])

    def run(self, warmup: int, cycles: int) -> None:
        """Run ``warmup + cycles`` cycles in one C call.

        ``firings`` holds the totals afterwards and ``baseline`` the totals
        at the warm-up boundary.
        """
        _c_kernel.repro_lane_run(
            ctypes.byref(self.plan.c_plan), warmup, cycles,
            ctypes.byref(self._lane),
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
    It runs the same C ``repro_lane_init`` and ``repro_lane_run`` the batch
    workers run and the throughput is the same reduction, so both agree
    bit for bit.  Raises ``RuntimeError`` unless the C backend is active
    and ``ValueError`` when a count of the run would not fit int32.
    """
    _require_native("run_window")
    plan = plan_for(model.structure)
    _lane_arrays(model, plan, _check_run(plan, max(0, cycles), max(0, warmup)))
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
    The call's wall seconds and lane-cycles go to the
    ``repro_sim_kernel_*_total`` counters of the global metrics registry.
    Raises ``ValueError`` for ``cycles <= 0`` or a count of the run that
    would not fit int32, ``MemoryError`` when the C side cannot allocate
    lane scratch and ``RuntimeError`` unless the C backend is active.
    """
    started = time.perf_counter()
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
    warmup = max(0, warmup)
    total = _check_run(plan, cycles, warmup)
    # Per-lane pointers into the models' own arrays (no stacking copy);
    # ``arrays`` keeps any converted copy alive through the call.
    arrays: List[np.ndarray] = []
    latency = (ctypes.c_void_p * lanes)()
    marking0 = (ctypes.c_void_p * lanes)()
    mt0 = (ctypes.c_void_p * lanes)()
    mt_index = np.empty(lanes, dtype=np.int64)
    starts = {}
    for lane, (model, seed) in enumerate(zip(models, seeds)):
        lat, mark = _lane_arrays(model, plan, total)
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
        ctypes.byref(plan.c_plan), lanes, warmup, cycles,
        latency, marking0, mt0, mt_index.ctypes.data,
        min(_WORKERS, lanes), windows.ctypes.data,
    )
    if status != 0:
        raise MemoryError("the simulation kernel could not allocate lane scratch")
    thetas = [_theta(window, cycles) for window in windows.tolist()]
    _KERNEL_LANE_CYCLES.inc(lanes * total)
    _KERNEL_SECONDS.inc(time.perf_counter() - started)
    return windows, thetas
