"""Per-layer timings and counters taken from outside the program.

:func:`install` replaces public functions and methods of ``repro.search``,
``repro.sim``, ``repro.lp``, ``repro.core``, ``repro.pipeline`` and
``repro.service`` with timing wrappers, on the name each caller actually
looks up (a module that imports a function by name gets its own binding
patched).  A layer's self time is its wall time minus the time spent in
nested wrapped calls, kept per thread, so self times of all layers never
double count.  Counts (lanes, nodes, iterations, cache probes) are read
from the arguments and results of the wrapped calls.

The program is not changed: the wrappers only exist in processes the
benchmark starts with tracing on.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, Optional

Observer = Callable[["LayerTracer", tuple, dict, Any], None]


class LayerTracer:
    """Accumulates self time, call counts and named counters per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def on_stack(self, layer: str) -> bool:
        """Whether ``layer`` encloses the current call on this thread."""
        return any(frame[0] == layer for frame in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner: Any, attr: str, layer: str,
             observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` by a wrapper timing it as ``layer``.

        A call nested directly in a call of the same layer (a method calling
        its sibling) adds self time but is not counted as a second call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    tracer.self_s[layer] = (
                        tracer.self_s.get(layer, 0.0) + elapsed - frame[1]
                    )
                    if outer:
                        tracer.calls[layer] = tracer.calls.get(layer, 0) + 1
            if outer and observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _count_search_lanes(tracer, args, kwargs, result) -> None:
    tracer.count("search.lanes", len(_arg(args, kwargs, 1, "states")))


def _count_models(tracer, args, kwargs, result) -> None:
    lanes = len(_arg(args, kwargs, 0, "models"))
    tracer.count("sim.run_models.lanes", lanes)
    if tracer.on_stack("search.evaluate_batch"):
        tracer.count("search.simulations", lanes)


def _count_lane_cycles(tracer, args, kwargs, result) -> None:
    cycles = _arg(args, kwargs, 2, "cycles")
    warmup = _arg(args, kwargs, 3, "warmup")
    tracer.count("sim.kernel.lane_cycles", int(cycles) + int(warmup))


def _count_hit(counter: str) -> Observer:
    def observe(tracer, args, kwargs, result) -> None:
        if result is not None:
            tracer.count(counter)
    return observe


def _count_attr(counter: str, attr: str) -> Observer:
    def observe(tracer, args, kwargs, result) -> None:
        tracer.count(counter, getattr(result, attr))
    return observe


def _count_group_lanes(tracer, args, kwargs, result) -> None:
    tracer.count("service.lanes", _arg(args, kwargs, 0, "group").lanes)


def install(tracer: LayerTracer) -> None:
    """Wrap every layer the per-layer metrics read (see :data:`PER_LAYER`)."""
    import repro.core.optimizer as optimizer
    import repro.pipeline.stages as stages
    import repro.retiming.late_evaluation as late_evaluation
    import repro.service.broker as broker
    import repro.service.protocol as protocol
    import repro.sim.batch as sim_batch
    import repro.sim.cache as sim_cache
    import repro.sim.kernels as kernels
    from repro.core.milp import MilpWorkspace
    from repro.lp.branch_and_bound import BranchAndBoundSolver
    from repro.lp.model import Model
    from repro.lp.revised_simplex import RevisedSimplexSolver
    from repro.pipeline.store import ArtifactStore
    from repro.search.problem import SearchProblem
    from repro.sim.engine import CompiledTemplate

    wrap = tracer.wrap
    wrap(SearchProblem, "evaluate_batch", "search.evaluate_batch",
         _count_search_lanes)
    wrap(SearchProblem, "cycle_times_batch", "search.cycle_times_batch")
    wrap(SearchProblem, "sample_moves", "search.sample_moves")

    wrap(sim_batch, "run_models", "sim.run_models", _count_models)
    wrap(kernels, "run_window", "sim.kernel", _count_lane_cycles)
    wrap(CompiledTemplate, "instantiate", "sim.instantiate")
    wrap(CompiledTemplate, "instantiate_batch", "sim.instantiate")
    wrap(sim_cache, "throughput_key", "sim.cache.key")
    wrap(sim_cache, "vector_key", "sim.cache.key")
    wrap(sim_cache, "cached_throughput", "sim.cache.probe",
         _count_hit("sim.cache.hits"))

    # The optimizer is imported by name into the Optimize stage and the
    # late-evaluation baseline; the portfolio imports it lazily from its
    # home module.
    for module in (optimizer, stages, late_evaluation):
        wrap(module, "min_effective_cycle_time", "core.optimizer")
    wrap(MilpWorkspace, "min_cycle_time", "core.milp")
    wrap(MilpWorkspace, "max_throughput", "core.milp")
    wrap(Model, "compile", "lp.model.compile")
    wrap(BranchAndBoundSolver, "solve", "lp.bnb",
         _count_attr("lp.bnb.nodes", "nodes_explored"))
    wrap(RevisedSimplexSolver, "solve_prepared", "lp.simplex",
         _count_attr("lp.simplex.iterations", "iterations"))

    wrap(stages.BuildStage, "run", "pipeline.stage.build")
    wrap(stages.OptimizeStage, "run", "pipeline.stage.optimize")
    wrap(stages.SimulateStage, "run", "pipeline.stage.simulate")
    wrap(ArtifactStore, "get", "pipeline.store.get",
         _count_hit("pipeline.store.hits"))
    wrap(ArtifactStore, "put", "pipeline.store.put")

    wrap(protocol, "prepare_request", "service.prepare")
    wrap(broker, "execute_group", "service.execute_group", _count_group_lanes)


def install_client(tracer: LayerTracer) -> None:
    """Time every HTTP exchange the load generator's clients make."""
    from repro.service.client import ServiceClient

    for name in ("submit", "status", "result"):
        tracer.wrap(ServiceClient, name, "service.client.http")


#: Per-layer metric name -> (unit, one-line meaning).  Times and counts are
#: per workload operation: one search, one sweep, or one request.
PER_LAYER = {
    "search.evaluate_batch.s": ("s", "self time of SearchProblem.evaluate_batch"),
    "search.cycle_times_batch.s": ("s", "self time of the batched cycle-time sweep"),
    "search.sample_moves.s": ("s", "self time of move generation"),
    "search.lanes": ("count", "candidate lanes evaluated"),
    "search.sim_ratio": ("ratio", "simulated lanes over evaluated lanes"),
    "sim.run_models.s": ("s", "self time of sim.batch.run_models (Python around the kernel)"),
    "sim.run_models.lanes": ("count", "lanes simulated by run_models"),
    "sim.kernel.s": ("s", "self time of kernels.run_window"),
    "sim.kernel.calls": ("count", "kernels.run_window calls"),
    "sim.kernel.lane_cycles_per_s": ("1/s", "simulated lane-cycles per kernel second"),
    "sim.instantiate.s": ("s", "self time of template instantiation"),
    "sim.cache.key.s": ("s", "self time of throughput_key / vector_key"),
    "sim.cache.probes": ("count", "throughput cache probes"),
    "sim.cache.hit_ratio": ("ratio", "throughput cache hits over probes"),
    "core.optimizer.s": ("s", "self time of min_effective_cycle_time"),
    "core.milp.solves": ("count", "MIN_CYC / MAX_THR solves"),
    "lp.model.compile.s": ("s", "self time of Model.compile"),
    "lp.bnb.s": ("s", "self time of branch and bound"),
    "lp.bnb.nodes": ("count", "branch-and-bound nodes"),
    "lp.simplex.s": ("s", "self time of the revised simplex"),
    "lp.simplex.iterations": ("count", "simplex iterations"),
    "lp.iterations_per_s": ("1/s", "simplex iterations per simplex second"),
    "pipeline.stage.build.s": ("s", "self time of the Build stage"),
    "pipeline.stage.optimize.s": ("s", "self time of the Optimize stage"),
    "pipeline.stage.simulate.s": ("s", "self time of the Simulate stage"),
    "pipeline.store.get.s": ("s", "self time of ArtifactStore.get"),
    "pipeline.store.get.calls": ("count", "ArtifactStore.get calls"),
    "pipeline.store.hit_ratio": ("ratio", "store reads that found an entry"),
    "pipeline.store.put.s": ("s", "self time of ArtifactStore.put"),
    "pipeline.store.put.calls": ("count", "ArtifactStore.put calls"),
    "service.prepare.s": ("s", "self time of protocol.prepare_request"),
    "service.execute_group.s": ("s", "self time of worker.execute_group"),
    "service.execute_group.calls": ("count", "execution groups"),
    "service.batch_lanes_mean": ("count", "lanes per execution group"),
    "service.l1_hit_ratio": ("ratio", "L1 result-cache hits over lookups (/stats)"),
    "service.coalesced": ("count", "requests coalesced in the timed window (/stats)"),
    "service.store_hits": ("count", "requests answered by the store in the timed window (/stats)"),
    "service.client.http_calls_per_request": ("count", "HTTP exchanges per request"),
    "service.client.http_call_ms": ("ms", "mean client-side time of one HTTP exchange"),
    "service.client.hit_p50_ms": ("ms", "median latency of cache-answered requests"),
    "service.client.hit_p95_ms": ("ms", "p95 latency of cache-answered requests (median below 200)"),
    "service.client.miss_p50_ms": ("ms", "median latency of computed requests"),
    "service.client.miss_p95_ms": ("ms", "p95 latency of computed requests (median below 200)"),
    "trace.work_per_s": ("1/s", "work_per_s of the traced run (overhead base)"),
    "trace.self_share": ("ratio", "sum of per-layer self time over workload wall time"),
}

#: Self-time layers, in the order of :data:`PER_LAYER`.
TIMED_LAYERS = (
    "search.evaluate_batch", "search.cycle_times_batch", "search.sample_moves",
    "sim.run_models", "sim.kernel", "sim.instantiate", "sim.cache.key",
    "core.optimizer", "lp.model.compile", "lp.bnb", "lp.simplex",
    "pipeline.stage.build", "pipeline.stage.optimize",
    "pipeline.stage.simulate", "pipeline.store.get", "pipeline.store.put",
    "service.prepare", "service.execute_group",
)


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(totals: Dict[str, Dict[str, float]], ops: int) -> Dict[str, float]:
    """Per-operation per-layer values from a :meth:`LayerTracer.snapshot`.

    Metrics of layers a workload never entered read 0; the service-only and
    client metrics are filled in by the service workload.
    """
    self_s = totals.get("self_s", {})
    calls = totals.get("calls", {})
    counts = totals.get("counts", {})
    per_op = max(1, ops)
    values = {name: 0.0 for name in PER_LAYER}
    for layer in TIMED_LAYERS:
        values[f"{layer}.s"] = self_s.get(layer, 0.0) / per_op
    values.update({
        "search.lanes": counts.get("search.lanes", 0) / per_op,
        "search.sim_ratio": _ratio(counts.get("search.simulations", 0),
                                   counts.get("search.lanes", 0)),
        "sim.run_models.lanes": counts.get("sim.run_models.lanes", 0) / per_op,
        "sim.kernel.calls": calls.get("sim.kernel", 0) / per_op,
        "sim.kernel.lane_cycles_per_s": _ratio(
            counts.get("sim.kernel.lane_cycles", 0), self_s.get("sim.kernel", 0)),
        "sim.cache.probes": calls.get("sim.cache.probe", 0) / per_op,
        "sim.cache.hit_ratio": _ratio(counts.get("sim.cache.hits", 0),
                                      calls.get("sim.cache.probe", 0)),
        "core.milp.solves": calls.get("core.milp", 0) / per_op,
        "lp.bnb.nodes": counts.get("lp.bnb.nodes", 0) / per_op,
        "lp.simplex.iterations": counts.get("lp.simplex.iterations", 0) / per_op,
        "lp.iterations_per_s": _ratio(counts.get("lp.simplex.iterations", 0),
                                      self_s.get("lp.simplex", 0)),
        "pipeline.store.get.calls": calls.get("pipeline.store.get", 0) / per_op,
        "pipeline.store.hit_ratio": _ratio(counts.get("pipeline.store.hits", 0),
                                           calls.get("pipeline.store.get", 0)),
        "pipeline.store.put.calls": calls.get("pipeline.store.put", 0) / per_op,
        "service.execute_group.calls": calls.get("service.execute_group", 0) / per_op,
        "service.batch_lanes_mean": _ratio(counts.get("service.lanes", 0),
                                           calls.get("service.execute_group", 0)),
    })
    return values


def total_self_s(totals: Dict[str, Dict[str, float]]) -> float:
    return float(sum(totals.get("self_s", {}).values()))


def merge(into: Dict[str, Dict[str, float]], more: Dict[str, Dict[str, float]]) -> None:
    """Add one snapshot's totals into another, key by key."""
    for section, values in more.items():
        target = into.setdefault(section, {})
        for key, value in values.items():
            target[key] = target.get(key, 0) + value


#: Counters that must stay 0 on a workload that bypasses their layer.
BYPASSED = {
    "search-500": ("lp.bnb.nodes", "lp.simplex.iterations", "core.milp.solves",
                   "service.execute_group.calls", "pipeline.store.get.calls"),
    "milp-sweep": ("search.lanes", "service.execute_group.calls",
                   "pipeline.store.get.calls"),
}
