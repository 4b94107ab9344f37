"""The Build -> Optimize -> Simulate -> Report stage pipeline.

Every experiment in this repository has the same shape: *build* a workload
RRG, *optimize* it with MIN_EFF_CYC (optionally next to the late-evaluation
baseline), *simulate* the resulting candidate configurations through the
batched engine, and *report* rows.  This module turns that shape into data:

* a :class:`Job` is a picklable declaration — a :class:`BuildSpec` naming a
  registry scenario (or carrying an inline RRG), optional
  :class:`OptimizeParams` and :class:`SimulateParams`;
* :func:`execute_job` runs the Build/Optimize/Simulate stages (each a small
  :class:`Stage` object sharing a :class:`JobContext`) and returns a pure
  JSON payload, so results can cross process boundaries and live in the
  artifact store;
* the Report stage runs in the parent process: experiments reduce payloads
  back into their public dataclasses (:func:`optimization_from_payload`
  rebuilds an :class:`~repro.core.optimizer.OptimizationResult` object for
  callers that want live configurations).

Because a payload is a deterministic function of the job declaration, a
serial run, an 8-shard run and a store-cached run all reduce to identical
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Protocol

from repro.analysis.cycle_time import cycle_time
from repro.core.configuration import RRConfiguration, RetimingVector
from repro.core.milp import MilpSettings
from repro.core.optimizer import (
    OptimizationResult,
    ParetoPoint,
    min_effective_cycle_time,
)
from repro.core.rrg import RRG
from repro.core.throughput import configuration_throughput_bound
from repro.obs import trace as _trace
from repro.pipeline.store import content_key
from repro.resilience import faults as _faults
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.faults import InjectedFault
from repro.resilience.retry import STAGE_RETRY, RetryPolicy, TransientError
from repro.retiming.late_evaluation import late_evaluation_baseline
from repro.sim.batch import simulate_configurations
from repro.sim.cache import rrg_fingerprint
from repro.workloads.registry import build_scenario

#: Version of the job payload layout; part of every store key.
PAYLOAD_VERSION = 2


@dataclass(frozen=True)
class BuildSpec:
    """How to obtain the job's RRG.

    Either a registry reference (``scenario`` + ``params``) — the normal,
    compact form — or an inline serialized RRG for public APIs that accept an
    arbitrary caller-constructed graph.
    """

    scenario: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    rrg_json: Optional[str] = None

    @classmethod
    def from_scenario(cls, scenario_name: str, /, **params: Any) -> "BuildSpec":
        return cls(scenario=scenario_name, params=dict(params))

    @classmethod
    def from_rrg(cls, rrg: RRG) -> "BuildSpec":
        return cls(rrg_json=rrg.to_json(indent=0))

    def build(self) -> RRG:
        if self.scenario is not None:
            return build_scenario(self.scenario, self.params)
        if self.rrg_json is not None:
            return RRG.from_json(self.rrg_json)
        raise ValueError("BuildSpec needs a scenario name or an inline RRG")

    def describe(self) -> Dict[str, Any]:
        if self.scenario is not None:
            return {"scenario": self.scenario, "params": dict(self.params)}
        return {"inline": True}


#: Optimizers the Optimize stage can dispatch to.  ``milp`` is the exact
#: MIN_EFF_CYC walk; the rest route through :mod:`repro.search` (``portfolio``
#: races descent + annealing and, on small graphs, the MILP itself).
OPTIMIZERS = ("milp", "descent", "anneal", "portfolio")

#: Strategy line-up per search optimizer.
SEARCH_STRATEGIES = {
    "descent": ("descent",),
    "anneal": ("anneal",),
    "portfolio": ("descent", "anneal"),
}


@dataclass(frozen=True)
class OptimizeParams:
    """Parameters of the Optimize stage.

    ``optimizer`` selects between the exact MILP walk (``"milp"``, the
    default — MIN_EFF_CYC with optional late-evaluation baseline) and the
    heuristic search subsystem (``"descent"``/``"anneal"``/``"portfolio"``,
    for graphs beyond branch-and-bound reach).  The search knobs
    (``time_budget``, ``search_seed``, ``search_cycles``, ``search_pool``)
    are ignored by the MILP path; MILP settings are shared by both (the
    portfolio's MILP member uses them on small instances).  ``search_pool``
    is the moves-per-batch pool size of the search strategies (None = the
    search default) — declarative, so it is part of the job identity.
    """

    k: int = 3
    epsilon: float = 0.05
    baseline: bool = False
    baseline_full_search: bool = False
    backend: str = "auto"
    time_limit: Optional[float] = None
    max_buffers_per_edge: Optional[int] = None
    buffer_penalty: float = 1e-6
    optimizer: str = "milp"
    time_budget: Optional[float] = None
    search_seed: int = 0
    search_cycles: int = 256
    search_pool: Optional[int] = None

    @classmethod
    def from_settings(
        cls,
        settings: Optional[MilpSettings],
        k: int = 3,
        epsilon: float = 0.05,
        baseline: bool = False,
        baseline_full_search: bool = False,
    ) -> "OptimizeParams":
        settings = settings or MilpSettings()
        return cls(
            k=k,
            epsilon=epsilon,
            baseline=baseline,
            baseline_full_search=baseline_full_search,
            backend=settings.backend,
            time_limit=settings.time_limit,
            max_buffers_per_edge=settings.max_buffers_per_edge,
            buffer_penalty=settings.buffer_penalty,
        )

    def settings(self) -> MilpSettings:
        return MilpSettings(
            backend=self.backend,
            time_limit=self.time_limit,
            max_buffers_per_edge=self.max_buffers_per_edge,
            buffer_penalty=self.buffer_penalty,
        )


@dataclass(frozen=True)
class SimulateParams:
    """Parameters of the Simulate stage.

    With an Optimize stage present, the stage batches every stored Pareto
    candidate (prepending the LP-preferred one when ``include_best`` is set,
    as the Table 2 column definitions require).  Without one, it evaluates
    the built RRG itself; ``exact`` and ``lp_bound`` additionally request the
    Markov-chain throughput and the LP upper bound (the motivational-example
    columns).
    """

    cycles: int = 4000
    warmup: Optional[int] = None
    seed: int = 0
    mode: str = "tgmg"
    include_best: bool = False
    exact: bool = False
    lp_bound: bool = False
    recompute_bounds: bool = False


@dataclass(frozen=True)
class Job:
    """One unit of pipeline work: scenario x stage parameters.

    ``meta`` carries reducer-side context (figure labels, expected values...)
    that does not influence the computation — it is excluded from the store
    key.
    """

    job_id: str
    build: BuildSpec
    optimize: Optional[OptimizeParams] = None
    simulate: Optional[SimulateParams] = None
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class JobContext:
    """Mutable state shared by the stages of one job."""

    job: Job
    rrg: Optional[RRG] = None
    optimization: Optional[OptimizationResult] = None
    baseline_xi: Optional[float] = None
    payload: Dict[str, Any] = field(default_factory=dict)


class Stage(Protocol):
    """The stage protocol: a name and an in-place context transformation."""

    name: str

    def run(self, ctx: JobContext) -> None:
        ...


class BuildStage:
    name = "build"

    def run(self, ctx: JobContext) -> None:
        # The runner may have pre-built the graph (it needs the fingerprint
        # for the store key before deciding whether to execute the job).
        rrg = ctx.rrg if ctx.rrg is not None else ctx.job.build.build()
        ctx.rrg = rrg
        ctx.payload["graph"] = {
            "name": rrg.name,
            "num_nodes": rrg.num_nodes,
            "simple_nodes": len(rrg.simple_nodes),
            "early_nodes": len(rrg.early_nodes),
            "num_edges": rrg.num_edges,
            "initial_cycle_time": cycle_time(rrg),
        }


#: Fixed search budget of a degraded Optimize stage.  A constant — not the
#: live deadline remainder — so the fallback's evaluation budget (and with
#: it the degraded incumbent) is a pure function of the job declaration.
DEGRADED_TIME_BUDGET = 5.0


class OptimizeStage:
    name = "optimize"

    def __init__(self, params: OptimizeParams) -> None:
        self.params = params

    def run(self, ctx: JobContext) -> None:
        assert ctx.rrg is not None, "Optimize requires a built RRG"
        params = self.params
        if params.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer {params.optimizer!r}; "
                f"expected one of {OPTIMIZERS}"
            )
        if params.optimizer != "milp":
            self._run_search(ctx, params)
            return
        deadline = Deadline.current()
        try:
            # The ``solver_stall`` fault site models the exact MILP wedging
            # past any useful deadline; the reaction is the same degradation
            # path a genuine deadline overrun takes.
            _faults.check("solver_stall", ctx.job.job_id)
            self._run_milp(ctx, params, deadline)
        except InjectedFault:
            self._degrade(ctx, params, deadline, reason="solver-stall")
        except DeadlineExceeded:
            self._degrade(ctx, params, deadline, reason="milp-deadline")

    def _degrade(
        self,
        ctx: JobContext,
        params: OptimizeParams,
        deadline: Optional[Deadline],
        reason: str,
    ) -> None:
        """Fall back from the exact MILP to the heuristic portfolio.

        The request still succeeds: the payload carries a ``degraded``
        provenance block (and is never published to the store, so a later
        unconstrained run recomputes the exact answer).
        """
        fallback = replace(
            params,
            optimizer="portfolio",
            time_budget=params.time_budget or DEGRADED_TIME_BUDGET,
        )
        # Whatever the MILP partially produced is discarded wholesale: the
        # search rewrites the optimize block, and a half-done exact walk must
        # not masquerade as provenance.
        ctx.payload.pop("optimize", None)
        self._run_search(ctx, fallback, milp_member=False)
        ctx.payload["degraded"] = {
            "stage": self.name,
            "requested": "milp",
            "optimizer": "portfolio",
            "reason": reason,
            "deadline_remaining": (
                None if deadline is None else round(deadline.remaining(), 3)
            ),
        }

    def _run_milp(
        self,
        ctx: JobContext,
        params: OptimizeParams,
        deadline: Optional[Deadline],
    ) -> None:
        settings = params.settings()
        if deadline is not None:
            deadline.require("optimize stage")
        if params.baseline:
            baseline = late_evaluation_baseline(
                ctx.rrg,
                epsilon=params.epsilon,
                settings=settings,
                full_search=params.baseline_full_search,
            )
            ctx.baseline_xi = baseline.effective_cycle_time
            ctx.payload["baseline"] = {
                "effective_cycle_time": baseline.effective_cycle_time,
                "min_delay_cycle_time": baseline.min_delay_cycle_time,
                "used_recycling": baseline.used_recycling,
            }
        guard = None
        if deadline is not None:
            def guard(count: int, point: ParetoPoint) -> None:
                # Invoked after every stored Pareto point: the walk stops at
                # the first point past the deadline and the stage degrades
                # (the partial walk is discarded, so nothing half-done can
                # reach the store).
                del count, point
                deadline.require("MILP Pareto walk")
        result = min_effective_cycle_time(
            ctx.rrg,
            k=params.k,
            epsilon=params.epsilon,
            settings=settings,
            progress=guard,
        )
        ctx.optimization = result
        points = [_point_payload(point) for point in result.points]
        best_index = next(
            (i for i, p in enumerate(result.points) if p is result.best), -1
        )
        ctx.payload["optimize"] = {
            "points": points,
            "best": _point_payload(result.best),
            "best_index": best_index,
            "k_best_indices": [
                i
                for point in result.k_best
                for i, candidate in enumerate(result.points)
                if candidate is point
            ],
            "iterations": result.iterations,
            "milp_solves": result.milp_solves,
            "total_lp_iterations": result.total_lp_iterations,
            "total_nodes": result.total_nodes,
        }

    def _run_search(
        self,
        ctx: JobContext,
        params: OptimizeParams,
        milp_member: Optional[bool] = None,
    ) -> None:
        """The heuristic path: race strategies, emit the MILP payload shape.

        The payload mirrors the exact path (``points``/``best``/indices) so
        the Simulate stage and every reducer work unchanged, and adds a
        ``search`` block with the anytime profile and provenance.  Pareto
        points carry the *measured* throughput in the ``throughput_bound``
        slot when no LP bound was computed (graphs beyond the LP filter
        size); ``search.bound_kind`` says which one it is.

        ``milp_member`` overrides the portfolio's MILP-member gate; the
        degraded path forces it off (the MILP just failed the job's budget).
        """
        from repro.search import search_minimize
        from repro.search.problem import LP_FILTER_MAX_NODES

        if milp_member is None:
            # Only the portfolio admits the exact MILP, and only below the
            # search's own node limit (None = auto gate).
            milp_member = None if params.optimizer == "portfolio" else False
        result = search_minimize(
            ctx.rrg,
            strategies=SEARCH_STRATEGIES[params.optimizer],
            time_budget=params.time_budget or 30.0,
            seed=params.search_seed,
            cycles=params.search_cycles,
            epsilon=params.epsilon,
            settings=params.settings(),
            include_milp=milp_member,
            pool_size=params.search_pool,
        )
        use_lp_bound = ctx.rrg.num_nodes <= LP_FILTER_MAX_NODES

        def to_point(entry) -> ParetoPoint:
            if use_lp_bound:
                bound = configuration_throughput_bound(entry.configuration)
            else:
                bound = entry.throughput
            point = ParetoPoint(
                configuration=entry.configuration,
                cycle_time=entry.cycle_time,
                throughput_bound=bound,
            )
            point.throughput = entry.throughput
            return point

        points = [to_point(entry) for entry in result.points]
        best = points[-1]  # search_minimize puts the final incumbent last
        ctx.optimization = OptimizationResult(
            best=best,
            points=points,
            k_best=sorted(
                points, key=lambda p: p.effective_cycle_time
            )[: max(params.k, 1)],
            iterations=result.evaluations,
            milp_solves=(result.milp or {}).get("milp_solves", 0),
        )
        ctx.payload["optimize"] = {
            "points": [_point_payload(point) for point in points],
            "best": _point_payload(best),
            "best_index": len(points) - 1,
            "k_best_indices": [
                i
                for point in ctx.optimization.k_best
                for i, candidate in enumerate(points)
                if candidate is point
            ],
            "iterations": result.evaluations,
            "milp_solves": (result.milp or {}).get("milp_solves", 0),
            "total_lp_iterations": 0,
            "total_nodes": 0,
            "optimizer": params.optimizer,
            "search": {
                "strategy": result.best.strategy,
                "effective_cycle_time": result.best.effective_cycle_time,
                "evaluations": result.evaluations,
                "evaluation_budget": result.evaluation_budget,
                "pruned_tau": result.pruned_tau,
                "pruned_lp": result.pruned_lp,
                "bound_kind": "lp" if use_lp_bound else "measured",
                "time_budget": result.time_budget,
                "completed": result.completed,
                "seed": result.seed,
                "pool_size": result.pool_size,
                # Wall-clock and host-dependent fields stay out: a stored
                # payload must be a pure function of the job declaration
                # (the sim-cache-warmth dependent `simulations` counter and
                # the host's `kernel_backend` stay out for the same reason —
                # SearchResult still carries them for live callers).
                "milp": None if result.milp is None else {
                    key: value for key, value in result.milp.items()
                    if key != "seconds"
                },
                "history": [
                    [index, name, xi] for index, name, xi in result.history
                ],
                "strategies": [
                    {
                        "name": report.name,
                        "seed": report.seed,
                        "steps": report.steps,
                        "improvements": report.improvements,
                        "best_xi": report.best_xi,
                        "exhausted": report.exhausted,
                    }
                    for report in result.strategies
                ],
            },
        }
        deadline = Deadline.current()
        if deadline is not None and (
            not result.completed or (result.milp or {}).get("truncated")
        ):
            # The request deadline cut the race (or its MILP member) short:
            # the incumbent is valid but not the declaration-pure answer, so
            # mark it degraded — the runner/broker then keep it out of the
            # store and caches.
            ctx.payload["degraded"] = {
                "stage": self.name,
                "requested": params.optimizer,
                "optimizer": params.optimizer,
                "reason": "search-deadline",
                "deadline_remaining": round(deadline.remaining(), 3),
            }


class SimulateStage:
    name = "simulate"

    def __init__(self, params: SimulateParams) -> None:
        self.params = params

    def run(self, ctx: JobContext) -> None:
        assert ctx.rrg is not None, "Simulate requires a built RRG"
        params = self.params
        if ctx.optimization is None:
            self._evaluate_graph(ctx)
            return
        result = ctx.optimization
        candidates = [point.configuration for point in result.points]
        if params.include_best:
            candidates = [result.best.configuration] + candidates
        throughputs = simulate_configurations(
            candidates,
            cycles=params.cycles,
            warmup=params.warmup,
            seed=params.seed,
            mode=params.mode,
        )
        simulate: Dict[str, Any] = {
            "throughputs": throughputs,
            "include_best": params.include_best,
        }
        offset = 1 if params.include_best else 0
        point_payloads = ctx.payload["optimize"]["points"]
        for i, (point, throughput) in enumerate(
            zip(result.points, throughputs[offset:])
        ):
            point.throughput = throughput
            point_payloads[i]["throughput"] = throughput
        if params.recompute_bounds:
            # The ablation studies re-derive the bound with the default
            # backend (independently of the optimizer's warm-started one).
            simulate["bounds"] = [
                configuration_throughput_bound(point.configuration)
                for point in result.points
            ]
        ctx.payload["simulate"] = simulate

    def _evaluate_graph(self, ctx: JobContext) -> None:
        from repro.gmg.simulation import simulate_throughput

        params = self.params
        evaluate: Dict[str, Any] = {
            "simulated": simulate_throughput(
                ctx.rrg, cycles=params.cycles, seed=params.seed
            )
        }
        if params.exact:
            from repro.gmg.markov import exact_throughput

            evaluate["exact"] = exact_throughput(ctx.rrg).throughput
        if params.lp_bound:
            from repro.gmg.lp_bound import throughput_upper_bound

            evaluate["lp_bound"] = throughput_upper_bound(ctx.rrg)
        ctx.payload["simulate"] = evaluate


def stages_for(job: Job) -> List[Stage]:
    """The stage sequence a job declares (Report runs in the parent)."""
    stages: List[Stage] = [BuildStage()]
    if job.optimize is not None:
        stages.append(OptimizeStage(job.optimize))
    if job.simulate is not None:
        stages.append(SimulateStage(job.simulate))
    return stages


def execute_job(
    job: Job,
    rrg: Optional[RRG] = None,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, Any]:
    """Run a job's stages and return its payload (worker-side entry point).

    Each stage runs under ``retry`` (default :data:`STAGE_RETRY`): injected
    ``stage`` faults and :class:`TransientError` failures are retried with
    jittered backoff; the stage re-runs from a clean slate (stages fully
    overwrite their payload blocks, so a retried stage cannot leave partial
    state behind).  Deterministic errors propagate immediately.
    """
    policy = retry if retry is not None else STAGE_RETRY
    ctx = JobContext(job=job, rrg=rrg)
    for stage in stages_for(job):
        def run_stage(attempt: int, stage: Stage = stage) -> None:
            _faults.check("stage", f"{job.job_id}:{stage.name}", attempt)
            stage.run(ctx)

        with _trace.span(f"stage:{stage.name}", job_id=job.job_id) as stage_span:
            policy.call(
                run_stage,
                retry_on=(InjectedFault, TransientError),
                salt=f"stage:{job.job_id}:{stage.name}",
            )
            if stage_span:
                _annotate_stage_span(stage_span, stage.name, ctx.payload)
    ctx.payload["job_id"] = job.job_id
    return ctx.payload


def _annotate_stage_span(stage_span, stage_name: str, payload: Dict[str, Any]) -> None:
    """Copy solver/search effort counters onto a stage span.

    Pure observability: annotations are read from the payload, never
    written back, so traced and untraced runs stay bit-identical.
    """
    if stage_name == "optimize":
        optimize = payload.get("optimize")
        if isinstance(optimize, dict):
            stage_span.annotate(
                lp_iterations=optimize.get("total_lp_iterations"),
                milp_solves=optimize.get("milp_solves"),
            )
            search = optimize.get("search")
            if isinstance(search, dict) and "evaluations" in search:
                stage_span.annotate(search_evaluations=search.get("evaluations"))
    elif stage_name == "simulate":
        from repro.sim.kernels import kernel_backend

        stage_span.annotate(kernel_backend=kernel_backend())


def job_store_key(job: Job, rrg: RRG) -> str:
    """Content-addressed store key: RRG fingerprint + stage parameters.

    The fingerprint covers structure, delays, early flags and branch
    probabilities; the initial token/buffer vectors (excluded from the
    simulator fingerprint because configurations override them) are added
    here because they do shape the optimization.  ``meta`` is excluded — it
    never influences the computed payload.
    """
    return content_key({
        "version": PAYLOAD_VERSION,
        "fingerprint": rrg_fingerprint(rrg),
        "tokens": rrg.token_vector(),
        "buffers": rrg.buffer_vector(),
        "optimize": None if job.optimize is None else vars(job.optimize),
        "simulate": None if job.simulate is None else vars(job.simulate),
    })


# -- payload <-> dataclass round-trips --------------------------------------

def _configuration_payload(configuration: RRConfiguration) -> Dict[str, Any]:
    return {
        "lags": {str(k): int(v) for k, v in configuration.retiming.lags.items()},
        "buffers": {
            str(index): int(count)
            for index, count in configuration.buffer_vector().items()
        },
        "label": configuration.label,
    }


def configuration_from_payload(
    data: Mapping[str, Any], rrg: RRG
) -> RRConfiguration:
    """Rebind a serialized configuration onto a (structurally equal) RRG."""
    return RRConfiguration(
        rrg,
        RetimingVector({str(k): int(v) for k, v in data["lags"].items()}),
        {int(k): int(v) for k, v in data["buffers"].items()},
        label=str(data.get("label", "")),
    )


def _point_payload(point: ParetoPoint) -> Dict[str, Any]:
    return {
        "cycle_time": point.cycle_time,
        "throughput_bound": point.throughput_bound,
        "throughput": point.throughput,
        "bubbles": point.configuration.total_bubbles,
        "configuration": _configuration_payload(point.configuration),
    }


def point_from_payload(data: Mapping[str, Any], rrg: RRG) -> ParetoPoint:
    return ParetoPoint(
        configuration=configuration_from_payload(data["configuration"], rrg),
        cycle_time=float(data["cycle_time"]),
        throughput_bound=float(data["throughput_bound"]),
        throughput=(
            None if data.get("throughput") is None else float(data["throughput"])
        ),
    )


def optimization_from_payload(
    payload: Mapping[str, Any], rrg: RRG
) -> OptimizationResult:
    """Rebuild a live OptimizationResult from a job payload."""
    data = payload["optimize"]
    points = [point_from_payload(entry, rrg) for entry in data["points"]]
    best_index = int(data.get("best_index", -1))
    if 0 <= best_index < len(points):
        best = points[best_index]
    else:
        best = point_from_payload(data["best"], rrg)
    k_best = [points[i] for i in data.get("k_best_indices", []) if i < len(points)]
    return OptimizationResult(
        best=best,
        points=points,
        k_best=k_best or sorted(
            points, key=lambda p: p.effective_cycle_time_bound
        )[:1],
        iterations=int(data.get("iterations", 0)),
        milp_solves=int(data.get("milp_solves", 0)),
        total_lp_iterations=int(data.get("total_lp_iterations", 0)),
        total_nodes=int(data.get("total_nodes", 0)),
    )


def improvement_percent(baseline_xi: float, best_xi: float) -> float:
    """I% = (xi_baseline - xi_best) / xi_baseline * 100 (nan when undefined)."""
    if baseline_xi <= 0:
        return math.nan
    return (baseline_xi - best_xi) / baseline_xi * 100.0


def best_simulated_xi(
    payload: Mapping[str, Any], floor: Optional[float] = None
) -> float:
    """Best simulated effective cycle time among a payload's Pareto points.

    ``floor`` (typically the late-evaluation baseline, whose configuration is
    always available) caps the result from above.
    """
    best = math.inf if floor is None else floor
    points = payload["optimize"]["points"]
    offset = 1 if payload_include_best(payload) else 0
    throughputs = payload["simulate"]["throughputs"]
    for point, throughput in zip(points, throughputs[offset:]):
        if throughput > 0:
            best = min(best, point["cycle_time"] / throughput)
    return best


def payload_include_best(payload: Mapping[str, Any]) -> bool:
    """Whether the simulate stage prepended the LP-preferred configuration."""
    return bool(payload.get("simulate", {}).get("include_best", False))
