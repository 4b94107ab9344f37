"""Anytime portfolio racing of search strategies (and the exact MILP).

The racer interleaves step-based strategies under a shared budget and
returns the best incumbent with provenance.  Two disciplines make portfolio
runs reproducible:

* **seeds** — every strategy draws its seed from the run's root seed through
  the repository-wide hash-derivation scheme
  (:func:`repro.seeding.derive_seed`), so adding or removing a strategy
  never reshuffles the others, and a portfolio inside a sharded pipeline run
  is bit-identical to the serial one;
* **budget** — the wall-clock budget is converted once, up front, into a
  deterministic *evaluation budget* through a fixed cost model
  (:func:`evaluation_budget`).  The race stops after that many evaluation
  attempts — a pure function of (graph size, cycles, budget, pool size) —
  so two runs with the same seed return identical incumbents even when
  their wall-clock timings differ.  The model is calibrated conservatively
  for the compiled simulation kernels (:mod:`repro.sim.kernels`) and never
  consults the active backend; a hard wall-clock deadline (2x the nominal
  budget on a native backend, proportionally longer on the pure-python
  fallback so it can finish the same schedule) guards against pathological
  hosts and is reported via ``SearchResult.completed``.

On small instances the racer additionally runs the exact MILP
(:func:`repro.core.optimizer.min_effective_cycle_time`) as a portfolio
member under a share of the budget: where branch and bound is feasible the
portfolio inherits its optimum, and the heuristics race on from there.
One caveat: branch-and-bound time limits are wall-clock, so the strict
same-seed determinism guarantee holds when the MILP member either completes
its walk inside its share (the normal case below :data:`MILP_NODE_LIMIT`)
or is excluded — a truncated walk is flagged ``truncated`` in the result's
``milp`` info.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.milp import MilpSettings
from repro.core.rrg import RRG
from repro.obs import trace as _obs_trace
from repro.resilience.deadline import Deadline
from repro.search.problem import LP_FILTER_MAX_NODES, Evaluation, SearchProblem
from repro.search.state import SearchState
from repro.search.strategies import Strategy, make_strategy
from repro.seeding import derive_seed
from repro.sim import kernels as _kernels

#: Conservative throughput of the batched evaluation path, in edge-cycle
#: operations per second.  Calibrated against the compiled kernel backend
#: (generated C runs the reference container at ~100M ops/s;
#: deliberately ~5x below that so the deterministic budget translates into
#: *at most* the nominal wall-clock budget on slower hosts).  The model is a
#: pure function of the job — it must NOT consult the active backend, or two
#: hosts would race for different lengths and break same-seed reproduction;
#: a host stuck on the pure-python fallback instead gets a longer emergency
#: wall-clock leash (see :func:`search_minimize`).
KERNEL_OPS_PER_SECOND = 2.0e7

#: Legacy alias (pre-kernel scalar-engine calibration), kept because the
#: constant is part of the documented cost-model history.
OPS_PER_SECOND = 2.0e6

#: Modelled fixed cost of dispatching one evaluation batch (template
#: resolution, cache probes, array packing), amortised across its lanes.
BATCH_DISPATCH_SECONDS = 2.0e-3

#: Default move-pool size per strategy step (lanes per evaluation batch).
DEFAULT_POOL_SIZE = 24

#: Smallest evaluation budget the racer will run with (so a tiny budget on a
#: huge graph still improves on the identity configuration).
MIN_EVALUATIONS = 24

#: Node count up to which the exact MILP joins the portfolio by default
#: (covers the repository's table1/table2 preset instances; above it branch
#: and bound cannot be trusted to finish inside a search budget).
MILP_NODE_LIMIT = 80


def evaluation_cost(
    num_nodes: int, num_edges: int, total_cycles: int, pool_size: int = 1
) -> float:
    """Modelled seconds per evaluation (deterministic, machine-independent).

    ``pool_size`` is the number of lanes evaluated per batch: the fixed
    dispatch overhead amortises across the pool, so wider pools model (and
    get) cheaper per-evaluation cost.  Pool size is a declarative job
    parameter, which keeps the budget a pure function of the inputs.
    """
    ops = float(total_cycles) * (num_nodes + 3 * num_edges)
    seconds = ops / KERNEL_OPS_PER_SECOND
    seconds += BATCH_DISPATCH_SECONDS / max(1, int(pool_size))
    return max(seconds, 1e-6)


def evaluation_budget(
    rrg: RRG,
    cycles: int,
    warmup: int,
    time_budget: float,
    pool_size: int = 1,
) -> int:
    """Deterministic evaluation-attempt budget for a wall-clock budget."""
    cost = evaluation_cost(
        rrg.num_nodes, rrg.num_edges, cycles + warmup, pool_size=pool_size
    )
    return max(MIN_EVALUATIONS, int(time_budget / cost))


@dataclass
class Incumbent:
    """The best configuration found, with provenance."""

    configuration: Any  # RRConfiguration (kept loose for payload round-trips)
    cycle_time: float
    throughput: float
    effective_cycle_time: float
    strategy: str
    evaluation_index: int


@dataclass
class StrategyReport:
    """Per-strategy accounting of one race."""

    name: str
    seed: int
    steps: int
    improvements: int
    best_xi: float
    exhausted: bool


@dataclass
class SearchResult:
    """Outcome of :func:`search_minimize`.

    ``history`` traces every incumbent improvement as
    ``(evaluation_index, strategy, xi)`` — the anytime profile.  ``completed``
    is False only when the emergency wall-clock deadline (2x the nominal
    budget) cut the deterministic schedule short.
    """

    best: Incumbent
    history: List[Tuple[int, str, float]]
    strategies: List[StrategyReport]
    evaluations: int
    simulations: int
    pruned_tau: int
    pruned_lp: int
    lp_solves: int
    milp: Optional[Dict[str, Any]]
    seed: int
    time_budget: float
    evaluation_budget: int
    seconds: float
    completed: bool
    points: List[Incumbent] = field(default_factory=list)
    #: Lanes per evaluation batch (declarative; part of the cost model).
    pool_size: int = 1
    #: Simulation kernel backend that executed this run (live provenance
    #: only — results are backend-independent, so stored payloads must not
    #: include it).
    kernel_backend: str = "python"


class PortfolioRacer:
    """Evaluation-balanced racer over step-based strategies.

    Each turn steps the strategy that has consumed the fewest evaluation
    attempts so far (ties break by declaration order), so a strategy whose
    step is cheap (annealing: one attempt) is not starved by one whose step
    samples a whole neighborhood (descent: ``sample_size`` attempts).  The
    race ends when the shared evaluation budget is exhausted, every strategy
    is exhausted, or the emergency deadline fires.  Incumbent updates are
    strict improvements (ties keep the earlier holder), so the result is
    independent of timing.
    """

    def __init__(
        self,
        problem: SearchProblem,
        strategies: Sequence[Strategy],
        budget: int,
        deadline: Optional[float] = None,
    ) -> None:
        self.problem = problem
        self.strategies = list(strategies)
        self.budget = int(budget)
        self.deadline = deadline
        self.history: List[Tuple[int, str, float]] = []
        self.completed = True

    def race(
        self, start: SearchState, start_eval: Evaluation, seed: int
    ) -> Tuple[SearchState, Evaluation, str, int]:
        """Run the race; returns (best state, best eval, provenance, index)."""
        problem = self.problem
        best_state, best_eval = start.copy(), start_eval
        best_strategy, best_index = "identity", problem.evaluations
        for strategy in self.strategies:
            strategy.start(
                problem, start, start_eval,
                seed=derive_seed(seed, "strategy", strategy.name),
            )
        floor = problem.evaluations
        spent = {id(s): 0 for s in self.strategies}
        while True:
            alive = [s for s in self.strategies if not s.exhausted]
            if not alive:
                break
            if problem.evaluations - floor >= self.budget:
                break
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.completed = False
                break
            strategy = min(alive, key=lambda s: spent[id(s)])
            before = problem.evaluations
            improved = strategy.step()
            spent[id(strategy)] += problem.evaluations - before
            if improved is not None:
                state, evaluation = improved
                if (
                    evaluation.effective_cycle_time
                    < best_eval.effective_cycle_time - 1e-12
                ):
                    best_state, best_eval = state, evaluation
                    best_strategy = strategy.name
                    best_index = problem.evaluations
                    self.history.append((
                        best_index, strategy.name,
                        evaluation.effective_cycle_time,
                    ))
        return best_state, best_eval, best_strategy, best_index

    def reports(self) -> List[StrategyReport]:
        return [
            StrategyReport(
                name=s.name, seed=s.seed or 0, steps=s.steps,
                improvements=s.improvements, best_xi=s.best_xi,
                exhausted=s.exhausted,
            )
            for s in self.strategies
        ]


class _MilpBudgetExceeded(Exception):
    """Internal: stop the MIN_EFF_CYC walk at its time share."""


def _run_milp_member(
    rrg: RRG,
    problem: SearchProblem,
    epsilon: float,
    settings: Optional[MilpSettings],
    time_share: float,
) -> Tuple[Optional[SearchState], Optional[Evaluation], Dict[str, Any]]:
    """The exact MILP as a portfolio member (small instances only).

    The whole Pareto walk is bounded: each MILP solve gets a per-solve time
    limit *and* a progress guard aborts the walk once the share is spent,
    keeping whatever non-dominated points were already stored (the walk
    improves monotonically, so a truncated walk is still a valid — just
    possibly sub-optimal — portfolio member).
    """
    from repro.core.optimizer import ParetoPoint, min_effective_cycle_time

    settings = settings or MilpSettings()
    per_solve = min(time_share, settings.time_limit or time_share)
    settings = MilpSettings(
        backend=settings.backend,
        time_limit=per_solve,
        max_buffers_per_edge=settings.max_buffers_per_edge,
        buffer_penalty=settings.buffer_penalty,
    )
    started = time.perf_counter()
    deadline = started + time_share
    stored: List[ParetoPoint] = []

    def guard(index: int, point: ParetoPoint) -> None:
        stored.append(point)
        if time.perf_counter() > deadline:
            raise _MilpBudgetExceeded

    info: Dict[str, Any] = {"ran": True}
    best_point: Optional[ParetoPoint] = None
    try:
        outcome = min_effective_cycle_time(
            rrg, k=1, epsilon=epsilon, settings=settings, progress=guard
        )
        best_point = outcome.best
        info.update({
            "milp_solves": outcome.milp_solves,
            "best_xi_bound": outcome.best_effective_cycle_time_bound,
        })
    except _MilpBudgetExceeded:
        info["truncated"] = True
        if stored:
            best_point = min(
                stored, key=lambda p: p.effective_cycle_time_bound
            )
            info["best_xi_bound"] = best_point.effective_cycle_time_bound
    except Exception as exc:  # noqa: BLE001 — the MILP must never kill the race
        info.update({"error": f"{type(exc).__name__}: {exc}"})
        return None, None, info
    info["seconds"] = round(time.perf_counter() - started, 4)
    if best_point is None:
        return None, None, info
    state = SearchState.from_configuration(best_point.configuration)
    evaluation = problem.evaluate(state)
    return state, evaluation, info


def search_minimize(
    rrg: RRG,
    strategies: Sequence[str] = ("descent", "anneal"),
    time_budget: float = 30.0,
    seed: int = 0,
    cycles: int = 256,
    warmup: Optional[int] = None,
    epsilon: float = 0.05,
    settings: Optional[MilpSettings] = None,
    include_milp: Optional[bool] = None,
    milp_node_limit: int = MILP_NODE_LIMIT,
    mode: str = "tgmg",
    lp_filter_max_nodes: int = LP_FILTER_MAX_NODES,
    max_points: int = 5,
    pool_size: Optional[int] = None,
) -> SearchResult:
    """Minimise the measured effective cycle time of an RRG heuristically.

    Args:
        rrg: The base graph (validated here).
        strategies: Strategy names to race (``descent`` / ``anneal``).
        time_budget: Nominal wall-clock budget in seconds; converted into a
            deterministic evaluation budget (see the module docstring).
        seed: Root seed; per-strategy seeds derive from it.
        cycles: Measured simulation cycles per evaluation.
        warmup: Warm-up cycles per evaluation (default ``cycles // 4``).
        epsilon: Throughput step of the MILP member (small instances).
        settings: MILP settings of the MILP member.
        include_milp: Force the exact MILP in or out of the portfolio; None
            admits it on graphs up to ``milp_node_limit`` nodes.
        milp_node_limit: The auto-admission threshold.
        mode: Simulation mode.
        lp_filter_max_nodes: See :class:`~repro.search.problem.SearchProblem`.
        max_points: Incumbent-history configurations kept in ``points``.
        pool_size: Moves proposed (and evaluated as one batch) per strategy
            step; defaults to :data:`DEFAULT_POOL_SIZE`.  Part of the
            deterministic cost model — changing it changes the trajectory,
            running it on a different backend does not.

    Returns:
        A :class:`SearchResult`; ``result.best`` is the incumbent with
        provenance, ``result.points`` the distinct incumbents along the way
        (best last).
    """
    if time_budget <= 0:
        raise ValueError("time_budget must be positive")
    rrg.validate()
    pool = DEFAULT_POOL_SIZE if pool_size is None else int(pool_size)
    if pool <= 0:
        raise ValueError("pool_size must be positive")
    started = time.perf_counter()
    # Emergency wall-clock cutoff: a multiple of the nominal budget guards
    # against pathological hosts, and an ambient request deadline
    # (propagated from the service edge via Deadline.scope) tightens it
    # further — whichever expires first stops the race, reported via
    # ``completed``.  The budget is calibrated for the compiled kernels; a
    # host on the pure-python fallback runs the *same* deterministic
    # schedule (the cost model never consults the backend), so it gets a
    # proportionally longer leash to finish it — forcing
    # ``REPRO_SIM_KERNEL=python`` trades wall-clock for identical results.
    deadline_slack = 2.0 if _kernels.native_active() else 20.0
    hard_deadline = time.monotonic() + deadline_slack * time_budget
    ambient = Deadline.current()
    if ambient is not None:
        hard_deadline = min(hard_deadline, ambient.expires_at)
    problem = SearchProblem(
        rrg, cycles=cycles, warmup=warmup,
        seed=derive_seed(seed, "simulate"),
        mode=mode, lp_filter_max_nodes=lp_filter_max_nodes,
    )

    state0 = SearchState(rrg)
    eval0 = problem.evaluate(state0)
    best_state, best_eval = state0, eval0
    best_strategy, best_index = "identity", problem.evaluations
    trace: List[Tuple[SearchState, Evaluation, str]] = [
        (state0.copy(), eval0, "identity")
    ]

    milp_info: Optional[Dict[str, Any]] = None
    heuristic_budget = float(time_budget)
    run_milp = (
        include_milp if include_milp is not None
        else rrg.num_nodes <= int(milp_node_limit)
    )
    if run_milp:
        time_share = 0.5 * time_budget
        if ambient is not None:
            # Keep the exact member inside the request deadline too (its
            # walk is wall-clock bounded); a truncated walk is flagged in
            # ``milp.truncated`` as usual.
            time_share = min(time_share, max(0.05, ambient.share(0.5)))
        milp_state, milp_eval, milp_info = _run_milp_member(
            rrg, problem, epsilon, settings, time_share=time_share
        )
        # A fixed share, *not* the measured MILP wall time: the heuristic
        # evaluation budget must stay a pure function of the inputs, or two
        # runs of the same seed could race for different lengths.
        heuristic_budget = 0.5 * time_budget
        if milp_state is not None and (
            milp_eval.effective_cycle_time
            < best_eval.effective_cycle_time - 1e-12
        ):
            best_state, best_eval = milp_state, milp_eval
            best_strategy, best_index = "milp", problem.evaluations
            trace.append((milp_state.copy(), milp_eval, "milp"))

    budget = evaluation_budget(
        rrg, problem.cycles, problem.warmup, heuristic_budget,
        pool_size=pool,
    )
    members = [make_strategy(name) for name in strategies]
    for member in members:
        member.sample_size = pool
        if member.name == "anneal":
            # Size the annealing schedule (in attempts) to its fair share
            # of the budget.
            member.schedule_steps = max(
                16, budget // max(1, len(members))
            )
    racer = PortfolioRacer(
        problem, members, budget=budget, deadline=hard_deadline
    )
    race_state, race_eval, race_name, race_index = racer.race(
        best_state, best_eval, seed=seed
    )
    if (
        race_eval.effective_cycle_time
        < best_eval.effective_cycle_time - 1e-12
    ):
        best_state, best_eval = race_state, race_eval
        best_strategy, best_index = race_name, race_index
        trace.append((race_state.copy(), race_eval, race_name))

    def incumbent(state: SearchState, evaluation: Evaluation, name: str,
                  index: int) -> Incumbent:
        return Incumbent(
            configuration=state.as_configuration(label=name),
            cycle_time=evaluation.cycle_time,
            throughput=evaluation.throughput,
            effective_cycle_time=evaluation.effective_cycle_time,
            strategy=name,
            evaluation_index=index,
        )

    # Distinct trace configurations, best (the final incumbent) last.
    points: List[Incumbent] = []
    seen = set()
    for state, evaluation, name in trace[-max(1, int(max_points)):]:
        signature = state.signature()
        if signature in seen:
            continue
        seen.add(signature)
        points.append(incumbent(state, evaluation, name, 0))
    best = incumbent(best_state, best_eval, best_strategy, best_index)
    if points and points[-1].configuration.same_assignment(best.configuration):
        points[-1] = best
    else:
        points.append(best)

    result = SearchResult(
        best=best,
        history=list(racer.history),
        strategies=racer.reports(),
        evaluations=problem.evaluations,
        simulations=problem.simulations,
        pruned_tau=problem.pruned_tau,
        pruned_lp=problem.pruned_lp,
        lp_solves=problem.lp_solves,
        milp=milp_info,
        seed=seed,
        time_budget=float(time_budget),
        evaluation_budget=budget,
        seconds=round(time.perf_counter() - started, 4),
        completed=racer.completed,
        points=points,
        pool_size=pool,
        kernel_backend=_kernels.kernel_backend(),
    )
    # Observability only: a completed search span under the ambient trace
    # (no-op when tracing is off); never feeds back into the result.
    _obs_trace.record_span(
        "search",
        result.seconds,
        strategies=",".join(strategies),
        evaluations=result.evaluations,
        simulations=result.simulations,
        lp_solves=result.lp_solves,
        kernel_backend=result.kernel_backend,
        completed=result.completed,
    )
    return result
