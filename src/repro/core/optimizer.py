"""The MIN_EFF_CYC heuristic (Section 4 of the paper).

The heuristic walks the Pareto frontier of (cycle time, LP throughput bound)
points by alternating the two MILPs:

1. start from ``tau = beta_max`` (the smallest conceivable cycle time) and
   compute ``MAX_THR(tau)``;
2. while the throughput bound is below 1, require slightly more throughput
   (``Theta + epsilon``), find the minimum cycle time that achieves it with
   ``MIN_CYC(1 / Theta)``, and re-maximise the throughput at that cycle time
   with ``MAX_THR(tau)``;
3. keep every configuration produced (they are non-dominated with respect to
   the LP bound) and return the one of minimum effective cycle time, plus the
   ``k`` next best.

The paper uses ``epsilon = 0.01``.  The loop performs at most ``1/epsilon``
iterations because the required throughput increases by at least ``epsilon``
every time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.analysis.pareto import pareto_front
from repro.core.configuration import RRConfiguration
from repro.core.milp import MilpOutcome, MilpSettings, MilpWorkspace
from repro.core.rrg import RRG
from repro.core.throughput import configuration_throughput_bound
from repro.gmg.build import TGMGTemplate, build_template
from repro.lp.errors import InfeasibleError


@dataclass
class ParetoPoint:
    """One non-dominated configuration found by the heuristic.

    Attributes:
        configuration: The retiming-and-recycling configuration.
        cycle_time: tau(RC), recomputed exactly.
        throughput_bound: Theta_lp(RC) from the LP (11).
        throughput: Optional measured throughput filled in by callers that
            simulate the configuration (e.g. the Table 1 experiment).
    """

    configuration: RRConfiguration
    cycle_time: float
    throughput_bound: float
    throughput: Optional[float] = None

    @property
    def effective_cycle_time_bound(self) -> float:
        """xi_lp = tau / Theta_lp."""
        if self.throughput_bound <= 0:
            return math.inf
        return self.cycle_time / self.throughput_bound

    @property
    def effective_cycle_time(self) -> float:
        """xi = tau / Theta (infinite when no measured throughput is known)."""
        if not self.throughput:
            return math.inf
        return self.cycle_time / self.throughput


@dataclass
class OptimizationResult:
    """Output of :func:`min_effective_cycle_time`.

    Attributes:
        best: The configuration with the smallest effective-cycle-time bound
            (RC_lp_min in the paper).
        points: Every stored non-dominated configuration, ordered by
            increasing cycle time.
        k_best: The ``k`` best configurations by effective-cycle-time bound
            (including ``best``), so callers can re-rank them by simulation.
        best_simulated: The stored configuration of smallest *measured*
            effective cycle time (RC_min in the paper); only set when the
            optimiser ran its simulation phase (``simulate_cycles``).
        iterations: Number of MILP pairs solved by the loop.
        milp_solves: Total MILP solves (MAX_THR + MIN_CYC calls).
        total_lp_iterations: Simplex iterations summed over every
            branch-and-bound node of every MILP (0 when the backend does not
            report iteration counts) — the number that warm starts shrink.
        total_nodes: Branch-and-bound nodes summed over every MILP.
    """

    best: ParetoPoint
    points: List[ParetoPoint] = field(default_factory=list)
    k_best: List[ParetoPoint] = field(default_factory=list)
    best_simulated: Optional[ParetoPoint] = None
    iterations: int = 0
    milp_solves: int = 0
    total_lp_iterations: int = 0
    total_nodes: int = 0

    @property
    def best_effective_cycle_time_bound(self) -> float:
        return self.best.effective_cycle_time_bound


ProgressCallback = Callable[[int, ParetoPoint], None]


def min_effective_cycle_time(
    rrg: RRG,
    k: int = 3,
    epsilon: float = 0.01,
    settings: Optional[MilpSettings] = None,
    progress: Optional[ProgressCallback] = None,
    simulate_cycles: Optional[int] = None,
    simulate_seed: int = 0,
    simulate_warmup: Optional[int] = None,
) -> OptimizationResult:
    """Run MIN_EFF_CYC on an RRG.

    Args:
        rrg: The base graph to optimise.
        k: Number of best configurations to report (the paper's ``k``).
        epsilon: Throughput increment per iteration (0.01 in the paper).
        settings: MILP solver settings shared by all solves.
        progress: Optional callback invoked after each stored configuration.
        simulate_cycles: When set, run the simulation phase: every stored
            configuration is evaluated in one batched run of the compiled
            engine (``repro.sim``), ``point.throughput`` is filled in and
            ``result.best_simulated`` identifies RC_min.
        simulate_seed: Seed shared by all simulation lanes.
        simulate_warmup: Warm-up cycles for the simulation phase (defaults to
            :func:`repro.gmg.simulation.default_warmup`).

    Returns:
        An :class:`OptimizationResult`; ``result.best`` is RC_lp_min.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rrg.validate()
    settings = settings or MilpSettings()
    template = build_template(rrg, refine=True)
    # One workspace for the whole walk: the MIN_CYC / MAX_THR models are
    # built once, later solves only mutate the tau / x bounds and reuse the
    # previous basis as a warm start.
    workspace = MilpWorkspace(rrg, settings=settings, template=template)

    points: List[ParetoPoint] = []
    iterations = 0
    milp_solves = 0
    total_lp_iterations = 0
    total_nodes = 0

    def track(outcome: MilpOutcome) -> MilpOutcome:
        nonlocal milp_solves, total_lp_iterations, total_nodes
        milp_solves += 1
        total_lp_iterations += outcome.lp_iterations
        total_nodes += outcome.nodes
        return outcome

    def store(outcome: MilpOutcome) -> ParetoPoint:
        bound = configuration_throughput_bound(
            outcome.configuration, backend=settings.backend, template=template
        )
        point = ParetoPoint(
            configuration=outcome.configuration,
            cycle_time=outcome.cycle_time,
            throughput_bound=bound,
        )
        points.append(point)
        if progress is not None:
            progress(len(points), point)
        return point

    tau = rrg.max_delay
    current = store(track(workspace.max_throughput(tau)))
    best = current

    while current.throughput_bound < 1.0 - 1e-9:
        iterations += 1
        target = min(current.throughput_bound + epsilon, 1.0)
        outcome = track(workspace.min_cycle_time(x=1.0 / target))
        tau = outcome.cycle_time
        try:
            current = store(track(workspace.max_throughput(tau)))
        except InfeasibleError:
            # Cannot happen for a valid tau (the MIN_CYC solution itself meets
            # it), but guard against numerical corner cases.
            current = store(outcome)
        if current.effective_cycle_time_bound < best.effective_cycle_time_bound:
            best = current
        if iterations > math.ceil(1.0 / epsilon) + 2:
            break

    ordered = sorted(points, key=lambda p: (p.cycle_time, -p.throughput_bound))
    non_dominated = _drop_dominated(ordered)
    k_best = sorted(non_dominated, key=lambda p: p.effective_cycle_time_bound)[
        : max(k, 1)
    ]
    best_simulated: Optional[ParetoPoint] = None
    if simulate_cycles:
        from repro.sim.batch import simulate_configurations

        throughputs = simulate_configurations(
            [point.configuration for point in non_dominated],
            cycles=simulate_cycles,
            warmup=simulate_warmup,
            seed=simulate_seed,
        )
        for point, throughput in zip(non_dominated, throughputs):
            point.throughput = throughput
        best_simulated = min(
            non_dominated, key=lambda p: p.effective_cycle_time, default=None
        )
    return OptimizationResult(
        best=best,
        points=non_dominated,
        k_best=k_best,
        best_simulated=best_simulated,
        iterations=iterations,
        milp_solves=milp_solves,
        total_lp_iterations=total_lp_iterations,
        total_nodes=total_nodes,
    )


def _drop_dominated(points: List[ParetoPoint]) -> List[ParetoPoint]:
    """Keep only configurations that are non-dominated w.r.t. the LP bound."""
    pairs = [(p.cycle_time, p.throughput_bound) for p in points]
    keep = set(pareto_front(pairs))
    filtered = [p for i, p in enumerate(points) if i in keep]
    # Also drop exact duplicates (same cycle time and bound).
    unique: List[ParetoPoint] = []
    seen = set()
    for point in filtered:
        key = (round(point.cycle_time, 9), round(point.throughput_bound, 9))
        if key not in seen:
            seen.add(key)
            unique.append(point)
    return unique
