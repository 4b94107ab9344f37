"""The MIN_CYC and MAX_THR mixed-integer linear programs (Section 4).

The joint minimisation of the effective cycle time is the non-convex
quadratic program (12); fixing one of the two factors of the objective
(``x = 1/Theta`` or ``tau``) yields a MILP:

* :func:`min_cycle_time` — ``MIN_CYC(x)``: the configuration of minimum cycle
  time among those whose LP throughput bound is at least ``1/x``.
  ``MIN_CYC(1)`` is a min-delay retiming.
* :func:`max_throughput` — ``MAX_THR(tau)``: the configuration of maximum LP
  throughput bound among those whose cycle time is at most ``tau``.

Both programs share the same decision variables: an integer retiming lag per
node, an integer buffer count per edge, the continuous timing variables of
the path constraints and the continuous ``sigma``/``x`` variables of the
throughput constraints.

Solve reuse
-----------
The MIN_EFF_CYC heuristic solves up to ``1/epsilon`` near-identical pairs of
these MILPs.  :class:`MilpWorkspace` builds each model **once**, with the
swept quantity (the required ``x`` for MIN_CYC, the cycle-time budget ``tau``
for MAX_THR) encoded as a variable fixed by its bounds.  Consecutive solves
then mutate only those bounds on the cached standard form and warm-start the
branch-and-bound root from the previous solve's basis — no model rebuild, no
matrix re-assembly, and (on the pure backend) dual-simplex re-solves instead
of cold starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.configuration import RRConfiguration, RetimingVector
from repro.core.path_constraints import add_path_constraints
from repro.core.rrg import RRG
from repro.core.throughput import add_throughput_constraints
from repro.gmg.build import TGMGTemplate, build_template
from repro.lp import Model, Solution, SolveStatus, Variable
from repro.lp.errors import InfeasibleError, SolverError


@dataclass
class MilpSettings:
    """Settings shared by the two MILPs.

    Consecutive solves of one :class:`MilpWorkspace` always reuse the
    previous basis (the pure backend re-solves dual-simplex from it; scipy
    ignores it).

    Attributes:
        backend: LP/MILP backend ("auto", "scipy" or "pure").
        time_limit: Optional solver time limit in seconds (the paper used a
            20-minute CPLEX timeout).
        max_buffers_per_edge: Upper bound on R'(e).  ``None`` derives a safe
            default from the total token count and the graph size.
        buffer_penalty: Tiny objective weight on the total buffer count, used
            only to break ties towards configurations without gratuitous
            buffers; set to 0.0 to reproduce the paper's objective exactly.
    """

    backend: str = "auto"
    time_limit: Optional[float] = None
    max_buffers_per_edge: Optional[int] = None
    buffer_penalty: float = 1e-6


@dataclass
class MilpOutcome:
    """Result of one MILP solve.

    Attributes:
        configuration: The extracted retiming-and-recycling configuration.
        cycle_time: Cycle time of the configuration (recomputed exactly from
            the buffer assignment, not read from the LP relaxation).
        throughput_bound: LP throughput bound implied by the MILP (``1/x``);
            for :func:`min_cycle_time` this is the requested bound.
        objective: Raw objective value reported by the solver.
        lp_iterations: Total simplex iterations over all branch-and-bound
            nodes (0 when the backend does not report it).
        nodes: Branch-and-bound nodes explored (0 when not reported).
    """

    configuration: RRConfiguration
    cycle_time: float
    throughput_bound: float
    objective: float
    lp_iterations: int = 0
    nodes: int = 0


def _default_max_buffers(rrg: RRG) -> int:
    total_tokens = sum(abs(e.tokens) for e in rrg.edges)
    return max(total_tokens + rrg.num_nodes, 4)


def _add_structure_variables(
    model: Model,
    rrg: RRG,
    settings: MilpSettings,
) -> tuple[Dict[str, Variable], Dict[int, Variable]]:
    """Add the retiming lags r(n) and buffer counts R'(e), with the coupling
    R'(e) >= R0(e) + r(v) - r(u) and R'(e) >= 0."""
    bound = settings.max_buffers_per_edge or _default_max_buffers(rrg)
    lag_bound = bound + sum(abs(e.tokens) for e in rrg.edges) + rrg.num_nodes
    lags: Dict[str, Variable] = {}
    for i, node in enumerate(rrg.nodes):
        lags[node.name] = model.add_var(
            f"r[{node.name}]", lb=-lag_bound, ub=lag_bound, vtype="integer"
        )
    # Retimings are invariant under a global shift; pin the first node to 0 to
    # remove the symmetry and help the branch-and-bound search.
    first = rrg.nodes[0].name
    model.add_constr(lags[first] <= 0, name="pin_upper")
    model.add_constr(lags[first] >= 0, name="pin_lower")

    buffers: Dict[int, Variable] = {}
    for edge in rrg.edges:
        buffers[edge.index] = model.add_var(
            f"R[{edge.index}]", lb=0, ub=bound, vtype="integer"
        )
        model.add_constr(
            buffers[edge.index]
            >= edge.tokens + lags[edge.dst] - lags[edge.src],
            name=f"retime[{edge.index}]",
        )
    return lags, buffers


def _extract_configuration(
    rrg: RRG,
    solution,
    lags: Dict[str, Variable],
    buffers: Dict[int, Variable],
    label: str,
) -> RRConfiguration:
    lag_values = {name: int(round(solution[var])) for name, var in lags.items()}
    buffer_values = {index: int(round(solution[var])) for index, var in buffers.items()}
    return RRConfiguration(
        rrg,
        retiming=RetimingVector(lag_values),
        buffers=buffer_values,
        label=label,
    )


class _ProgramState:
    """One cached MILP model plus its warm-start basis."""

    __slots__ = ("model", "lags", "buffers", "knob", "aux", "basis")

    def __init__(self, model, lags, buffers, knob, aux) -> None:
        self.model = model
        self.lags = lags
        self.buffers = buffers
        self.knob = knob  # the fixed-bound variable swept between solves
        self.aux = aux  # tau variable for MIN_CYC, x variable for MAX_THR
        self.basis = None


class MilpWorkspace:
    """Reusable MIN_CYC / MAX_THR solver state for one RRG.

    Each program's model is built on first use and kept; later solves mutate
    only the bounds of the swept variable (``x`` requirement or ``tau``
    budget) on the cached standard form and warm-start from the previous
    final basis.  This is what makes the MIN_EFF_CYC Pareto walk cheap: the
    constraint matrices never change across the whole sweep.
    """

    def __init__(
        self,
        rrg: RRG,
        settings: Optional[MilpSettings] = None,
        template: Optional[TGMGTemplate] = None,
    ) -> None:
        rrg.validate()
        self.rrg = rrg
        self.settings = settings or MilpSettings()
        self.template = template if template is not None else build_template(rrg, refine=True)
        self._min_cyc: Optional[_ProgramState] = None
        self._max_thr: Optional[_ProgramState] = None

    # -- model builders -----------------------------------------------------

    def _build_min_cyc(self) -> _ProgramState:
        rrg = self.rrg
        model = Model(f"{rrg.name}-min_cyc", sense="min")
        lags, buffers = _add_structure_variables(model, rrg, self.settings)
        tau = model.add_var("tau", lb=0.0, ub=max(rrg.total_delay, rrg.max_delay))
        # The required inverse throughput is swept between solves; encoding it
        # as a variable fixed by its bounds keeps the matrices constant.
        x_req = model.add_var("x_req", lb=1.0, ub=1.0)
        add_path_constraints(model, rrg, buffers, tau)
        add_throughput_constraints(
            model, rrg, buffers, x=x_req, template=self.template
        )
        objective = tau
        if self.settings.buffer_penalty:
            total_buffers = sum(buffers.values(), start=0)
            objective = tau + self.settings.buffer_penalty * total_buffers
        model.set_objective(objective)
        return _ProgramState(model, lags, buffers, knob=x_req, aux=tau)

    def _build_max_thr(self) -> _ProgramState:
        rrg = self.rrg
        model = Model(f"{rrg.name}-max_thr", sense="min")
        lags, buffers = _add_structure_variables(model, rrg, self.settings)
        x = model.add_var("x", lb=1.0, ub=None)
        # The cycle-time budget is swept between solves (fixed via bounds).
        tau_budget = model.add_var(
            "tau_budget", lb=0.0, ub=max(rrg.total_delay, rrg.max_delay)
        )
        add_path_constraints(model, rrg, buffers, tau=tau_budget)
        add_throughput_constraints(model, rrg, buffers, x=x, template=self.template)
        objective = x
        if self.settings.buffer_penalty:
            total_buffers = sum(buffers.values(), start=0)
            objective = x + self.settings.buffer_penalty * total_buffers
        model.set_objective(objective)
        return _ProgramState(model, lags, buffers, knob=tau_budget, aux=x)

    def _solve(self, state: _ProgramState) -> Solution:
        solution = state.model.solve(
            backend=self.settings.backend,
            time_limit=self.settings.time_limit,
            warm_start=state.basis,
        )
        if solution.basis is not None:
            state.basis = solution.basis
        return solution

    # -- the two programs ---------------------------------------------------

    def min_cycle_time(self, x: float = 1.0) -> MilpOutcome:
        """MIN_CYC(x): minimise the cycle time subject to Theta_lp >= 1/x."""
        if x < 1.0:
            raise ValueError(f"x must be >= 1 (throughput cannot exceed 1), got {x}")
        if self._min_cyc is None:
            self._min_cyc = self._build_min_cyc()
        state = self._min_cyc
        state.model.set_var_bounds(state.knob, float(x), float(x))
        solution = self._solve(state)
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"MIN_CYC({x}) is infeasible for {self.rrg.name!r}: no configuration "
                f"has throughput bound >= {1.0 / x:.4f}"
            )
        if not solution.has_point:
            raise SolverError(
                f"MIN_CYC({x}) failed on {self.rrg.name!r}: {solution.status.value}"
            )
        configuration = _extract_configuration(
            self.rrg, solution, state.lags, state.buffers, label=f"min_cyc(x={x:.4g})"
        )
        return MilpOutcome(
            configuration=configuration,
            cycle_time=configuration.cycle_time(),
            throughput_bound=1.0 / float(x),
            objective=float(solution.objective),
            lp_iterations=solution.iterations,
            nodes=solution.nodes,
        )

    def max_throughput(self, tau: float) -> MilpOutcome:
        """MAX_THR(tau): maximise the LP throughput bound under a cycle cap."""
        if self._max_thr is None:
            self._max_thr = self._build_max_thr()
        state = self._max_thr
        cap = max(self.rrg.total_delay, self.rrg.max_delay)
        state.model.set_var_bounds(state.knob, 0.0, min(float(tau), cap))
        solution = self._solve(state)
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"MAX_THR({tau}) is infeasible for {self.rrg.name!r}: the cycle-time "
                f"budget is below the largest node delay {self.rrg.max_delay:.4f}"
            )
        if not solution.has_point:
            raise SolverError(
                f"MAX_THR({tau}) failed on {self.rrg.name!r}: {solution.status.value}"
            )
        configuration = _extract_configuration(
            self.rrg, solution, state.lags, state.buffers, label=f"max_thr(tau={tau:.4g})"
        )
        x_value = float(solution[state.aux])
        return MilpOutcome(
            configuration=configuration,
            cycle_time=configuration.cycle_time(),
            throughput_bound=1.0 / x_value if x_value > 0 else math.inf,
            objective=float(solution.objective),
            lp_iterations=solution.iterations,
            nodes=solution.nodes,
        )


def min_cycle_time(
    rrg: RRG,
    x: float = 1.0,
    settings: Optional[MilpSettings] = None,
    template: Optional[TGMGTemplate] = None,
) -> MilpOutcome:
    """MIN_CYC(x): minimise the cycle time subject to Theta_lp >= 1/x.

    Args:
        rrg: The base graph (its own token assignment defines what retimings
            are legal).
        x: Inverse of the required throughput bound; ``x = 1`` asks for full
            throughput and therefore returns a min-delay retiming.
        settings: Solver settings.
        template: Optional pre-built TGMG template of ``rrg``.

    Raises:
        InfeasibleError: when no configuration reaches the requested
            throughput bound.

    One-shot convenience wrapper around :class:`MilpWorkspace`; callers
    solving several related programs should hold a workspace instead.
    """
    return MilpWorkspace(rrg, settings=settings, template=template).min_cycle_time(x)


def max_throughput(
    rrg: RRG,
    tau: float,
    settings: Optional[MilpSettings] = None,
    template: Optional[TGMGTemplate] = None,
) -> MilpOutcome:
    """MAX_THR(tau): maximise the LP throughput bound under a cycle-time cap.

    Args:
        rrg: The base graph.
        tau: Cycle-time budget.  Must be at least the largest node delay,
            otherwise no configuration can meet it.
        settings: Solver settings.
        template: Optional pre-built TGMG template of ``rrg``.

    Raises:
        InfeasibleError: when ``tau`` is below the largest combinational
            delay.

    One-shot convenience wrapper around :class:`MilpWorkspace`; callers
    solving several related programs should hold a workspace instead.
    """
    return MilpWorkspace(rrg, settings=settings, template=template).max_throughput(tau)
