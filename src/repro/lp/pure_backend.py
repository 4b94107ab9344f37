"""Backend wiring the pure-Python revised simplex and branch-and-bound solvers."""

from __future__ import annotations

from typing import Optional

from repro.lp.branch_and_bound import BranchAndBoundSolver
from repro.lp.model import StandardForm
from repro.lp.revised_simplex import BasisState, RevisedSimplexSolver
from repro.lp.solution import Solution


class PureBackend:
    """Solve compiled models without scipy.

    LPs go straight to :class:`RevisedSimplexSolver`; models with integer
    variables go through :class:`BranchAndBoundSolver`.  Both accept an
    optional warm-start basis from a previous solve of a structurally
    identical model, and the returned :class:`Solution` carries the final
    basis so callers can chain solves (branch-and-bound does this per node
    internally; the MIN_EFF_CYC Pareto walk does it across MILPs).
    """

    name = "pure-python"

    def __init__(self, time_limit: Optional[float] = None) -> None:
        self.time_limit = time_limit

    def solve(
        self, form: StandardForm, warm_basis: Optional[BasisState] = None
    ) -> Solution:
        """Solve a compiled :class:`StandardForm` with at least one variable."""
        nodes = 0
        if form.has_integers:
            solver = BranchAndBoundSolver(time_limit=self.time_limit)
            result = solver.solve(
                form.c,
                form.a_ub,
                form.b_ub,
                form.a_eq,
                form.b_eq,
                form.lower,
                form.upper,
                form.integer_mask,
                basis=warm_basis,
                prep=form.prepared_lp(),
            )
            iterations = result.lp_iterations
            nodes = result.nodes_explored
        else:
            result = RevisedSimplexSolver().solve_prepared(
                form.prepared_lp(), form.lower, form.upper, basis=warm_basis
            )
            iterations = result.iterations

        # x is set exactly when the solver has a point: OPTIMAL, or FEASIBLE
        # when branch and bound stopped on a limit with an incumbent.
        if result.x is None:
            return Solution(
                result.status,
                backend=self.name,
                iterations=iterations,
                nodes=nodes,
                basis=result.basis,
            )

        values = {var: float(result.x[i]) for i, var in enumerate(form.variables)}
        raw = float(result.objective) + form.c0
        signed = -raw if form.maximize else raw
        return Solution(
            result.status,
            objective=signed,
            values=values,
            backend=self.name,
            iterations=iterations,
            nodes=nodes,
            basis=result.basis,
        )
