"""Backend that compiles models to scipy.optimize (HiGHS)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.lp.errors import SolverError
from repro.lp.model import StandardForm
from repro.lp.solution import Solution, SolveStatus


class ScipyBackend:
    """Solve LPs with :func:`scipy.optimize.linprog` and MILPs with
    :func:`scipy.optimize.milp` (both powered by HiGHS).

    The backend is stateless apart from its configuration, so a single
    instance can be reused across many solves.
    """

    name = "scipy-highs"

    def __init__(self, time_limit: Optional[float] = None) -> None:
        self.time_limit = time_limit

    def solve(self, form: StandardForm) -> Solution:
        """Solve a compiled :class:`StandardForm` with at least one variable."""
        if form.has_integers:
            return self._solve_milp(form)
        return self._solve_lp(form)

    # -- helpers -----------------------------------------------------------

    def _solve_lp(self, form: StandardForm) -> Solution:
        from scipy.optimize import linprog

        bounds = list(zip(form.lower, form.upper))
        options = {}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        result = linprog(
            c=form.c,
            A_ub=form.a_ub if form.a_ub.size else None,
            b_ub=form.b_ub if form.b_ub.size else None,
            A_eq=form.a_eq if form.a_eq.size else None,
            b_eq=form.b_eq if form.b_eq.size else None,
            bounds=bounds,
            method="highs",
            options=options or None,
        )
        return self._wrap(form, result)

    def _solve_milp(self, form: StandardForm) -> Solution:
        from scipy.optimize import Bounds, LinearConstraint, milp

        constraints = []
        if form.a_ub.size:
            constraints.append(
                LinearConstraint(form.a_ub, -np.inf, form.b_ub)
            )
        if form.a_eq.size:
            constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))
        integrality = form.integer_mask.astype(int)
        options = {}
        if self.time_limit is not None:
            options["time_limit"] = float(self.time_limit)
        result = milp(
            c=form.c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(form.lower, form.upper),
            options=options or None,
        )
        return self._wrap(form, result)

    def _wrap(self, form: StandardForm, result) -> Solution:
        status = self._status_from_result(result)
        values = {}
        objective = None
        if result.x is not None and status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
        ):
            x = np.asarray(result.x, dtype=float)
            # Snap integer variables to the nearest integer to remove solver noise.
            x = np.where(form.integer_mask, np.round(x), x)
            values = {var: float(x[i]) for i, var in enumerate(form.variables)}
            raw = float(form.c @ x + form.c0)
            objective = -raw if form.maximize else raw
        return Solution(
            status=status,
            objective=objective,
            values=values,
            backend=self.name,
            message=str(getattr(result, "message", "")),
            iterations=int(getattr(result, "nit", 0) or 0),
        )

    @staticmethod
    def _status_from_result(result) -> SolveStatus:
        # linprog and milp both expose `.status`: 0 optimal, 1 iteration/time
        # limit, 2 infeasible, 3 unbounded, 4 numerical trouble.
        status = getattr(result, "status", None)
        success = bool(getattr(result, "success", False))
        if success:
            return SolveStatus.OPTIMAL
        if status == 2:
            return SolveStatus.INFEASIBLE
        if status == 3:
            return SolveStatus.UNBOUNDED
        if status == 1 and getattr(result, "x", None) is not None:
            return SolveStatus.FEASIBLE
        if status in (1, 4):
            return SolveStatus.ERROR
        raise SolverError(f"unrecognised scipy result status: {status!r}")
