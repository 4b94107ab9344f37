"""The :class:`Model` class tying variables, constraints and backends together."""

from __future__ import annotations

import enum
import itertools
import math
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.lp.constraint import Constraint, ConstraintSense
from repro.lp.errors import ModelError, SolverError
from repro.lp.expression import LinExpr, Variable, VarType
from repro.lp.solution import Solution, SolveStatus

_MODEL_COUNTER = itertools.count(1)


class ObjectiveSense(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"

    @classmethod
    def coerce(cls, value: Union[str, "ObjectiveSense"]) -> "ObjectiveSense":
        if isinstance(value, cls):
            return value
        normalized = str(value).strip().lower()
        if normalized in ("min", "minimize", "minimise"):
            return cls.MINIMIZE
        if normalized in ("max", "maximize", "maximise"):
            return cls.MAXIMIZE
        raise ValueError(f"unknown objective sense: {value!r}")


class Objective:
    """Objective function: an affine expression and a direction."""

    def __init__(self, expr: LinExpr, sense: ObjectiveSense) -> None:
        self.expr = expr
        self.sense = sense

    def __repr__(self) -> str:
        return f"Objective({self.sense.value} {self.expr!r})"


class StandardForm:
    """Matrix form of a model, shared by all backends.

    The model is compiled to::

        minimize    c @ x  + c0
        subject to  A_ub @ x <= b_ub
                    A_eq @ x == b_eq
                    lb <= x <= ub
                    x[i] integer for i in integer_indices

    Maximisation objectives are negated during compilation and the sign is
    restored when building the :class:`Solution`.
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        c: np.ndarray,
        c0: float,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        integer_mask: np.ndarray,
        maximize: bool,
    ) -> None:
        self.variables = list(variables)
        self.c = c
        self.c0 = c0
        self.a_ub = a_ub
        self.b_ub = b_ub
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.lower = lower
        self.upper = upper
        self.integer_mask = integer_mask
        self.maximize = maximize
        self._prepared_lp = None

    def prepared_lp(self):
        """The pure backend's cached ``[A | I]`` build of this form.

        Built once per compiled form; bound/RHS mutations only require the
        right-hand sides to be re-read, so consecutive solves of a mutated
        model never re-assemble the constraint matrix.
        """
        from repro.lp.revised_simplex import PreparedLP

        if self._prepared_lp is None:
            self._prepared_lp = PreparedLP(
                self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq
            )
        else:
            self._prepared_lp.refresh_rhs(self.b_ub, self.b_eq)
        return self._prepared_lp

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def has_integers(self) -> bool:
        return bool(self.integer_mask.any())


class Model:
    """Container for variables, constraints and an objective.

    The model API mirrors PuLP / python-mip closely enough that the paper's
    formulations read almost verbatim.  Variables must be created through
    :meth:`add_var`; constraints are built with Python comparison operators on
    expressions and registered with :meth:`add_constr`.
    """

    def __init__(self, name: str = "model", sense: Union[str, ObjectiveSense] = "min"):
        self.name = name
        self._id = next(_MODEL_COUNTER)
        self._variables: List[Variable] = []
        self._names: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objective = Objective(LinExpr(), ObjectiveSense.coerce(sense))
        self._compiled: Optional[StandardForm] = None
        # Constraint name -> (kind, row, sign) for in-place RHS patching of
        # the cached standard form.  kind is "ub" or "eq"; sign records the
        # negation applied to >= rows during compilation.
        self._row_of: Dict[str, tuple] = {}

    def _invalidate(self) -> None:
        self._compiled = None
        self._row_of = {}

    # -- variables ---------------------------------------------------------

    def add_var(
        self,
        name: str = "",
        lb: Optional[float] = 0.0,
        ub: Optional[float] = None,
        vtype: Union[str, VarType] = VarType.CONTINUOUS,
    ) -> Variable:
        """Create and register a decision variable.

        Args:
            name: Unique name; auto-generated when empty.
            lb: Lower bound, ``None`` meaning unbounded below.
            ub: Upper bound, ``None`` meaning unbounded above.
            vtype: "continuous", "integer" or "binary".

        Returns:
            The new :class:`Variable`.
        """
        if not name:
            name = f"x{len(self._variables)}"
        if name in self._names:
            raise ModelError(f"duplicate variable name {name!r} in model {self.name!r}")
        var = Variable(
            name=name,
            lb=-math.inf if lb is None else lb,
            ub=math.inf if ub is None else ub,
            vtype=vtype,
            index=len(self._variables),
            model_id=self._id,
        )
        self._variables.append(var)
        self._names[name] = var
        self._invalidate()
        return var

    def add_vars(
        self,
        count: int,
        prefix: str = "x",
        lb: Optional[float] = 0.0,
        ub: Optional[float] = None,
        vtype: Union[str, VarType] = VarType.CONTINUOUS,
    ) -> List[Variable]:
        """Create ``count`` variables named ``prefix0 .. prefix{count-1}``."""
        return [
            self.add_var(f"{prefix}{i}", lb=lb, ub=ub, vtype=vtype)
            for i in range(count)
        ]

    def var_by_name(self, name: str) -> Variable:
        """Look up a variable by name, raising :class:`ModelError` if absent."""
        try:
            return self._names[name]
        except KeyError as exc:
            raise ModelError(f"no variable named {name!r}") from exc

    @property
    def variables(self) -> List[Variable]:
        """All variables in creation order."""
        return list(self._variables)

    # -- constraints --------------------------------------------------------

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons.

        Constant constraints that trivially hold are silently dropped;
        constant constraints that cannot hold are kept so the solve reports
        infeasibility (this matches the paper's use of feasibility checks).
        """
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constr expects a Constraint (use <=, >= or == on expressions)"
            )
        self._check_ownership(constraint.expr)
        if name:
            constraint = constraint.with_name(name)
        elif not constraint.name:
            constraint = constraint.with_name(f"c{len(self._constraints)}")
        if constraint.is_trivially_feasible():
            return constraint
        self._constraints.append(constraint)
        self._invalidate()
        return constraint

    @property
    def constraints(self) -> List[Constraint]:
        """All registered constraints."""
        return list(self._constraints)

    # -- objective ----------------------------------------------------------

    def set_objective(
        self, expr, sense: Optional[Union[str, ObjectiveSense]] = None
    ) -> None:
        """Set the objective expression (and optionally the direction)."""
        expr = LinExpr.from_value(expr)
        self._check_ownership(expr)
        direction = (
            self._objective.sense if sense is None else ObjectiveSense.coerce(sense)
        )
        self._objective = Objective(expr, direction)
        self._invalidate()

    @property
    def objective(self) -> Objective:
        return self._objective

    @property
    def sense(self) -> ObjectiveSense:
        return self._objective.sense

    # -- compilation ----------------------------------------------------------

    def _check_ownership(self, expr: LinExpr) -> None:
        for var in expr.terms:
            if var._model_id != self._id:
                raise ModelError(
                    f"variable {var.name!r} belongs to a different model"
                )

    def compile(self) -> StandardForm:
        """Compile the model into matrix standard form for the backends.

        The result is cached: repeated calls return the same
        :class:`StandardForm` until the model structure changes.  Bound and
        RHS mutations through :meth:`set_var_bounds` / :meth:`set_constr_rhs`
        patch the cached arrays in place, so sweeping solvers (the Pareto
        walk, branch and bound) never rebuild the matrices.
        """
        if self._compiled is not None:
            return self._compiled
        variables = self._variables
        index = {var: i for i, var in enumerate(variables)}
        n = len(variables)

        maximize = self._objective.sense is ObjectiveSense.MAXIMIZE
        c = np.zeros(n)
        for var, coeff in self._objective.expr.terms.items():
            c[index[var]] = coeff
        c0 = self._objective.expr.constant
        if maximize:
            c = -c
            c0 = -c0

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        self._row_of = {}
        for constraint in self._constraints:
            row = np.zeros(n)
            for var, coeff in constraint.expr.terms.items():
                row[index[var]] = coeff
            rhs = -constraint.expr.constant
            if constraint.sense is ConstraintSense.LE:
                self._row_of[constraint.name] = ("ub", len(ub_rows), 1.0)
                ub_rows.append(row)
                ub_rhs.append(rhs)
            elif constraint.sense is ConstraintSense.GE:
                self._row_of[constraint.name] = ("ub", len(ub_rows), -1.0)
                ub_rows.append(-row)
                ub_rhs.append(-rhs)
            else:
                self._row_of[constraint.name] = ("eq", len(eq_rows), 1.0)
                eq_rows.append(row)
                eq_rhs.append(rhs)

        a_ub = np.array(ub_rows) if ub_rows else np.zeros((0, n))
        b_ub = np.array(ub_rhs) if ub_rhs else np.zeros(0)
        a_eq = np.array(eq_rows) if eq_rows else np.zeros((0, n))
        b_eq = np.array(eq_rhs) if eq_rhs else np.zeros(0)

        lower = np.array([var.lb for var in variables]) if n else np.zeros(0)
        upper = np.array([var.ub for var in variables]) if n else np.zeros(0)
        integer_mask = (
            np.array([var.is_integer for var in variables], dtype=bool)
            if n
            else np.zeros(0, dtype=bool)
        )

        self._compiled = StandardForm(
            variables=variables,
            c=c,
            c0=c0,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=lower,
            upper=upper,
            integer_mask=integer_mask,
            maximize=maximize,
        )
        return self._compiled

    # -- incremental mutation ----------------------------------------------

    def set_var_bounds(
        self,
        var: Variable,
        lb: Optional[float],
        ub: Optional[float],
    ) -> None:
        """Change a variable's bounds without rebuilding the model.

        ``None`` means unbounded on that side, matching :meth:`add_var`.  The
        cached standard form (when present) is patched in place, so the next
        solve sees the new bounds at zero rebuild cost — this is what the
        MIN_EFF_CYC Pareto walk mutates between consecutive MILPs.
        """
        if var._model_id != self._id:
            raise ModelError(f"variable {var.name!r} belongs to a different model")
        new_lb = -math.inf if lb is None else float(lb)
        new_ub = math.inf if ub is None else float(ub)
        if new_lb > new_ub:
            raise ModelError(
                f"variable {var.name!r} would get empty domain [{new_lb}, {new_ub}]"
            )
        var.lb = new_lb
        var.ub = new_ub
        if self._compiled is not None:
            self._compiled.lower[var.index] = new_lb
            self._compiled.upper[var.index] = new_ub

    def set_constr_rhs(self, name: str, rhs: float) -> None:
        """Change the right-hand side of a named constraint in place.

        The constraint keeps its sense and coefficients; only the constant
        moves.  The cached standard form is patched without recompiling.
        """
        for i, constraint in enumerate(self._constraints):
            if constraint.name == name:
                updated = Constraint(
                    LinExpr(constraint.expr.terms, -float(rhs)),
                    constraint.sense,
                    constraint.name,
                )
                self._constraints[i] = updated
                if self._compiled is not None:
                    kind, row, sign = self._row_of[name]
                    target = (
                        self._compiled.b_ub if kind == "ub" else self._compiled.b_eq
                    )
                    target[row] = sign * float(rhs)
                return
        raise ModelError(f"no constraint named {name!r}")

    # -- solving ----------------------------------------------------------------

    def solve(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        warm_start: Optional[object] = None,
    ) -> Solution:
        """Solve the model and return a :class:`Solution`.

        Args:
            backend: "auto" (scipy if available, otherwise pure Python),
                "scipy", or "pure".
            time_limit: Optional wall-clock limit in seconds, passed to the
                backend when it supports one.
            warm_start: A previous :class:`Solution` (or its ``basis``) of a
                structurally identical model; the pure backend re-solves from
                that basis with the dual simplex when only bounds/RHS changed.
                Other backends ignore it.
        """
        form = self.compile()
        chosen = backend.lower()
        if chosen == "auto":
            chosen = "scipy" if _scipy_available() else "pure"
        if chosen == "scipy":
            from repro.lp.scipy_backend import ScipyBackend

            solver = ScipyBackend(time_limit=time_limit)
        elif chosen == "pure":
            from repro.lp.pure_backend import PureBackend

            solver = PureBackend(time_limit=time_limit)
        else:
            raise SolverError(f"unknown backend {backend!r}")
        if form.num_variables == 0:
            return _constant_model_solution(form, solver.name)
        if chosen == "scipy":
            return solver.solve(form)
        return solver.solve(form, warm_basis=getattr(warm_start, "basis", warm_start))

    # -- diagnostics ------------------------------------------------------------

    def check_solution(self, solution: Solution, tolerance: float = 1e-5) -> bool:
        """Verify that ``solution`` satisfies all constraints and bounds."""
        if not solution.has_point:
            return False
        values = solution.values
        for var in self._variables:
            value = values.get(var)
            if value is None:
                return False
            if value < var.lb - tolerance or value > var.ub + tolerance:
                return False
            if var.is_integer and abs(value - round(value)) > tolerance:
                return False
        return all(c.is_satisfied(values, tolerance) for c in self._constraints)

    def summary(self) -> str:
        """One-line description of the model size."""
        integers = sum(1 for v in self._variables if v.is_integer)
        return (
            f"Model {self.name!r}: {len(self._variables)} vars "
            f"({integers} integer), {len(self._constraints)} constraints, "
            f"{self._objective.sense.value}"
        )

    def __repr__(self) -> str:
        return f"<{self.summary()}>"


def _constant_model_solution(form: StandardForm, backend: str) -> Solution:
    """Solve a model without variables, the same way for every backend.

    It is feasible iff its constant rows hold (``add_constr`` already dropped
    the ones that do); its objective is the constant term.
    """
    infeasible = bool(np.any(form.b_ub < -1e-12)) or bool(
        np.any(np.abs(form.b_eq) > 1e-12)
    )
    if infeasible:
        return Solution(SolveStatus.INFEASIBLE, backend=backend)
    objective = -form.c0 if form.maximize else form.c0
    return Solution(SolveStatus.OPTIMAL, objective=objective, values={}, backend=backend)


def _scipy_available() -> bool:
    try:
        from scipy.optimize import linprog, milp  # noqa: F401
    except Exception:  # pragma: no cover - scipy is installed in this repo
        return False
    return True
