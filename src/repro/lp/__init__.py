"""Linear and mixed-integer linear programming substrate.

The paper solves its retiming-and-recycling formulations with CPLEX.  This
package provides the equivalent substrate built from scratch:

* an algebraic modelling layer (:class:`Model`, :class:`Variable`,
  :class:`LinExpr`, :class:`Constraint`) in the spirit of PuLP / python-mip,
* a backend that compiles models to :func:`scipy.optimize.linprog` and
  :func:`scipy.optimize.milp` (HiGHS),
* a pure-Python fallback solver used when scipy is unavailable or for
  cross-checking: one bounded-variable revised simplex with warm starts
  (:class:`RevisedSimplexSolver`), which solves plain LPs directly and, under
  a best-first branch and bound (:class:`BranchAndBoundSolver`), re-solves
  every node dual-simplex from the parent basis.

Typical usage::

    from repro.lp import Model

    model = Model("example", sense="min")
    x = model.add_var("x", lb=0.0)
    y = model.add_var("y", lb=0.0, vtype="integer")
    model.add_constr(x + 2 * y >= 3, name="cover")
    model.set_objective(x + y)
    solution = model.solve()
    assert solution.is_optimal
    print(solution[x], solution[y], solution.objective)
"""

from repro.lp.expression import LinExpr, Variable, VarType
from repro.lp.constraint import Constraint, ConstraintSense
from repro.lp.model import Model, Objective, ObjectiveSense
from repro.lp.solution import Solution, SolveStatus
from repro.lp.errors import (
    LPError,
    ModelError,
    SolverError,
    InfeasibleError,
    UnboundedError,
)
from repro.lp.scipy_backend import ScipyBackend
from repro.lp.revised_simplex import (
    BasisState,
    PreparedLP,
    RevisedSimplexSolver,
    SimplexResult,
)
from repro.lp.branch_and_bound import BranchAndBoundSolver, MilpResult
from repro.lp.pure_backend import PureBackend

__all__ = [
    "BasisState",
    "PreparedLP",
    "RevisedSimplexSolver",
    "MilpResult",
    "LinExpr",
    "Variable",
    "VarType",
    "Constraint",
    "ConstraintSense",
    "Model",
    "Objective",
    "ObjectiveSense",
    "Solution",
    "SolveStatus",
    "LPError",
    "ModelError",
    "SolverError",
    "InfeasibleError",
    "UnboundedError",
    "ScipyBackend",
    "SimplexResult",
    "BranchAndBoundSolver",
    "PureBackend",
]
