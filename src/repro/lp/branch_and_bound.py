"""Branch and bound on top of the revised simplex solver.

Used by :class:`repro.lp.pure_backend.PureBackend` to solve the MILPs of the
retiming-and-recycling formulations when scipy/HiGHS is not available, and by
the test-suite to cross-check the scipy backend on small instances.

The constraint matrix is prepared once (:class:`repro.lp.revised_simplex.
PreparedLP`) and every node re-solves the relaxation under its own bound
vectors.  Child nodes warm-start from the parent's optimal basis: tightening
one integer bound keeps the basis dual feasible, so the dual simplex usually
restores optimality in a handful of pivots instead of a full cold solve.

Search order is *plunging* best-first: after branching, the child whose bound
is better is processed immediately (a depth-first dive that reaches integer
feasibility — and therefore a pruning incumbent — quickly), while the other
child goes on the best-first heap.  A fix-and-solve rounding heuristic at the
root fixes every integer variable to its rounded relaxation value and
re-solves the continuous rest, which on the retiming models often produces a
strong incumbent for the price of one warm-started LP.

Branching uses *strong branching*: both children of the most promising
fractional candidates are actually solved (cheap, since each is a
warm-started dual-simplex re-solve of the parent) and the variable whose
worst child bound is largest wins; its two child solves are then reused as
the real children.  On the weak LP relaxations of the MAX_THR models this
shrinks the tree by an order of magnitude, which is worth far more than the
extra relaxations per node.

A candidate stops being scored as soon as it cannot win (Achterberg, Koch &
Martin, "Branching rules revisited", Oper. Res. Letters 33, 2005): when its
down child's bound is already <= the best score so far, the up child is not
solved.  Its score, the minimum of the two bounds, cannot pass the strict
``score > best_score`` test, and since ``best_score < cutoff()`` always holds
(a scored candidate has a child below the cutoff) its down child survives the
cutoff, so it cannot be the candidate that fathoms the node either.  The
chosen variable, the children, the heap and the incumbent are therefore the
same as with both children solved; only the relaxation count falls.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.lp.revised_simplex import (
    BasisState,
    PreparedLP,
    RevisedSimplexSolver,
    SimplexResult,
)
from repro.lp.solution import SolveStatus

_INTEGRALITY_TOL = 1e-6
#: Node budget, counted in solved relaxations, strong-branching children
#: included; a skipped child is not solved, so a node spends less of it.  A
#: solve that reaches it reports its incumbent as FEASIBLE.
_MAX_NODES = 100000
#: Relative gap below which a node is fathomed.
_MIP_GAP = 1e-6
#: Fractional candidates whose children are solved before branching.
_STRONG_BRANCHING = 4


@dataclass
class _Node:
    """A branch-and-bound node: the LP relaxation with tightened bounds."""

    lower: np.ndarray
    upper: np.ndarray
    depth: int
    basis: Optional[BasisState] = None


@dataclass
class MilpResult:
    """Outcome of a branch-and-bound solve.

    Attributes:
        status: OPTIMAL, FEASIBLE (a node or time limit stopped the search
            with an incumbent), INFEASIBLE, UNBOUNDED or ERROR.
        x: Incumbent point (``None`` unless OPTIMAL or FEASIBLE).
        objective: Incumbent objective value.
        nodes_explored: Number of LP relaxations solved.
        lp_iterations: Total simplex iterations summed over every node, the
            number that warm starts are meant to shrink.
        basis: Optimal basis of the *root* relaxation, reusable to warm-start
            the next MILP of the same shape (e.g. the Pareto walk).
    """

    status: SolveStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    nodes_explored: int = 0
    lp_iterations: int = 0
    basis: Optional[BasisState] = None


class BranchAndBoundSolver:
    """Minimise ``c @ x`` subject to linear constraints with integer variables.

    The search is plunging best-first on the relaxation bound, every node
    warm-started from its parent's basis.  Branching is strong branching over
    the most fractional candidates (see the module docstring); relaxations
    use a :class:`RevisedSimplexSolver` with Devex pricing, which lands on
    markedly better-branching vertices than Dantzig on the retiming models.

    Args:
        time_limit: Optional wall-clock limit in seconds.  A search stopped
            by it (or by the node budget) reports its incumbent as FEASIBLE.
    """

    def __init__(self, time_limit: Optional[float] = None) -> None:
        self.time_limit = time_limit
        self.simplex = RevisedSimplexSolver(pricing="devex")

    def solve(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        integer_mask: np.ndarray,
        basis: Optional[BasisState] = None,
        prep: Optional[PreparedLP] = None,
    ) -> MilpResult:
        """Solve the MILP; arguments match :class:`StandardForm` fields.

        ``basis`` optionally warm-starts the root relaxation (useful when a
        structurally identical MILP was just solved with different bounds);
        ``prep`` optionally reuses an already-assembled constraint matrix.
        """
        c = np.asarray(c, dtype=float)
        integer_mask = np.asarray(integer_mask, dtype=bool)
        start = time.monotonic()
        if prep is None:
            prep = PreparedLP(c, a_ub, b_ub, a_eq, b_eq)
        lp_iterations = 0

        def relax(node: _Node) -> SimplexResult:
            return self.simplex.solve_prepared(
                prep, node.lower, node.upper, basis=node.basis
            )

        root = _Node(
            np.array(lower, dtype=float), np.array(upper, dtype=float), 0, basis
        )
        root_result = relax(root)
        lp_iterations += root_result.iterations
        if root_result.status is SolveStatus.INFEASIBLE:
            return MilpResult(SolveStatus.INFEASIBLE, None, None, 1, lp_iterations)
        if root_result.status is SolveStatus.UNBOUNDED:
            return MilpResult(SolveStatus.UNBOUNDED, None, None, 1, lp_iterations)
        if root_result.status is not SolveStatus.OPTIMAL:
            return MilpResult(SolveStatus.ERROR, None, None, 1, lp_iterations)
        root_basis = root_result.basis

        counter = itertools.count()
        heap: list = []
        best_x: Optional[np.ndarray] = None
        best_objective = math.inf
        nodes = 1
        stopped = False

        # Fix-and-solve rounding heuristic: fix the integers to their rounded
        # root values, re-solve the continuous remainder from the root basis.
        rounded, extra_iters = self._fix_and_solve(
            prep, root, root_result, integer_mask
        )
        lp_iterations += extra_iters
        if rounded is not None:
            nodes += 1
            best_objective, best_x = rounded

        def cutoff() -> float:
            if not math.isfinite(best_objective):
                return math.inf
            return best_objective - _MIP_GAP * max(1.0, abs(best_objective))

        current: Optional[tuple] = (root_result.objective, root, root_result)
        while True:
            if current is None:
                while heap:
                    bound, _, node, result = heapq.heappop(heap)
                    if bound < cutoff():
                        current = (bound, node, result)
                        break
                if current is None:
                    break
            bound, node, result = current
            current = None
            if bound >= cutoff():
                continue
            if nodes >= _MAX_NODES or (
                self.time_limit is not None
                and time.monotonic() - start > self.time_limit
            ):
                stopped = True
                break

            x = result.x
            candidates = self._fractional_candidates(x, integer_mask)
            if not candidates:
                # Integer feasible point.
                if result.objective < best_objective - 1e-12:
                    best_objective = result.objective
                    best_x = self._rounded(x, integer_mask)
                continue

            # Strong branching: solve both children of the leading candidates
            # and commit to the variable whose *worst* child bound is largest
            # (most pruning power).  The winning children are reused below.
            best_children = None
            best_score = -math.inf
            fathomed = False
            for index, value in candidates[:_STRONG_BRANCHING]:
                floor_value = math.floor(value)
                children = []
                child_bounds = []
                for branch in ("down", "up"):
                    if branch == "up" and child_bounds[0] <= best_score:
                        # The score min(child_bounds) is already at most
                        # best_score: this candidate cannot win (see the
                        # module docstring), so its up child is not solved.
                        child_bounds.append(math.inf)
                        break
                    child_lower = node.lower.copy()
                    child_upper = node.upper.copy()
                    if branch == "down":
                        child_upper[index] = min(child_upper[index], floor_value)
                    else:
                        child_lower[index] = max(child_lower[index], floor_value + 1)
                    if child_lower[index] > child_upper[index] + 1e-12:
                        child_bounds.append(math.inf)
                        continue
                    child = _Node(
                        child_lower, child_upper, node.depth + 1, result.basis
                    )
                    child_result = relax(child)
                    nodes += 1
                    lp_iterations += child_result.iterations
                    if child_result.status is not SolveStatus.OPTIMAL:
                        child_bounds.append(math.inf)
                        continue
                    child_bounds.append(child_result.objective)
                    if child_result.objective < cutoff():
                        children.append(
                            (child_result.objective, child, child_result)
                        )
                if not children:
                    # Both children pruned or infeasible: this dichotomy
                    # proves no improving solution exists in the node.
                    fathomed = True
                    break
                score = min(child_bounds)
                if score > best_score:
                    best_score = score
                    best_children = children
                if nodes >= _MAX_NODES:
                    break

            if fathomed or best_children is None:
                continue
            # Plunge into the more promising child; park the other.
            best_children.sort(key=lambda entry: entry[0])
            current = best_children[0]
            for entry in best_children[1:]:
                heapq.heappush(heap, (entry[0], next(counter), entry[1], entry[2]))

        if best_x is None:
            # No integer point: an exhausted tree proves integer
            # infeasibility, a stopped one proves nothing.
            status = SolveStatus.ERROR if stopped else SolveStatus.INFEASIBLE
            return MilpResult(status, None, None, nodes, lp_iterations, root_basis)
        return MilpResult(
            SolveStatus.FEASIBLE if stopped else SolveStatus.OPTIMAL,
            best_x,
            best_objective,
            nodes,
            lp_iterations,
            root_basis,
        )

    def _fix_and_solve(
        self,
        prep: PreparedLP,
        root: _Node,
        root_result: SimplexResult,
        integer_mask: np.ndarray,
    ):
        """Try rounding the root relaxation into an incumbent.

        Fixes every integer variable to its rounded root value and re-solves
        the continuous remainder (warm-started from the root basis).  Returns
        ``((objective, x), iterations)`` on success, ``(None, iterations)``
        otherwise.
        """
        if not integer_mask.any():
            return None, 0
        fixed = np.round(root_result.x[integer_mask])
        lower = root.lower.copy()
        upper = root.upper.copy()
        lo_int = lower[integer_mask]
        hi_int = upper[integer_mask]
        fixed = np.clip(fixed, lo_int, hi_int)
        lower[integer_mask] = fixed
        upper[integer_mask] = fixed
        result = self.simplex.solve_prepared(
            prep, lower, upper, basis=root_result.basis
        )
        if result.status is not SolveStatus.OPTIMAL:
            return None, result.iterations
        return (result.objective, self._rounded(result.x, integer_mask)), result.iterations

    @staticmethod
    def _fractional_candidates(x: np.ndarray, integer_mask: np.ndarray):
        """Fractional integer variables, most fractional (closest to .5) first."""
        scored = []
        for i in np.nonzero(integer_mask)[0]:
            value = float(x[i])
            frac = abs(value - round(value))
            if frac <= _INTEGRALITY_TOL:
                continue
            score = min(value - math.floor(value), math.ceil(value) - value)
            scored.append((score, int(i), value))
        scored.sort(reverse=True)
        return [(index, value) for _, index, value in scored]

    @staticmethod
    def _rounded(x: np.ndarray, integer_mask: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=float)
        out[integer_mask] = np.round(out[integer_mask])
        return out
