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

Branching uses *strong branching*: the children of the most promising
fractional candidates are solved (cheap, since each is a warm-started
dual-simplex re-solve of the parent) and the variable whose worst child
bound is largest wins; its child solves are then reused as the real
children.  On the weak LP relaxations of the MAX_THR models this shrinks the
tree by an order of magnitude, which is worth far more than the extra
relaxations per node.

The decision is a function of the child values alone.  With ``d_i`` and
``u_i`` the optima of candidate ``i``'s down and up children (``inf`` when
infeasible), ``s_i = min(d_i, u_i)`` and ``C`` the cutoff:

* the node is fathomed if some candidate has ``s_i >= C``;
* otherwise the winner is the first candidate with the largest ``s_i``
  (a later one replaces it only when strictly larger), and its children
  below ``C`` become the node's children, down child first.

A child's exact value matters only where it decides one of these
comparisons (Achterberg, Koch & Martin, "Branching rules revisited", Oper.
Res. Letters 33, 2005), and a warm dual-simplex child has a lower bound, its
dual objective, at every dual feasible basis it passes.  So each child runs
only until it finishes or such a bound proves it above the value it is
compared with (a paused solve, :class:`repro.lp.revised_simplex.PausedSolve`,
resumable later):

* the child nearer the candidate's value goes first (the up child on a
  tie): its bound moves less, so it is the likelier to be the lower one;
* against the best score so far (the cutoff before there is one): a
  candidate with a finished child at or below it cannot win, and, since
  the best score is below the cutoff, cannot fathom either; above a
  finished first child the second one matters only up to that value;
* of two children both above the best score, the lower one is finished
  first, and the other only until it is proven above that value;
* only the winner's children below the cutoff are solved to the end.

Every comparison of a bound with a value goes through
:func:`repro.lp.revised_simplex.exceeds`, which asks for a margin of 1e-9
relative: a bound may overshoot its finished value by round-off (up to
4e-16 relative on the Table 2 sweep), and without the margin a paused child
can be ordered against a finished one the wrong way round.  Neither the
order nor the laziness changes the decision: every ``s_i`` that is
compared is a finished value, every child that is kept is finished, and
resuming a paused solve continues the very same pivots, so a finished child
is bit-identical to its one-shot solve.  The margin and the order are fixed
rules of this module, not settings.
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
    PausedSolve,
    PreparedLP,
    RevisedSimplexSolver,
    SimplexResult,
    exceeds,
)
from repro.lp.solution import SolveStatus

_INTEGRALITY_TOL = 1e-6
#: Node budget, counted in started relaxations, strong-branching children
#: included; a child that is never started does not spend it.  A solve that
#: reaches it reports its incumbent as FEASIBLE.
_MAX_NODES = 100000
#: Relative gap below which a node is fathomed, capped at the tie scale
#: (see :func:`_tie_scale`).
_MIP_GAP = 1e-6
#: Fractional candidates whose children are solved before branching.
_STRONG_BRANCHING = 4


def _tie_scale(c: np.ndarray, integer_mask: np.ndarray) -> float:
    """Half the smallest nonzero ``|c_j|`` over the integer columns, ``inf``
    when there is none.

    A node is fathomed only when its bound is within ``min(gap, tie)`` of
    the incumbent.  A relative gap alone can exceed one unit of a small
    integer cost, such as the per-buffer tie-break penalty of the retiming
    models (1e-6, against a gap of ~3e-5 at a cycle time of 30): then an
    incumbent that is worse by one unit is kept or not depending on the
    search path.  Capping the gap at half a unit always improves it.
    """
    costs = np.abs(c[integer_mask])
    costs = costs[costs > 0.0]
    return 0.5 * float(costs.min()) if costs.size else math.inf


@dataclass
class _Node:
    """A branch-and-bound node: the LP relaxation with tightened bounds."""

    lower: np.ndarray
    upper: np.ndarray
    depth: int
    basis: Optional[BasisState] = None


class _Child:
    """A strong-branching child and how far its relaxation has got.

    ``value`` is None until the LP finishes, then its objective (``inf``
    when it is infeasible or not solved to optimality; also for a child
    whose bounds cross, which is never solved), and ``result`` the finished
    solve.  While the LP is paused, ``paused`` holds the resumable solve.
    """

    __slots__ = ("node", "value", "result", "paused")

    def __init__(self, node: _Node) -> None:
        self.node = node
        self.value: Optional[float] = None
        self.result: Optional[SimplexResult] = None
        self.paused: Optional[PausedSolve] = None

    def level(self) -> float:
        """The finished value, or the bound of a paused solve."""
        return self.value if self.value is not None else self.paused.bound

    def below(self, threshold: float) -> bool:
        """Finished with a value below ``threshold``."""
        return self.value is not None and self.value < threshold


class _Tally:
    """Relaxations started and simplex iterations spent by one solve."""

    __slots__ = ("nodes", "iterations")

    def __init__(self) -> None:
        self.nodes = 0
        self.iterations = 0


#: Returned by :meth:`BranchAndBoundSolver._score` for a candidate whose two
#: children are both at or above the cutoff.
_FATHOM = object()


@dataclass
class MilpResult:
    """Outcome of a branch-and-bound solve.

    Attributes:
        status: OPTIMAL, FEASIBLE (a node or time limit stopped the search
            with an incumbent), INFEASIBLE, UNBOUNDED or ERROR.
        x: Incumbent point (``None`` unless OPTIMAL or FEASIBLE).
        objective: Incumbent objective value.
        nodes_explored: Number of LP relaxations started.
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
        tally = _Tally()

        root = _Node(
            np.array(lower, dtype=float), np.array(upper, dtype=float), 0, basis
        )
        root_result = self.simplex.solve_prepared(
            prep, root.lower, root.upper, basis=root.basis
        )
        tally.iterations += root_result.iterations
        if root_result.status is SolveStatus.INFEASIBLE:
            return MilpResult(SolveStatus.INFEASIBLE, None, None, 1, tally.iterations)
        if root_result.status is SolveStatus.UNBOUNDED:
            return MilpResult(SolveStatus.UNBOUNDED, None, None, 1, tally.iterations)
        if root_result.status is not SolveStatus.OPTIMAL:
            return MilpResult(SolveStatus.ERROR, None, None, 1, tally.iterations)
        root_basis = root_result.basis

        counter = itertools.count()
        heap: list = []
        best_x: Optional[np.ndarray] = None
        best_objective = math.inf
        tally.nodes = 1
        stopped = False

        # Fix-and-solve rounding heuristic: fix the integers to their rounded
        # root values, re-solve the continuous remainder from the root basis.
        rounded, extra_iters = self._fix_and_solve(
            prep, root, root_result, integer_mask
        )
        tally.iterations += extra_iters
        if rounded is not None:
            tally.nodes += 1
            best_objective, best_x = rounded

        tie = _tie_scale(c, integer_mask)

        def cutoff() -> float:
            if not math.isfinite(best_objective):
                return math.inf
            gap = _MIP_GAP * max(1.0, abs(best_objective))
            return best_objective - min(gap, tie)

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
            if tally.nodes >= _MAX_NODES or (
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

            _, children = self._strong_branch(
                prep, node, result, candidates, cutoff(), tally
            )
            if children is None:
                continue
            # Plunge into the more promising child; park the other.
            children.sort(key=lambda entry: entry[0])
            current = children[0]
            for entry in children[1:]:
                heapq.heappush(heap, (entry[0], next(counter), entry[1], entry[2]))

        if best_x is None:
            # No integer point: an exhausted tree proves integer
            # infeasibility, a stopped one proves nothing.
            status = SolveStatus.ERROR if stopped else SolveStatus.INFEASIBLE
            return MilpResult(
                status, None, None, tally.nodes, tally.iterations, root_basis
            )
        return MilpResult(
            SolveStatus.FEASIBLE if stopped else SolveStatus.OPTIMAL,
            best_x,
            best_objective,
            tally.nodes,
            tally.iterations,
            root_basis,
        )

    def _strong_branch(
        self,
        prep: PreparedLP,
        node: _Node,
        result: SimplexResult,
        candidates: list,
        cutoff: float,
        tally: _Tally,
    ):
        """Strong branching at ``node`` (see the module docstring).

        Returns ``(winner, children)``: the winner's position in
        ``candidates`` and its children below ``cutoff`` as ``(objective,
        node, result)`` entries, down child first; ``(-1, None)`` when the
        node is fathomed.
        """
        best_score = -math.inf
        winner = -1
        pair = None
        for at, (index, value) in enumerate(candidates[:_STRONG_BRANCHING]):
            floor_value = math.floor(value)
            down = self._child(node, result, index, upper=floor_value)
            up = self._child(node, result, index, lower=floor_value + 1)
            # The child nearer the value first (up on a tie): its bound
            # moves less, so it is the likelier to be the lower one.
            near, far = (up, down) if value - floor_value >= 0.5 else (down, up)
            score = self._score(prep, near, far, best_score, cutoff, tally)
            if score is _FATHOM:
                # Both children pruned or infeasible: this dichotomy proves
                # no improving solution exists in the node.
                return -1, None
            if score is not None and score > best_score:
                best_score, winner, pair = score, at, (down, up)
            if tally.nodes >= _MAX_NODES:
                break
        if pair is None:
            return -1, None
        children = []
        for child in pair:
            self._advance(prep, child, cutoff, tally)
            if child.below(cutoff):
                children.append((child.value, child.node, child.result))
        return winner, children

    def _score(
        self,
        prep: PreparedLP,
        near: _Child,
        far: _Child,
        best_score: float,
        cutoff: float,
        tally: _Tally,
    ):
        """A candidate's score, the smaller value of its two children,
        solving only what it needs; ``near`` is solved first.

        Returns None when the score is at most ``best_score`` (the candidate
        cannot win), :data:`_FATHOM` when both children are at or above
        ``cutoff``, and the score, a finished child value, otherwise.
        """
        first = best_score if best_score > -math.inf else cutoff
        for child in (near, far):
            self._advance(prep, child, first, tally)
            if child.value is not None and child.value <= best_score:
                return None
            if near.value is not None:
                # The near child finished above best_score: the far child
                # matters only up to its value, or up to the cutoff.
                first = min(near.value, cutoff)
        # Both children are above best_score: finish the lower one.
        low, high = (near, far) if near.level() <= far.level() else (far, near)
        self._advance(prep, low, cutoff, tally)
        if not low.below(cutoff):
            self._advance(prep, high, cutoff, tally)
            return high.value if high.below(cutoff) else _FATHOM
        self._advance(prep, high, low.value, tally)
        if high.value is None:
            return low.value
        return min(low.value, high.value)

    def _advance(
        self, prep: PreparedLP, child: _Child, threshold: float, tally: _Tally
    ) -> None:
        """Run ``child``'s LP until it finishes or its bound exceeds
        ``threshold``; nothing to do when either already holds."""
        if child.value is not None:
            return
        if child.paused is None:
            tally.nodes += 1
            basis = child.node.basis
        elif exceeds(child.paused.bound, threshold):
            return
        else:
            basis = child.paused
        # No bound exceeds an infinite threshold: solve without checking.
        outcome = self.simplex.solve_prepared(
            prep, child.node.lower, child.node.upper, basis=basis,
            stop_above=threshold if math.isfinite(threshold) else None,
        )
        tally.iterations += outcome.iterations
        if isinstance(outcome, PausedSolve):
            child.paused = outcome
            return
        child.paused = None
        child.result = outcome
        child.value = (
            outcome.objective if outcome.status is SolveStatus.OPTIMAL else math.inf
        )

    @staticmethod
    def _child(
        node: _Node,
        result: SimplexResult,
        index: int,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> _Child:
        """The child of ``node`` with one bound of variable ``index``
        tightened, warm-started from the parent's basis."""
        child_lower = node.lower.copy()
        child_upper = node.upper.copy()
        if upper is not None:
            child_upper[index] = min(child_upper[index], upper)
        else:
            child_lower[index] = max(child_lower[index], lower)
        child = _Child(_Node(child_lower, child_upper, node.depth + 1, result.basis))
        if child_lower[index] > child_upper[index] + 1e-12:
            child.value = math.inf
        return child

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
