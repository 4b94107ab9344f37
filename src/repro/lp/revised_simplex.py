"""Bounded-variable revised simplex with primal/dual warm starts.

This is the LP engine of the pure backend, for plain LPs and for every
branch-and-bound node.  It

* handles finite variable bounds natively in the ratio test — no split free
  variables and no extra ``<=`` rows for upper bounds,
* keeps an explicit basis inverse, updated by rank-1 (eta) pivots and
  refactorised periodically to bound numerical drift,
* prices entering variables with Dantzig or Devex rules and falls back to
  Bland's rule automatically when a degeneracy stall is detected,
* supports warm starts: the :class:`BasisState` returned by one solve can
  seed the next solve of a structurally identical LP.  When only bounds
  changed (branch-and-bound children, the ``tau``/``Theta`` sweeps of the
  Pareto walk) the previous optimal basis stays *dual* feasible and the dual
  simplex restores primal feasibility in a handful of pivots instead of
  re-solving from scratch.

The internal computational form appends one slack column per row::

    minimize    c_ext @ z       z = (x, s)
    subject to  [A | I] @ z = b
                lb <= z <= ub

Inequality slacks get bounds ``[0, inf)``; equality slacks are fixed at
``[0, 0]``.  Every variable is nonbasic at one of its finite bounds (or at
zero when free) or basic; the ratio test lets a nonbasic variable jump to its
opposite bound without a basis change (a "bound flip").

The loops keep their bookkeeping up to date instead of re-deriving it from
the status vector at every pivot.  A solve builds these vectors once, when
its start basis is installed, and each status change (bound flip, the
leaving and the entering column of a pivot) sets its own entries:

* ``nb``, every column's nonbasic value (``lo``, ``hi`` or 0.0), so the
  basic values are ``B^-1 (b - A nb)`` with no per-pivot rebuild;
* a sign vector, +1 at a lower bound, -1 at an upper bound and 0 for basic
  and fixed columns.  Multiplying by +-1 is exact, so ``sign * r < -tol`` is
  the pricing test for both bound sides in one comparison, and ``sign *
  arow`` does the same in the dual ratio test; FREE columns get their own
  ``|value| > tol`` test, made only when a FREE column exists;
* the bounds of each row's basic column, for the ratio tests.

The eta update of the inverse touches only the rows whose pivot-column
entry is nonzero.  All of these do the same floating-point operations on
the same operands as the direct formulas, so pivots, iteration counts and
results do not change.

Two features serve strong branching, whose children all start from one
parent basis and mostly need only a bound on their optimum:

* **Shared start.**  The :class:`BasisState` of a finished solve carries that
  solve's final reduced costs and derived vectors.  A warm start from it
  whose changed bounds all belong to basic columns (a branching child's)
  copies them instead of re-deriving everything, and, under the same
  right-hand side, its fresh basic values and dual-feasibility verdict are
  computed once per token.  Reduced costs depend only on the basis and its
  inverse, which the child inherits, so they are the same numbers a fresh
  computation gives.
* **Pause and resume.**  Given ``stop_above=t``, a warm dual-simplex solve
  stops as soon as the dual objective ``c @ z`` of its current basis exceeds
  ``t`` by ``1e-9 * max(1, |t|)`` (see :func:`exceeds`) at a basis whose
  reduced costs all have the right sign up to the pricing tolerance, and
  hands back a :class:`PausedSolve`.  At such a basis the dual objective is
  the Lagrangian bound ``y @ b + r @ nb`` of its duals, so it bounds the
  optimum from below; the margin absorbs its round-off.  Passing the token
  back as ``basis`` continues the very same pivots, so a solve split into
  pieces ends with the result of the one-shot solve, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.lp.solution import SolveStatus

# Nonbasic/basic status codes stored in BasisState.vstat.
BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
FREE = 3  # nonbasic free variable, held at zero

_PIVOT_TOL = 1e-9
_DEGENERATE_STEP = 1e-10
_BLAND_TRIGGER = 30
#: Pivot cap per solve, all phases combined.
_MAX_ITERATIONS = 50000
#: Reduced-cost (dual) and ratio-test tolerance.
_TOLERANCE = 1e-9
#: Primal bound-violation tolerance.
_FEASIBILITY_TOL = 1e-7
#: Eta updates between basis refactorisations, bounding numerical drift.
_REFACTOR_EVERY = 100
#: Relative margin by which a paused solve's bound must exceed a threshold
#: before it counts as above it.  The largest excess of a bound over its
#: finished objective seen on the Table 2 sweep is 3.6e-16 relative.
_PAUSE_MARGIN = 1e-9


def exceeds(bound: float, threshold: float) -> bool:
    """Whether a dual-objective ``bound`` proves the optimum above
    ``threshold``: it must exceed it by :data:`_PAUSE_MARGIN` relative.

    Every comparison of a paused solve's bound with a value goes through
    here; without the margin a bound that overshoots by round-off would
    order two children that a finished solve orders the other way.

    A solve reports a bound only at a basis with no reduced cost of the
    wrong sign beyond ``_TOLERANCE`` (1e-9), the pricing tolerance of the
    primal pass that polishes a finished dual solve.  The dual simplex
    itself starts from bases with wrong-signed reduced costs up to 1e-7
    (``_dual_feasible``), and a Bland pivot, which ignores the ratio test,
    can lose dual feasibility; at such a basis ``c @ z`` is no bound, and
    the polish could end below it.
    """
    return bound >= threshold + _PAUSE_MARGIN * max(1.0, abs(threshold))


@dataclass
class SimplexResult:
    """Outcome of a revised simplex solve.

    Attributes:
        status: OPTIMAL, INFEASIBLE, UNBOUNDED or ERROR.
        x: Primal point in the original (structural) variable space.
        objective: Objective value ``c @ x`` (``None`` unless optimal).
        iterations: Total pivot/bound-flip count over all phases.
        basis: Final basis, reusable as a warm start for the next solve of a
            structurally identical LP (``None`` when the solve failed).
    """

    status: SolveStatus
    x: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int = 0
    basis: Optional["BasisState"] = None


@dataclass
class BasisState:
    """Warm-start token: which columns are basic and where nonbasics sit.

    Attributes:
        basic: Basic column index per row, shape ``(m,)``.
        vstat: Per-column status (BASIC / AT_LOWER / AT_UPPER / FREE),
            shape ``(n + m,)`` covering structural and slack columns.
        binv: Optional cached inverse of the basis matrix, so a warm start
            can skip the O(m^3) refactorisation (the dominant cost of
            branch-and-bound nodes otherwise).  Only valid together with
            ``basic`` for the same constraint matrix.
        age: Rank-1 (eta) updates applied to ``binv`` since it was last
            factorised from scratch; warm starts refactorise when this
            reaches the refactorisation period.
        start: The finished solve's reduced costs and derived vectors, which
            warm starts from this token share (see the module docstring);
            ``None`` for a token built by hand.

    A token is read, never written, by the solves it warm-starts.  It caches
    its compatibility verdict, so a solve hands out ``basic`` and ``vstat``
    read-only; :meth:`copy` gives writable ones.
    """

    basic: np.ndarray
    vstat: np.ndarray
    binv: Optional[np.ndarray] = None
    age: int = 0
    start: Optional["_Start"] = field(default=None, repr=False, compare=False)
    _fits: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def copy(self) -> "BasisState":
        """An independent token of the same basis, without the shared start."""
        return BasisState(
            self.basic.copy(),
            self.vstat.copy(),
            None if self.binv is None else self.binv.copy(),
            self.age,
        )

    def compatible_with(self, m: int, total: int) -> bool:
        """Whether this basis fits an LP with ``m`` rows and ``total`` columns.

        Beyond the shapes, every status must be one of the four codes and
        the two views must agree: exactly the columns listed in ``basic`` are
        marked BASIC.  An inconsistent token would otherwise be installed and
        silently shift the nonbasic frame, producing a wrong "optimal" point.
        The verdict is computed once per token and shape.
        """
        if self._fits is None or self._fits[0] != (m, total):
            self._fits = ((m, total), self._check(m, total))
        return self._fits[1]

    def _check(self, m: int, total: int) -> bool:
        if self.basic.shape != (m,) or self.vstat.shape != (total,):
            return False
        if m and (self.basic.min() < 0 or self.basic.max() >= total):
            return False
        if total and (self.vstat.min() < BASIC or self.vstat.max() > FREE):
            return False
        if np.count_nonzero(self.vstat == BASIC) != m:
            return False
        return bool((self.vstat[self.basic] == BASIC).all())


class _Start:
    """What warm starts from one finished solve's basis have in common.

    The final bounds, derived vectors and reduced costs of that solve (its
    last arrays, shared: the solve is over and a warm start copies what it
    modifies), plus what the first warm start from it computes and the later
    ones reuse: the fresh basic values ``B^-1 (b - A nb)`` and the
    dual-feasibility verdict.
    """

    __slots__ = (
        "prep", "b", "lo", "hi", "nb", "sign", "free", "r", "xB", "dual_ok"
    )

    def __init__(self, state: "_State") -> None:
        self.prep = state.prep
        self.b = state.prep.b
        self.lo = state.lo
        self.hi = state.hi
        self.nb = state.nb
        self.sign = state.sign
        self.free = state.free if state.free is not None and state.free.any() else None
        self.r = state.r
        self.xB = None
        self.dual_ok = None


class PausedSolve:
    """A warm dual-simplex solve stopped by its ``stop_above`` threshold.

    Attributes:
        bound: Dual objective ``c @ z`` of the basis it stopped at, a lower
            bound on the optimum up to round-off (compare it through
            :func:`exceeds`).
        iterations: Pivots made by the call that returned this token.

    Pass it back as ``basis`` to :meth:`RevisedSimplexSolver.solve_prepared`
    to continue the same pivots; a token resumes once.
    """

    __slots__ = ("bound", "iterations", "_state")

    def __init__(self, state: "_State", bound: float, iterations: int) -> None:
        self.bound = bound
        self.iterations = iterations
        self._state = state

    def _take(self) -> "_State":
        state, self._state = self._state, None
        if state is None:
            raise ValueError("this paused solve was already resumed")
        return state


class PreparedLP:
    """Shared matrix build of an LP, reusable across bound-only re-solves.

    Branch-and-bound solves thousands of LPs that differ only in variable
    bounds; building ``[A | I]`` once and passing fresh bound vectors to
    :meth:`RevisedSimplexSolver.solve_prepared` avoids re-assembling (and
    re-transforming) the constraint matrix at every node.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
    ) -> None:
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        m_ub = a_ub.shape[0]
        m_eq = a_eq.shape[0]
        m = m_ub + m_eq

        self.n = n
        self.m = m
        self.total = n + m
        self.A = np.zeros((m, self.total))
        self.A[:m_ub, :n] = a_ub
        self.A[m_ub:, :n] = a_eq
        self.A[np.arange(m), n + np.arange(m)] = 1.0
        self.b = np.concatenate([b_ub, b_eq])
        self.c_ext = np.concatenate([c, np.zeros(m)])
        self.slack_lower = np.zeros(m)
        self.slack_upper = np.concatenate([np.full(m_ub, math.inf), np.zeros(m_eq)])

    def full_bounds(self, lower: np.ndarray, upper: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Structural + slack bound vectors for one solve."""
        lo = np.concatenate([np.asarray(lower, dtype=float), self.slack_lower])
        hi = np.concatenate([np.asarray(upper, dtype=float), self.slack_upper])
        return lo, hi

    def refresh_rhs(self, b_ub: np.ndarray, b_eq: np.ndarray) -> None:
        """Re-read the right-hand sides after an in-place model mutation.

        The matrix and costs of a cached PreparedLP stay valid across
        bound/RHS-only model edits; only ``b`` has to be refreshed.
        """
        self.b = np.concatenate(
            [np.asarray(b_ub, dtype=float).ravel(), np.asarray(b_eq, dtype=float).ravel()]
        )


class _State:
    """Mutable solve state: the basis, its inverse and the basic values.

    Beside ``basic`` and ``vstat`` it keeps vectors derived from them, built
    by :meth:`derive` when a whole basis is installed and kept in step by
    :meth:`move` and :meth:`pivot` as single columns change status:

    * ``nb``, every column's value while nonbasic: ``lo`` at AT_LOWER,
      ``hi`` at AT_UPPER, 0.0 for BASIC and FREE columns;
    * ``sign``, +1 at a lower bound, -1 at an upper bound, 0 for basic, FREE
      and fixed (``lo == hi``) columns;
    * ``free``, the nonfixed FREE columns, or None when there are none;
    * ``lb`` and ``ub``, the bounds of each row's basic column;
    * ``r``, the reduced costs of the current basis, or None until
      :meth:`reduced_costs` computes them; a basis change clears them;
    * ``shared``, the :class:`_Start` this start was installed from when it
      also shares that start's basic values, else None.

    The dual loop's anti-cycling counters and its iteration count live here
    too, so that a paused solve resumes them.
    """

    __slots__ = (
        "prep",
        "lo",
        "hi",
        "basic",
        "vstat",
        "nb",
        "sign",
        "free",
        "lb",
        "ub",
        "binv",
        "xB",
        "r",
        "shared",
        "age",
        "devex",
        "dual_iterations",
        "degenerate_run",
        "bland",
        "bound",
    )

    def __init__(self, prep: PreparedLP, lo: np.ndarray, hi: np.ndarray) -> None:
        self.prep = prep
        self.lo = lo
        self.hi = hi
        self.basic = np.empty(prep.m, dtype=np.int64)
        self.vstat = np.empty(prep.total, dtype=np.int8)
        self.nb = None
        self.sign = None
        self.free = None
        self.lb = None
        self.ub = None
        self.binv = None
        self.xB = None
        self.r = None
        self.shared = None
        self.age = 0
        self.devex = np.ones(prep.total)
        self.dual_iterations = 0
        self.degenerate_run = 0
        self.bland = False
        self.bound = None

    def derive(self) -> None:
        """Build the derived vectors from ``basic`` and ``vstat``."""
        at_lo = self.vstat == AT_LOWER
        at_hi = self.vstat == AT_UPPER
        self.nb = np.where(at_lo, self.lo, np.where(at_hi, self.hi, 0.0))
        sign = np.zeros(self.prep.total)
        sign[at_lo] = 1.0
        sign[at_hi] = -1.0
        fixed = self.lo == self.hi
        sign[fixed] = 0.0
        self.sign = sign
        free = (self.vstat == FREE) & ~fixed
        self.free = free if free.any() else None
        self.lb = self.lo[self.basic]
        self.ub = self.hi[self.basic]

    def move(self, j: int, status: int) -> None:
        """Give column ``j`` a new status: BASIC when it enters the basis,
        else the bound it rests at.  (Only entering takes a FREE column
        out of FREE.)"""
        self.vstat[j] = status
        if status == BASIC:
            self.nb[j] = 0.0
            self.sign[j] = 0.0
            if self.free is not None:
                self.free[j] = False
            return
        lo = self.lo[j]
        hi = self.hi[j]
        at_lower = status == AT_LOWER
        self.nb[j] = lo if at_lower else hi
        self.sign[j] = 0.0 if lo == hi else (1.0 if at_lower else -1.0)

    def pivot(
        self, row: int, col: int, leaving_status: int, alpha: np.ndarray
    ) -> bool:
        """Swap ``col`` into the basis at ``row``; the leaving column rests at
        ``leaving_status``.  ``alpha`` is ``B^-1 A[:, col]`` before the swap.

        Rank-1 (eta) update of the inverse, ``binv[i] -= alpha[i] * br``;
        returns False when the periodic refactorisation finds a singular
        basis.
        """
        self.move(int(self.basic[row]), leaving_status)
        self.basic[row] = col
        self.move(col, BASIC)
        self.lb[row] = self.lo[col]
        self.ub[row] = self.hi[col]
        self.r = None
        binv = self.binv
        br = binv[row] / alpha[row]
        # Only the rows with alpha[i] != 0 change (the others would differ
        # at most in the sign of a zero).
        rows = alpha.nonzero()[0]
        binv[rows] = binv.take(rows, axis=0) - alpha.take(rows)[:, None] * br
        binv[row] = br
        self.age += 1
        if self.age >= _REFACTOR_EVERY:
            return self.refactorize()
        return True

    def admissible(
        self, values: np.ndarray, tol: float, negated: bool = False
    ) -> np.ndarray:
        """Nonbasic columns that may enter, given per-column rates ``values``:
        at a lower bound with ``values < -tol``, at an upper bound with
        ``values > tol`` (together ``sign * values < -tol``), and FREE with
        ``|values| > tol``.  ``negated`` tests the rates ``-values`` without
        forming them: ``sign * values > tol``."""
        if negated:
            mask = self.sign * values > tol
        else:
            mask = self.sign * values < -tol
        if self.free is not None:
            mask |= self.free & (np.abs(values) > tol)
        return mask

    def reduced_costs(self) -> np.ndarray:
        """``c - (c_B B^-1) A`` for the current basis, computed once per basis."""
        if self.r is None:
            prep = self.prep
            y = prep.c_ext[self.basic] @ self.binv
            self.r = prep.c_ext - y @ prep.A
        return self.r

    def recompute_xb(self) -> None:
        self.xB = self.binv @ (self.prep.b - self.prep.A @ self.nb)

    def refactorize(self) -> bool:
        """Rebuild the basis inverse from scratch; False when B is singular."""
        try:
            self.binv = np.linalg.inv(self.prep.A[:, self.basic])
        except np.linalg.LinAlgError:
            return False
        self.age = 0
        self.r = None
        self.recompute_xb()
        return True

    def point(self) -> np.ndarray:
        values = self.nb.copy()
        values[self.basic] = self.xB
        return values


class RevisedSimplexSolver:
    """Revised simplex for LPs with general bounds, warm-startable.

    Args:
        pricing: "dantzig" (most negative reduced cost; plain LPs) or
            "devex" (steepest-edge-family reference weights; branch and
            bound).  Both fall back to Bland's least-index rule after a run
            of degenerate pivots, which restores the anti-cycling guarantee.
    """

    def __init__(self, pricing: str = "dantzig") -> None:
        if pricing not in ("dantzig", "devex"):
            raise ValueError(f"unknown pricing rule {pricing!r}")
        self.pricing = pricing

    # -- public API ---------------------------------------------------------

    def solve(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        basis: Optional[BasisState] = None,
    ) -> SimplexResult:
        """Solve the LP; same argument convention as the scipy backend."""
        prep = PreparedLP(c, a_ub, b_ub, a_eq, b_eq)
        return self.solve_prepared(prep, lower, upper, basis=basis)

    def solve_prepared(
        self,
        prep: PreparedLP,
        lower: np.ndarray,
        upper: np.ndarray,
        basis: Optional[Union[BasisState, PausedSolve]] = None,
        stop_above: Optional[float] = None,
    ) -> Union[SimplexResult, PausedSolve]:
        """Solve a :class:`PreparedLP` under the given bounds.

        When ``basis`` is compatible the solve warm-starts from it: a primal
        feasible basis goes straight to phase 2, a dual feasible one through
        the dual simplex; otherwise the composite phase 1 repairs it.

        With ``stop_above`` a dual-simplex solve may stop early and return a
        :class:`PausedSolve` instead of a result (see the module docstring);
        the other paths ignore it.  A :class:`PausedSolve` passed as
        ``basis`` resumes that solve under its own bounds (``lower`` and
        ``upper`` are not read), with a new ``stop_above``.
        """
        if isinstance(basis, PausedSolve):
            state = basis._take()
            prep, lo, hi = state.prep, state.lo, state.hi
            warm = True
            result = self._run_dual(state, stop_above)
        else:
            lower = np.asarray(lower, dtype=float)
            upper = np.asarray(upper, dtype=float)
            if prep.n == 0:
                return SimplexResult(SolveStatus.OPTIMAL, np.zeros(0), 0.0, 0)
            if np.any(lower > upper + _FEASIBILITY_TOL):
                return SimplexResult(SolveStatus.INFEASIBLE, None, None, 0)
            if prep.m == 0:
                return self._solve_box_only(prep, lower, upper)

            lo, hi = prep.full_bounds(lower, upper)
            state = _State(prep, lo, hi)

            # Anything that is not a compatible BasisState (stale token from
            # a different model, arbitrary caller garbage) silently
            # cold-starts.
            warm = isinstance(basis, BasisState) and basis.compatible_with(
                prep.m, prep.total
            )
            if warm:
                warm = self._install_basis(state, basis)
            if not warm:
                self._cold_basis(state)
            result = self._run(state, warm, stop_above)

        if (
            warm
            and isinstance(result, SimplexResult)
            and result.status is SolveStatus.ERROR
        ):
            # A stale or numerically hostile warm basis should never make the
            # solve fail outright; retry cold.
            state = _State(prep, lo, hi)
            self._cold_basis(state)
            retry = self._run(state, False)
            retry.iterations += result.iterations
            return retry
        return result

    # -- start bases --------------------------------------------------------

    def _solve_box_only(
        self, prep: PreparedLP, lower: np.ndarray, upper: np.ndarray
    ) -> SimplexResult:
        # No rows: minimise each cost coefficient against its own bounds.
        c = prep.c_ext[: prep.n]
        x = np.zeros(prep.n)
        for i in range(prep.n):
            if c[i] > 0:
                if not math.isfinite(lower[i]):
                    return SimplexResult(SolveStatus.UNBOUNDED, None, None, 0)
                x[i] = lower[i]
            elif c[i] < 0:
                if not math.isfinite(upper[i]):
                    return SimplexResult(SolveStatus.UNBOUNDED, None, None, 0)
                x[i] = upper[i]
            else:
                x[i] = min(max(0.0, lower[i]), upper[i])
        basis = BasisState(
            np.empty(0, dtype=np.int64), np.full(prep.n, AT_LOWER, dtype=np.int8)
        )
        return SimplexResult(SolveStatus.OPTIMAL, x, float(c @ x), 0, basis)

    def _cold_basis(self, state: _State) -> None:
        """All-slack starting basis with nonbasics at their nearest bound."""
        prep = state.prep
        finite_lo = np.isfinite(state.lo)
        finite_hi = np.isfinite(state.hi)
        state.vstat[:] = np.where(
            finite_lo, AT_LOWER, np.where(finite_hi, AT_UPPER, FREE)
        )
        state.basic[:] = prep.n + np.arange(prep.m)
        state.vstat[state.basic] = BASIC
        state.derive()
        state.binv = np.eye(prep.m)
        state.recompute_xb()

    def _install_basis(self, state: _State, basis: BasisState) -> bool:
        state.basic[:] = basis.basic
        state.vstat[:] = basis.vstat
        inherit = (
            basis.binv is not None
            and basis.binv.shape == (state.prep.m, state.prep.m)
            and basis.age < _REFACTOR_EVERY
        )
        if inherit and basis.start is not None and basis.start.prep is state.prep:
            if self._share_start(state, basis):
                return True
        # Sanitise statuses against the *current* bounds: a variable can only
        # rest at a bound that exists.
        finite_lo = np.isfinite(state.lo)
        finite_hi = np.isfinite(state.hi)
        stray = (state.vstat == AT_LOWER) & ~finite_lo
        if stray.any():
            state.vstat[stray] = np.where(finite_hi[stray], AT_UPPER, FREE)
        stray = (state.vstat == AT_UPPER) & ~finite_hi
        if stray.any():
            state.vstat[stray] = np.where(finite_lo[stray], AT_LOWER, FREE)
        state.derive()
        if inherit:
            # Inherit the factorised inverse from the parent solve instead of
            # paying an O(m^3) inversion per warm start.  Copied: sibling
            # nodes warm-start from the same parent basis.
            state.binv = basis.binv.copy()
            state.age = basis.age
            state.recompute_xb()
            return True
        return state.refactorize()

    def _share_start(self, state: _State, basis: BasisState) -> bool:
        """Install ``basis`` from its solve's shared start when every column
        whose bounds changed is basic; False (nothing installed) otherwise.

        The start's vectors equal a fresh derivation under its own bounds,
        and a basic column's bounds enter only its row's ``lb`` and ``ub``,
        so such a start keeps every nonbasic status and value.  A
        strong-branching child tightens a fractional, hence basic, variable.
        """
        start = basis.start
        changed = (state.lo != start.lo) | (state.hi != start.hi)
        if (changed & (state.vstat != BASIC)).any():
            return False
        state.nb = start.nb.copy()
        state.sign = start.sign.copy()
        state.free = None if start.free is None else start.free.copy()
        state.lb = state.lo[state.basic]
        state.ub = state.hi[state.basic]
        state.binv = basis.binv.copy()
        state.age = basis.age
        state.r = start.r
        if start.b is not state.prep.b:
            state.recompute_xb()
            return True
        # The start's basic values and dual-feasibility verdict are this
        # start's too.
        state.shared = start
        if start.xB is None:
            state.recompute_xb()
            start.xB = state.xB
        state.xB = start.xB.copy()
        return True

    # -- main driver --------------------------------------------------------

    def _run(
        self, state: _State, warm: bool, stop_above: Optional[float] = None
    ) -> Union[SimplexResult, PausedSolve]:
        if not warm:
            status, iterations = self._phase1_then_2(state)
        elif self._primal_infeasibility(state) <= _FEASIBILITY_TOL:
            status, iterations = self._primal(state, phase1=False)
        elif self._dual_feasible(state):
            return self._run_dual(state, stop_above)
        else:
            status, iterations = self._phase1_then_2(state)
        return self._result(state, status, iterations)

    def _run_dual(
        self, state: _State, stop_above: Optional[float]
    ) -> Union[SimplexResult, PausedSolve]:
        status, iterations = self._dual(state, stop_above)
        if status is None:
            return PausedSolve(state, state.bound, iterations)
        if status is SolveStatus.OPTIMAL:
            # Dual simplex stops at primal feasibility; polish with a
            # (usually zero-iteration) primal pass for safety.
            status, iters = self._primal(state, phase1=False)
            iterations += iters
        return self._result(state, status, iterations)

    def _result(
        self, state: _State, status: SolveStatus, iterations: int
    ) -> SimplexResult:
        if status is not SolveStatus.OPTIMAL:
            return SimplexResult(status, None, None, iterations)
        prep = state.prep
        point = state.point()
        x = point[: prep.n]
        objective = float(prep.c_ext[: prep.n] @ x)
        # The state ends with this solve, so its arrays become the token.
        state.basic.setflags(write=False)
        state.vstat.setflags(write=False)
        return SimplexResult(
            SolveStatus.OPTIMAL,
            x,
            objective,
            iterations,
            BasisState(
                state.basic, state.vstat, state.binv, state.age, _Start(state)
            ),
        )

    def _phase1_then_2(self, state: _State) -> Tuple[SolveStatus, int]:
        iterations = 0
        if self._primal_infeasibility(state) > _FEASIBILITY_TOL:
            status, iters = self._primal(state, phase1=True)
            iterations += iters
            if status is not SolveStatus.OPTIMAL:
                return status, iterations
            if self._primal_infeasibility(state) > _FEASIBILITY_TOL:
                return SolveStatus.INFEASIBLE, iterations
        status, iters = self._primal(state, phase1=False)
        return status, iterations + iters

    # -- shared pieces ------------------------------------------------------

    def _primal_infeasibility(self, state: _State) -> float:
        below = np.maximum(state.lb - state.xB, 0.0)
        above = np.maximum(state.xB - state.ub, 0.0)
        below[~np.isfinite(below)] = 0.0
        above[~np.isfinite(above)] = 0.0
        return float(below.sum() + above.sum())

    def _dual_feasible(self, state: _State) -> bool:
        shared = state.shared
        if shared is not None and shared.dual_ok is not None:
            return shared.dual_ok
        # Fixed columns never enter (sign 0): their reduced costs do not count.
        verdict = not state.admissible(state.reduced_costs(), 1e-7).any()
        if shared is not None:
            shared.dual_ok = verdict
        return verdict

    def _pick_entering(
        self,
        state: _State,
        r: np.ndarray,
        bland: bool,
    ) -> Tuple[int, int]:
        """Return (column, direction) of the entering variable, or (-1, 0)."""
        candidates = np.nonzero(state.admissible(r, _TOLERANCE))[0]
        if candidates.size == 0:
            return -1, 0
        if bland:
            j = int(candidates[0])
        elif self.pricing == "devex":
            scores = r[candidates] ** 2 / state.devex[candidates]
            j = int(candidates[np.argmax(scores)])
        else:  # dantzig
            j = int(candidates[np.argmax(np.abs(r[candidates]))])
        if state.vstat[j] == AT_LOWER:
            direction = 1
        elif state.vstat[j] == AT_UPPER:
            direction = -1
        else:
            direction = 1 if r[j] < 0 else -1
        return j, direction

    def _update_devex(
        self, state: _State, row: int, col: int, alpha: np.ndarray
    ) -> None:
        """Reference-framework Devex weight update (Forrest-Goldfarb)."""
        if self.pricing != "devex":
            return
        # Pivot row of the pre-pivot tableau, over all columns.
        arow = state.binv[row] @ state.prep.A
        piv = arow[col]
        if abs(piv) < _PIVOT_TOL:
            return
        ratio = (arow / piv) ** 2 * state.devex[col]
        np.maximum(state.devex, ratio, out=state.devex)
        state.devex[state.basic[row]] = max(state.devex[col] / piv**2, 1.0)

    # -- primal simplex -----------------------------------------------------

    def _primal(self, state: _State, phase1: bool) -> Tuple[SolveStatus, int]:
        """Primal iterations; phase 1 minimises the sum of bound violations."""
        prep = state.prep
        ftol = _FEASIBILITY_TOL
        bland = False
        degenerate_run = 0
        below = above = None

        for iteration in range(_MAX_ITERATIONS):
            if phase1:
                below = state.xB < state.lb - ftol
                above = state.xB > state.ub + ftol
                if not (below.any() or above.any()):
                    return SolveStatus.OPTIMAL, iteration
                d = above.astype(float) - below.astype(float)
                y = d @ state.binv
                r = -(y @ prep.A)
            else:
                # Unchanged by a bound flip, so computed once per basis.
                r = state.reduced_costs()

            col, direction = self._pick_entering(state, r, bland)
            if col < 0:
                if phase1:
                    # Phase-1 optimum with residual infeasibility: infeasible.
                    return (
                        SolveStatus.INFEASIBLE
                        if self._primal_infeasibility(state) > ftol
                        else SolveStatus.OPTIMAL
                    ), iteration
                return SolveStatus.OPTIMAL, iteration

            alpha = state.binv @ prep.A[:, col]
            delta = -direction * alpha  # change rate of xB per unit step

            row, step, hit = self._primal_ratio(
                state, delta, below, above, bland
            )
            flip = state.hi[col] - state.lo[col]
            if not math.isfinite(flip):
                flip = math.inf

            if row < 0 and not math.isfinite(flip):
                if phase1:
                    return SolveStatus.ERROR, iteration
                return SolveStatus.UNBOUNDED, iteration

            if flip <= step or row < 0:
                # Bound flip: the entering variable crosses to its other
                # bound before any basic variable blocks.
                state.xB += delta * flip
                state.move(
                    col, AT_UPPER if state.vstat[col] == AT_LOWER else AT_LOWER
                )
                continue

            if abs(alpha[row]) < _PIVOT_TOL:
                # Numerically hostile pivot: rebuild the inverse and redo the
                # iteration with exact data.
                if not state.refactorize():
                    return SolveStatus.ERROR, iteration
                continue

            if state.vstat[col] == AT_LOWER:
                enter_value = state.lo[col] + direction * step
            elif state.vstat[col] == AT_UPPER:
                enter_value = state.hi[col] + direction * step
            else:
                enter_value = direction * step

            self._update_devex(state, row, col, alpha)
            state.xB += delta * step
            state.xB[row] = enter_value
            leaving_status = AT_LOWER if hit < 0 else AT_UPPER
            if not state.pivot(row, col, leaving_status, alpha):
                return SolveStatus.ERROR, iteration

            if step <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run > _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        return SolveStatus.ERROR, _MAX_ITERATIONS

    def _primal_ratio(
        self,
        state: _State,
        delta: np.ndarray,
        below: Optional[np.ndarray],
        above: Optional[np.ndarray],
        bland: bool,
    ) -> Tuple[int, float, int]:
        """Bounded ratio test.

        Feasible basics block at their own bounds; infeasible basics (phase 1,
        flagged by ``below``/``above``, which are None in phase 2) block when
        they reach the bound they currently violate.  Returns ``(row, step,
        hit)`` with ``hit`` -1/+1 for the lower/upper bound the blocking
        variable lands on, or ``row = -1`` when nothing blocks.  A basic
        with an infinite bound gets an infinite step from the division.
        """
        tol = _TOLERANCE
        lb = state.lb
        ub = state.ub
        steps = np.full(delta.shape[0], math.inf)
        down = delta < -tol
        up = delta > tol
        if below is not None:
            feasible = ~(below | above)
            down &= feasible
            up &= feasible

        if down.any():
            gap = state.xB[down] - lb[down]
            steps[down] = np.maximum(gap, 0.0) / (-delta[down])
        if up.any():
            gap = ub[up] - state.xB[up]
            steps[up] = np.maximum(gap, 0.0) / delta[up]
        if below is not None:
            # Phase-1 extras: an infeasible basic blocks at the violated
            # bound as soon as the step would carry it back into feasibility.
            toward_lb = below & (delta > tol)
            if toward_lb.any():
                steps[toward_lb] = (
                    lb[toward_lb] - state.xB[toward_lb]
                ) / delta[toward_lb]
            toward_ub = above & (delta < -tol)
            if toward_ub.any():
                steps[toward_ub] = (state.xB[toward_ub] - ub[toward_ub]) / (
                    -delta[toward_ub]
                )

        best = steps.min()
        if not math.isfinite(best):
            return -1, math.inf, 0
        ties = np.nonzero(steps <= best + tol)[0]
        if bland:
            row = int(min(ties, key=lambda i: state.basic[i]))
        else:
            row = int(ties[np.argmax(np.abs(delta[ties]))])
        if below is not None and (below[row] or above[row]):
            hit = -1 if below[row] else 1
        else:
            hit = -1 if delta[row] < 0 else 1
        return row, float(max(steps[row], 0.0)), hit

    # -- dual simplex -------------------------------------------------------

    def _dual(
        self, state: _State, stop_above: Optional[float] = None
    ) -> Tuple[Optional[SolveStatus], int]:
        """Dual simplex from a dual-feasible basis; used for warm starts.

        Returns the status and the iterations of this call.  With
        ``stop_above`` it returns status None, leaving the dual objective in
        ``state.bound``, as soon as that exceeds the threshold at a dual
        feasible basis (checked before each pivot); calling it again on the
        same state continues.
        """
        prep = state.prep
        A = prep.A
        c = prep.c_ext
        ftol = _FEASIBILITY_TOL
        first = state.dual_iterations
        degenerate_run = state.degenerate_run
        bland = state.bland

        for iteration in range(first, _MAX_ITERATIONS):
            # An infinite bound gives -inf here, never a violation.
            viol_lo = state.lb - state.xB
            viol_hi = state.xB - state.ub
            row_lo = int(viol_lo.argmax())
            row_hi = int(viol_hi.argmax())
            worst_lo = float(viol_lo[row_lo])
            worst_hi = float(viol_hi[row_hi])
            if max(worst_lo, worst_hi) <= ftol:
                return SolveStatus.OPTIMAL, iteration - first
            if stop_above is not None:
                bound = float(c[state.basic] @ state.xB + c @ state.nb)
                # The bound holds only at a dual feasible basis, at the
                # pricing tolerance of the primal polish (see exceeds).
                if exceeds(bound, stop_above) and not state.admissible(
                    state.reduced_costs(), _TOLERANCE
                ).any():
                    state.bound = bound
                    state.dual_iterations = iteration
                    state.degenerate_run = degenerate_run
                    state.bland = bland
                    return None, iteration - first

            leaving_low = worst_lo >= worst_hi
            row = row_lo if leaving_low else row_hi

            r = state.reduced_costs()
            arow = state.binv[row] @ A
            # The leaving basic sits below its lower bound (above its upper):
            # admissible nonbasics push it up (down), so the rates are arow
            # (-arow).
            candidates = np.nonzero(
                state.admissible(arow, _PIVOT_TOL, negated=not leaving_low)
            )[0]
            if candidates.size == 0:
                return SolveStatus.INFEASIBLE, iteration - first

            if bland:
                col = int(candidates[0])
            else:
                # |r / a| is |r| / |a| exactly: rounding is sign-symmetric.
                ratios = np.abs(r.take(candidates) / arow.take(candidates))
                col = int(candidates[np.argmin(ratios)])

            alpha = state.binv @ A[:, col]
            if abs(float(alpha[row])) < _PIVOT_TOL:
                if not state.refactorize():
                    return SolveStatus.ERROR, iteration - first
                continue
            leaving_status = AT_LOWER if leaving_low else AT_UPPER
            r_col = float(r[col])
            a_col = float(arow[col])
            if not state.pivot(row, col, leaving_status, alpha):
                return SolveStatus.ERROR, iteration - first
            state.recompute_xb()

            dual_step = abs(r_col) / max(abs(a_col), _PIVOT_TOL)
            if dual_step <= _DEGENERATE_STEP:
                degenerate_run += 1
                if degenerate_run > _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        return SolveStatus.ERROR, _MAX_ITERATIONS - first
