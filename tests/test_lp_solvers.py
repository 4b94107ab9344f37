"""Solver backend tests: scipy/HiGHS vs the pure-Python simplex and B&B."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import Model, SolveStatus
from repro.lp.branch_and_bound import _STRONG_BRANCHING, BranchAndBoundSolver
from repro.lp import revised_simplex
from repro.lp.revised_simplex import (
    BasisState,
    PausedSolve,
    PreparedLP,
    RevisedSimplexSolver,
)

BACKENDS = ("scipy", "pure")


def solve_both(model):
    return {backend: model.solve(backend=backend) for backend in BACKENDS}


class TestLinearPrograms:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simple_maximization(self, backend):
        model = Model("lp", sense="max")
        x = model.add_var("x", lb=0, ub=4)
        y = model.add_var("y", lb=0, ub=4)
        model.add_constr(x + 2 * y <= 8)
        model.add_constr(3 * x + y <= 9)
        model.set_objective(2 * x + 3 * y)
        solution = model.solve(backend=backend)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(13.0, abs=1e-6)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_minimization_with_equalities(self, backend):
        model = Model("lp", sense="min")
        x = model.add_var("x", lb=0)
        y = model.add_var("y", lb=0)
        model.add_constr(x + y == 10)
        model.add_constr(x - y >= 2)
        model.set_objective(3 * x + y)
        solution = model.solve(backend=backend)
        assert solution.is_optimal
        assert solution[x] + solution[y] == pytest.approx(10.0, abs=1e-6)
        assert solution.objective == pytest.approx(3 * 6 + 4, abs=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_free_variables(self, backend):
        model = Model("lp", sense="min")
        w = model.add_var("w", lb=None, ub=None)
        model.add_constr(w >= -3.5)
        model.set_objective(w)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(-3.5, abs=1e-6)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_infeasible_detection(self, backend):
        model = Model("lp")
        x = model.add_var("x", lb=0, ub=1)
        model.add_constr(x >= 2)
        solution = model.solve(backend=backend)
        assert solution.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unbounded_detection(self, backend):
        model = Model("lp", sense="max")
        x = model.add_var("x", lb=0)
        model.set_objective(x)
        solution = model.solve(backend=backend)
        assert solution.status is SolveStatus.UNBOUNDED

    def test_backends_agree_on_degenerate_lp(self):
        model = Model("lp", sense="max")
        x = model.add_var("x", lb=0, ub=10)
        y = model.add_var("y", lb=0, ub=10)
        model.add_constr(x + y <= 10)
        model.add_constr(x + y <= 10)  # duplicate constraint on purpose
        model.add_constr(x <= 10)
        model.set_objective(x + y)
        results = solve_both(model)
        assert results["scipy"].objective == pytest.approx(
            results["pure"].objective, abs=1e-6
        )

    @given(
        c1=st.integers(-5, 5),
        c2=st.integers(-5, 5),
        b1=st.integers(1, 10),
        b2=st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_backends_agree_on_random_bounded_lps(self, c1, c2, b1, b2):
        model = Model("rand", sense="max")
        x = model.add_var("x", lb=0, ub=6)
        y = model.add_var("y", lb=0, ub=6)
        model.add_constr(x + 2 * y <= b1)
        model.add_constr(2 * x + y <= b2)
        model.set_objective(c1 * x + c2 * y)
        results = solve_both(model)
        assert results["scipy"].status == results["pure"].status
        if results["scipy"].is_optimal:
            assert results["scipy"].objective == pytest.approx(
                results["pure"].objective, abs=1e-6
            )


class TestMixedIntegerPrograms:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_knapsack_style_milp(self, backend):
        model = Model("milp", sense="max")
        a = model.add_var("a", lb=0, ub=10, vtype="integer")
        b = model.add_var("b", lb=0, ub=10, vtype="integer")
        model.add_constr(3 * a + 5 * b <= 17)
        model.set_objective(2 * a + 3 * b)
        solution = model.solve(backend=backend)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(11.0)
        assert solution[a] == pytest.approx(round(solution[a]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_binary_selection(self, backend):
        model = Model("milp", sense="max")
        items = [model.add_var(f"b{i}", vtype="binary") for i in range(4)]
        weights = [4, 3, 2, 5]
        values = [10, 4, 7, 9]
        model.add_constr(
            sum(w * v for w, v in zip(weights, items)) <= 7
        )
        model.set_objective(sum(v * var for v, var in zip(values, items)))
        solution = model.solve(backend=backend)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(17.0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_integer_infeasible(self, backend):
        model = Model("milp")
        x = model.add_var("x", lb=0, ub=10, vtype="integer")
        model.add_constr(2 * x >= 3)
        model.add_constr(2 * x <= 3)
        solution = model.solve(backend=backend)
        assert solution.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_continuous_and_integer(self, backend):
        model = Model("milp", sense="min")
        x = model.add_var("x", lb=0)
        n = model.add_var("n", lb=0, ub=5, vtype="integer")
        model.add_constr(x + n >= 3.4)
        model.set_objective(2 * x + n)
        solution = model.solve(backend=backend)
        assert solution.is_optimal
        # Best is n = 4 (cost 4) vs n = 3 + x = 0.4 (cost 3.8).
        assert solution.objective == pytest.approx(3.8, abs=1e-6)

    def test_stopped_search_reports_feasible_not_optimal(self):
        # Two integer variables are unbounded on one side, so branch and
        # bound cannot exhaust the tree before the time limit; the true
        # optimum is 5.0 (HiGHS), far from what 0.5 s of search finds.
        model = Model("limit", sense="max")
        v0 = model.add_var("v0", lb=-1, ub=6, vtype="integer")
        v1 = model.add_var("v1", lb=-3, ub=None, vtype="integer")
        v2 = model.add_var("v2", lb=-1, ub=4)
        v3 = model.add_var("v3", lb=None, ub=3, vtype="integer")
        v4 = model.add_var("v4", lb=-4, ub=1, vtype="integer")
        v5 = model.add_var("v5", lb=0, ub=4, vtype="integer")
        model.add_constr(v0 - 2 * v1 + 3 * v2 + 2 * v3 - v4 + 2 * v5 <= 3)
        model.add_constr(3 * v0 + 3 * v1 + 4 * v2 + 4 * v3 <= 7)
        model.add_constr(-2 * v0 - 3 * v1 - 2 * v2 - 3 * v3 + v4 - 3 * v5 == 7)
        model.add_constr(3 * v1 - v3 + v5 >= -8)
        model.set_objective(-3 * v2 + 2 * v4 - 2 * v5)
        solution = model.solve(backend="pure", time_limit=0.5)
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.has_point
        assert model.check_solution(solution)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_lower_bound_integers(self, backend):
        model = Model("milp", sense="min")
        r = model.add_var("r", lb=-5, ub=5, vtype="integer")
        model.add_constr(r >= -2.5)
        model.set_objective(r)
        solution = model.solve(backend=backend)
        assert solution.objective == pytest.approx(-2.0)


class TestRawSolvers:
    def test_simplex_direct_call(self):
        solver = RevisedSimplexSolver()
        result = solver.solve(
            c=np.array([-1.0, -1.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([4.0]),
            a_eq=np.zeros((0, 2)),
            b_eq=np.zeros(0),
            lower=np.zeros(2),
            upper=np.full(2, np.inf),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-4.0)

    def test_simplex_empty_problem(self):
        solver = RevisedSimplexSolver()
        result = solver.solve(
            c=np.zeros(0),
            a_ub=np.zeros((0, 0)),
            b_ub=np.zeros(0),
            a_eq=np.zeros((0, 0)),
            b_eq=np.zeros(0),
            lower=np.zeros(0),
            upper=np.zeros(0),
        )
        assert result.status is SolveStatus.OPTIMAL

    def test_branch_and_bound_counts_nodes(self):
        solver = BranchAndBoundSolver()
        result = solver.solve(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0], [5.0, 2.0]]),
            b_ub=np.array([4.7, 16.0]),
            a_eq=np.zeros((0, 2)),
            b_eq=np.zeros(0),
            lower=np.zeros(2),
            upper=np.array([10.0, 10.0]),
            integer_mask=np.array([True, True]),
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.nodes_explored >= 1
        assert result.x is not None
        assert float(result.x[0]) == pytest.approx(round(result.x[0]))


def test_warm_start_token_with_an_unknown_status_code_cold_starts():
    # A nonbasic status outside BASIC / AT_LOWER / AT_UPPER / FREE used to
    # be installed and give a wrong OPTIMAL; such a token must cold-start.
    solver = RevisedSimplexSolver()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-5.0, 5.0, 6)
        a_ub = rng.uniform(-3.0, 3.0, (4, 6))
        b_ub = rng.uniform(1.0, 8.0, 4)
        lower = np.zeros(6)
        upper = rng.integers(1, 6, 6).astype(float)
        prep = PreparedLP(c, a_ub, b_ub, np.zeros((0, 6)), np.zeros(0))
        cold = solver.solve_prepared(prep, lower, upper)
        assert cold.status is SolveStatus.OPTIMAL, seed
        with pytest.raises(ValueError):
            cold.basis.vstat[0] = 7  # a returned token is read-only
        token = cold.basis.copy()
        token.vstat[np.flatnonzero(token.vstat != 0)[0]] = 7
        assert not token.compatible_with(prep.m, prep.total), seed
        warm = solver.solve_prepared(prep, lower, upper, basis=token)
        assert warm.status is SolveStatus.OPTIMAL, seed
        assert repr(warm.objective) == repr(cold.objective), seed


def _small_integer_program(seed):
    """A bounded pure-integer program small enough to enumerate: 2-4
    variables, boxes of width 1-3, 2-4 random ``<=`` rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    lower = rng.integers(-2, 2, size=n).astype(float)
    upper = lower + rng.integers(1, 4, size=n)
    c = np.round(rng.uniform(-5.0, 5.0, size=n), 1)
    a_ub = np.round(rng.uniform(-3.0, 3.0, size=(m, n)), 1)
    b_ub = np.round(rng.uniform(-1.0, 6.0, size=m), 1)
    return c, a_ub, b_ub, lower, upper


def _enumerated_optimum(c, a_ub, b_ub, lower, upper):
    """Smallest ``c @ x`` over the feasible integer points, None if none."""
    grid = np.array(
        list(itertools.product(*[range(int(lo), int(hi) + 1)
                                 for lo, hi in zip(lower, upper)])),
        dtype=float,
    )
    feasible = grid[np.all(grid @ a_ub.T <= b_ub + 1e-9, axis=1)]
    return float((feasible @ c).min()) if len(feasible) else None


_ORACLE_SEEDS = range(300)


@pytest.mark.parametrize("chunk", range(3))
def test_branch_and_bound_matches_enumeration(chunk):
    # A scipy-free oracle for branch and bound, strong branching and its
    # skip rule included.
    for seed in _ORACLE_SEEDS[chunk::3]:
        c, a_ub, b_ub, lower, upper = _small_integer_program(seed)
        n = c.shape[0]
        result = BranchAndBoundSolver().solve(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper,
            np.ones(n, dtype=bool),
        )
        optimum = _enumerated_optimum(c, a_ub, b_ub, lower, upper)
        if optimum is None:
            assert result.status is SolveStatus.INFEASIBLE, seed
            continue
        assert result.status is SolveStatus.OPTIMAL, seed
        x = result.x
        assert np.array_equal(x, np.round(x)), seed
        assert np.all(lower <= x) and np.all(x <= upper), seed
        assert np.all(a_ub @ x <= b_ub + 1e-9), seed
        assert float(c @ x) == pytest.approx(result.objective, abs=1e-9), seed
        # Nodes within the relative MIP gap of the incumbent are fathomed.
        assert result.objective == pytest.approx(
            optimum, abs=1e-6 * max(1.0, abs(optimum)) + 1e-9
        ), seed


def test_branch_and_bound_fathoms_at_the_tie_scale():
    # min t + p*y, y integer in [0, 2], over t >= 100 + 3a(y - 1.6) and
    # t >= 100 - 2a(y - 1.6): the relaxation sits in the valley at y = 1.6
    # with t = 100; y = 1 and y = 2 both need t = 100 + 1.2a.  Rounding the
    # relaxation gives the incumbent y = 2, one unit p above the optimum
    # y = 1.  A gap of 1e-6 relative (1e-4 here) would fathom the root on
    # that incumbent; half a unit of the smallest integer cost may not.
    p, a = 1e-6, 1e-5
    c = np.array([1.0, p])
    a_ub = np.array([[-1.0, 3.0 * a], [-1.0, -2.0 * a]])
    b_ub = np.array([4.8 * a - 100.0, -3.2 * a - 100.0])
    result = BranchAndBoundSolver().solve(
        c, a_ub, b_ub, np.zeros((0, 2)), np.zeros(0),
        np.zeros(2), np.array([math.inf, 2.0]), np.array([False, True]),
    )
    assert result.status is SolveStatus.OPTIMAL
    assert result.x[1] == 1.0
    assert result.objective == pytest.approx(100.0 + 1.2 * a + p, rel=0, abs=1e-10)


def test_oracle_programs_skip_strong_branching_children(monkeypatch):
    # The oracle above covers the lazy strong branching only if some of its
    # programs never start a child.  Record each node's candidates and the
    # child LPs started after them (a resumed solve passes its paused token
    # as ``basis`` and is not a start); a candidate with one child started
    # and the other never was skipped.
    events = []
    candidates_of = BranchAndBoundSolver._fractional_candidates
    solve_prepared = RevisedSimplexSolver.solve_prepared

    def candidates(x, integer_mask):
        found = candidates_of(x, integer_mask)
        events.append(found)
        return found

    def relax(self, prep, lower, upper, basis=None, stop_above=None):
        if not isinstance(basis, PausedSolve):
            events.append((lower.copy(), upper.copy()))
        return solve_prepared(
            self, prep, lower, upper, basis=basis, stop_above=stop_above
        )

    monkeypatch.setattr(
        BranchAndBoundSolver, "_fractional_candidates", staticmethod(candidates)
    )
    monkeypatch.setattr(RevisedSimplexSolver, "solve_prepared", relax)
    skipping = 0
    for seed in _ORACLE_SEEDS:
        c, a_ub, b_ub, lower, upper = _small_integer_program(seed)
        n = c.shape[0]
        events.clear()
        BranchAndBoundSolver().solve(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper,
            np.ones(n, dtype=bool),
        )
        skipped = 0
        found, down, up = [], set(), set()
        for event in events + [[]]:
            if isinstance(event, list):
                skipped += len(down ^ up)
                found, down, up = event, set(), set()
                continue
            child_lower, child_upper = event
            for index, value in found:
                if child_upper[index] == math.floor(value):
                    down.add(index)
                elif child_lower[index] == math.floor(value) + 1:
                    up.add(index)
        skipping += int(skipped > 0)
    assert skipping >= 10


# ---------------------------------------------------------------------------
# Lazy strong branching: the decision equals the one with every child solved.


def _full_decision(solver, prep, node, result, candidates, cutoff):
    """Strong branching with both children of every candidate solved to the
    end by plain ``solve_prepared``: fathom, or the first candidate with the
    largest min(down, up) and its children below the cutoff (see the
    ``branch_and_bound`` module docstring).  Returns ``(winner, children)``
    like ``BranchAndBoundSolver._strong_branch``; children as results."""
    best_score, winner, kept = -math.inf, -1, None
    for at, (index, value) in enumerate(candidates[:_STRONG_BRANCHING]):
        children, values = [], []
        for down in (True, False):
            lower, upper = node.lower.copy(), node.upper.copy()
            if down:
                upper[index] = min(upper[index], math.floor(value))
            else:
                lower[index] = max(lower[index], math.floor(value) + 1)
            if lower[index] > upper[index] + 1e-12:
                values.append(math.inf)
                continue
            child = solver.simplex.solve_prepared(
                prep, lower, upper, basis=result.basis
            )
            if child.status is not SolveStatus.OPTIMAL:
                values.append(math.inf)
                continue
            values.append(child.objective)
            if child.objective < cutoff:
                children.append(child)
        if not children:
            return -1, None
        if min(values) > best_score:
            best_score, winner, kept = min(values), at, children
    return winner, kept


def _fingerprint(winner, results):
    if results is None:
        return winner, None
    return winner, [(repr(r.objective), r.x.tobytes()) for r in results]


@pytest.fixture
def decisions_checked(monkeypatch):
    """Make every strong-branching decision check itself against
    :func:`_full_decision`; yields the list of nodes checked."""
    checked = []
    lazy = BranchAndBoundSolver._strong_branch

    def checking(self, prep, node, result, candidates, cutoff, tally):
        winner, children = lazy(self, prep, node, result, candidates, cutoff, tally)
        got = _fingerprint(
            winner, None if children is None else [entry[2] for entry in children]
        )
        want = _fingerprint(
            *_full_decision(self, prep, node, result, candidates, cutoff)
        )
        checked.append(got == want)
        return winner, children

    monkeypatch.setattr(BranchAndBoundSolver, "_strong_branch", checking)
    return checked


def test_lazy_strong_branching_decides_as_full_on_oracle_programs(
    decisions_checked,
):
    for seed in _ORACLE_SEEDS:
        c, a_ub, b_ub, lower, upper = _small_integer_program(seed)
        n = c.shape[0]
        BranchAndBoundSolver().solve(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper,
            np.ones(n, dtype=bool),
        )
    assert len(decisions_checked) > 100
    assert all(decisions_checked)


def _s382_workspace():
    # The Table 2 sweep's s382 (scale 0.2); its MIN_CYC(1/0.55) is the
    # sweep's third-largest tree.
    from repro.core.milp import MilpSettings, MilpWorkspace
    from repro.pipeline.stages import BuildSpec

    rrg = BuildSpec.from_scenario("iscas", name="s382", scale=0.2, seed=2018).build()
    return MilpWorkspace(rrg, MilpSettings(backend="pure", time_limit=None))


def test_lazy_strong_branching_decides_as_full_on_a_sweep_milp(decisions_checked):
    _s382_workspace().min_cycle_time(1.8181818181818181)
    assert len(decisions_checked) > 40
    assert all(decisions_checked)


# ---------------------------------------------------------------------------
# Paused and resumed solves.


def _paused_solve(solver, prep, lower, upper, basis, rng, low, high):
    """Solve with a random ``stop_above`` between ``low`` and ``high``,
    resuming each pause with a new one; the last resume has none.  Returns
    the final result, the summed iterations and every paused bound."""
    bounds = []
    out = solver.solve_prepared(
        prep, lower, upper, basis=basis, stop_above=rng.uniform(low, high)
    )
    iterations = out.iterations
    while isinstance(out, PausedSolve):
        bounds.append(out.bound)
        threshold = None if len(bounds) > 12 else rng.uniform(low, high)
        out = solver.solve_prepared(
            prep, lower, upper, basis=out, stop_above=threshold
        )
        iterations += out.iterations
    return out, iterations, bounds


def _assert_same_solve(got, iterations, want):
    assert got.status is want.status
    assert iterations == want.iterations
    assert repr(got.objective) == repr(want.objective)
    if want.x is None:
        assert got.x is None
        return
    assert got.x.tobytes() == want.x.tobytes()
    assert np.array_equal(got.basis.basic, want.basis.basic)
    assert np.array_equal(got.basis.vstat, want.basis.vstat)
    assert (got.basis.binv + 0.0).tobytes() == (want.basis.binv + 0.0).tobytes()


def _check_resumes(solver, prep, lower, upper, basis, rng):
    """One child solved three ways must agree bit for bit: in one shot
    from a copy of the parent's token (which has no shared start), and
    paused and resumed at random thresholds, twice.  The thresholds range
    over the child's dual objective, from its start (probed by a solve that
    stops at once) to its optimum.  Returns the number of pauses."""
    want = solver.solve_prepared(prep, lower, upper, basis=basis.copy())
    probe = solver.solve_prepared(prep, lower, upper, basis=basis, stop_above=-1e300)
    if not isinstance(probe, PausedSolve):
        return 0
    low = probe.bound
    if want.status is SolveStatus.OPTIMAL:
        high = want.objective
    else:
        high = low + 10.0 * max(1.0, abs(low))
    spread = max(high - low, 1e-6 * max(1.0, abs(high)))
    pauses = 0
    for _ in range(2):
        got, iterations, bounds = _paused_solve(
            solver, prep, lower, upper, basis, rng,
            low - 0.1 * spread, high + 0.1 * spread,
        )
        _assert_same_solve(got, iterations, want)
        if want.status is SolveStatus.OPTIMAL:
            slack = 1e-12 * max(1.0, abs(want.objective))
            assert all(bound <= want.objective + slack for bound in bounds)
        pauses += len(bounds)
    return pauses


def _random_children(rng, count):
    """The branching children of ``count`` seeded bounded LPs: yields
    ``(prep, lower, upper, parent)`` per child, ``parent`` the finished
    solve of its LP."""
    solver = RevisedSimplexSolver(pricing="devex")
    for _ in range(count):
        n, m = 6, 4
        c = rng.uniform(-5.0, 5.0, n)
        a_ub = rng.uniform(-3.0, 3.0, (m, n))
        b_ub = rng.uniform(0.0, 8.0, m)
        lower = rng.integers(-3, 1, n).astype(float)
        upper = lower + rng.integers(1, 6, n)
        prep = PreparedLP(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0))
        parent = solver.solve_prepared(prep, lower, upper)
        if parent.status is not SolveStatus.OPTIMAL:
            continue
        for j in np.flatnonzero(np.abs(parent.x - np.round(parent.x)) > 1e-6):
            for down in (True, False):
                child_lower, child_upper = lower.copy(), upper.copy()
                if down:
                    child_upper[j] = math.floor(parent.x[j])
                else:
                    child_lower[j] = math.floor(parent.x[j]) + 1
                yield prep, child_lower, child_upper, parent


def _sweep_child_starts(monkeypatch):
    """The warm starts of one sweep MILP's relaxations, as
    ``(solver, prep, lower, upper, basis)``."""
    starts = []
    solve_prepared = RevisedSimplexSolver.solve_prepared

    def recording(self, prep, lower, upper, basis=None, stop_above=None):
        if isinstance(basis, BasisState):
            starts.append((self, prep, lower, upper, basis))
        return solve_prepared(
            self, prep, lower, upper, basis=basis, stop_above=stop_above
        )

    monkeypatch.setattr(RevisedSimplexSolver, "solve_prepared", recording)
    _s382_workspace().min_cycle_time(1.8181818181818181)
    monkeypatch.setattr(RevisedSimplexSolver, "solve_prepared", solve_prepared)
    return starts


def test_paused_solves_resume_bit_identically_on_random_lps():
    rng = np.random.default_rng(23)
    solver = RevisedSimplexSolver(pricing="devex")
    children = pauses = 0
    for prep, lower, upper, parent in _random_children(rng, 200):
        pauses += _check_resumes(solver, prep, lower, upper, parent.basis, rng)
        children += 1
    assert children > 200
    assert pauses > 200


def test_paused_solves_resume_bit_identically_on_branching_children(monkeypatch):
    starts = _sweep_child_starts(monkeypatch)
    rng = np.random.default_rng(382)
    pauses = 0
    for solver, prep, lower, upper, basis in starts:
        pauses += _check_resumes(solver, prep, lower, upper, basis, rng)
    assert len(starts) > 200
    assert pauses > 200


def test_paused_bounds_hold_after_bland_pivots(monkeypatch):
    # A Bland pivot takes the first admissible column, not the one of the
    # smallest ratio, and so can lose dual feasibility; no bound may be
    # reported from such a basis.  Bland's rule from the first degenerate
    # pivot on.
    monkeypatch.setattr(revised_simplex, "_BLAND_TRIGGER", 0)
    starts = _sweep_child_starts(monkeypatch)
    rng = np.random.default_rng(30)
    pauses = 0
    for solver, prep, lower, upper, basis in starts:
        pauses += _check_resumes(solver, prep, lower, upper, basis, rng)
    solver = RevisedSimplexSolver(pricing="devex")
    for prep, lower, upper, parent in _random_children(rng, 100):
        pauses += _check_resumes(solver, prep, lower, upper, parent.basis, rng)
    assert pauses > 400


def test_paused_bounds_hold_when_the_start_is_dual_feasible_only_to_1e7():
    # The dual simplex accepts a start whose reduced costs have the wrong
    # sign by up to 1e-7 (_dual_feasible); the primal pass that polishes
    # its end prices at 1e-9 and can end below c @ z of any earlier basis.
    # Here one nonbasic column of each parent gets a reduced cost of -5e-8
    # at its lower bound, by moving its cost.
    rng = np.random.default_rng(77)
    solver = RevisedSimplexSolver(pricing="devex")
    children = 0
    for prep, lower, upper, parent in _random_children(rng, 200):
        basis = parent.basis
        y = prep.c_ext[basis.basic] @ basis.binv
        r = prep.c_ext - y @ prep.A
        at_lower = np.flatnonzero(basis.vstat[: prep.n] == 1)
        if at_lower.size == 0:
            continue
        j = at_lower[0]
        c = prep.c_ext[: prep.n].copy()
        c[j] -= r[j] + 5e-8
        moved = PreparedLP(
            c, prep.A[:, : prep.n], prep.b, np.zeros((0, prep.n)), np.zeros(0)
        )
        _check_resumes(solver, moved, lower, upper, basis, rng)
        children += 1
    assert children > 100


def test_fixed_columns_do_not_keep_a_warm_start_off_the_dual_simplex():
    # max x1 + 2 x2 s.t. x1 + x2 = 2, as min -x1 - 2 x2 with the row
    # negated: at the optimum (0, 2) the fixed slack of the equality row
    # sits at its lower bound with reduced cost -2, the wrong sign for a
    # column that could move.  A fixed column never enters, so the start
    # is dual feasible: with x2 <= 1 the warm solve takes the dual simplex
    # and can pause at once.
    solver = RevisedSimplexSolver(pricing="devex")
    prep = PreparedLP(
        np.array([-1.0, -2.0]), np.zeros((0, 2)), np.zeros(0),
        np.array([[-1.0, -1.0]]), np.array([-2.0]),
    )
    lower, upper = np.zeros(2), np.full(2, 3.0)
    parent = solver.solve_prepared(prep, lower, upper)
    assert parent.status is SolveStatus.OPTIMAL
    basis = parent.basis
    r = prep.c_ext - (prep.c_ext[basis.basic] @ basis.binv) @ prep.A
    wrong = ((basis.vstat == 1) & (r < -1e-7)) | ((basis.vstat == 2) & (r > 1e-7))
    lo, hi = prep.full_bounds(lower, upper)
    assert wrong.any() and np.all(lo[wrong] == hi[wrong])

    child_upper = np.array([3.0, 1.0])
    paused = solver.solve_prepared(
        prep, lower, child_upper, basis=basis, stop_above=-10.0
    )
    assert isinstance(paused, PausedSolve)
    finished = solver.solve_prepared(prep, lower, child_upper, basis=paused)
    cold = solver.solve_prepared(prep, lower, child_upper)
    assert finished.status is cold.status is SolveStatus.OPTIMAL
    assert finished.objective == pytest.approx(cold.objective, rel=1e-12)
    assert cold.objective == pytest.approx(-3.0)
