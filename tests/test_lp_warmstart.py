"""Warm-start and solver-equivalence tests for the revised simplex stack.

Covers the acceptance criteria of the revised-simplex PR:

* randomized LPs (bounded / free / equality-heavy) agree between the pure
  revised simplex, a brute-force vertex enumeration and scipy/HiGHS;
* randomized MILPs agree between the pure branch-and-bound and scipy;
* warm-started re-solves after bound tightening return the same status and
  objective as cold solves, in fewer iterations;
* the MilpWorkspace bound-mutation path matches the one-shot model builds.

Tests with "scipy" in their name are skipped automatically when scipy is not
installed (see tests/conftest.py).
"""

import itertools

import numpy as np
import pytest

from repro.core.milp import MilpSettings, MilpWorkspace, max_throughput, min_cycle_time
from repro.lp import Model, SolveStatus
from repro.lp.revised_simplex import PreparedLP, RevisedSimplexSolver
from repro.workloads.examples import figure1a_rrg, unbalanced_fork_join

def _random_lp(rng, max_vars=7):
    """A small random LP with a mix of bounded, free and fixed variables."""
    n = int(rng.integers(1, max_vars + 1))
    m_ub = int(rng.integers(0, 6))
    m_eq = int(rng.integers(0, 3))
    c = rng.integers(-5, 6, n).astype(float)
    a_ub = rng.integers(-4, 5, (m_ub, n)).astype(float)
    b_ub = rng.integers(-6, 10, m_ub).astype(float)
    a_eq = rng.integers(-3, 4, (m_eq, n)).astype(float)
    b_eq = rng.integers(-4, 5, m_eq).astype(float)
    lower = np.where(
        rng.random(n) < 0.3, -np.inf, rng.integers(-5, 1, n).astype(float)
    )
    upper = np.where(rng.random(n) < 0.3, np.inf, rng.integers(1, 8, n).astype(float))
    return c, a_ub, b_ub, a_eq, b_eq, lower, upper


def _best_vertex(c, a_ub, b_ub, a_eq, b_eq, lower, upper, box):
    """Least ``c @ x`` over the feasible vertices of the LP capped to ``box``.

    Every infinite bound becomes ``-box`` / ``+box``; each set of ``n``
    linearly independent rows of ``[a_ub; a_eq; I; I]`` held at equality
    gives one candidate point.  Returns ``inf`` when none is feasible.
    """
    n = c.shape[0]
    lo = np.where(np.isfinite(lower), lower, -box)
    hi = np.where(np.isfinite(upper), upper, box)
    rows = np.vstack([a_ub, a_eq, np.eye(n), np.eye(n)])
    rhs = np.concatenate([b_ub, b_eq, lo, hi])
    active = np.array(list(itertools.combinations(range(rows.shape[0]), n)))
    systems = rows[active]
    regular = np.abs(np.linalg.det(systems)) > 1e-9
    points = np.linalg.solve(systems[regular], rhs[active[regular]][..., None])[..., 0]
    tol = 1e-6
    feasible = (points >= lo - tol).all(axis=1) & (points <= hi + tol).all(axis=1)
    if a_ub.size:
        feasible &= (points @ a_ub.T <= b_ub + tol).all(axis=1)
    if a_eq.size:
        feasible &= (np.abs(points @ a_eq.T - b_eq) <= tol).all(axis=1)
    if not feasible.any():
        return np.inf
    return float((points[feasible] @ c).min())


def _vertex_enumeration(c, a_ub, b_ub, a_eq, b_eq, lower, upper):
    """Reference (status, objective) of a small LP by brute force.

    Valid for n <= 4 variables with small integer data: every vertex then
    lies well inside the 1e6 box, so the capped LP is infeasible exactly when
    the LP is, and its optimum improves when the box doubles exactly when the
    LP is unbounded.
    """
    best = _best_vertex(c, a_ub, b_ub, a_eq, b_eq, lower, upper, 1e6)
    if best == np.inf:
        return SolveStatus.INFEASIBLE, None
    wider = _best_vertex(c, a_ub, b_ub, a_eq, b_eq, lower, upper, 2e6)
    if wider < best - 1e-6 * max(1.0, abs(best)):
        return SolveStatus.UNBOUNDED, None
    return SolveStatus.OPTIMAL, best


def _random_milp_model(rng):
    n = int(rng.integers(2, 6))
    model = Model("rand-milp", sense="min")
    variables = []
    for i in range(n):
        vtype = "integer" if rng.random() < 0.7 else "continuous"
        lb = float(rng.integers(-4, 1))
        ub = float(rng.integers(1, 7))
        variables.append(model.add_var(f"v{i}", lb=lb, ub=ub, vtype=vtype))
    for _ in range(int(rng.integers(1, 5))):
        coeffs = rng.integers(-4, 5, n).astype(float)
        rhs = float(rng.integers(0, 12))
        expr = sum(float(c) * v for c, v in zip(coeffs, variables))
        model.add_constr(expr <= rhs)
    objective = sum(
        float(c) * v for c, v in zip(rng.integers(-5, 6, n).astype(float), variables)
    )
    model.set_objective(objective)
    return model


class TestRandomizedCrossChecks:
    def test_random_lps_agree_with_scipy(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(1234)
        solver = RevisedSimplexSolver()
        for _ in range(120):
            c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(rng)
            result = solver.solve(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
            ref = linprog(
                c,
                A_ub=a_ub if a_ub.size else None,
                b_ub=b_ub if b_ub.size else None,
                A_eq=a_eq if a_eq.size else None,
                b_eq=b_eq if b_eq.size else None,
                bounds=list(zip(lower, upper)),
                method="highs",
            )
            if ref.success:
                assert result.status is SolveStatus.OPTIMAL
                assert result.objective == pytest.approx(ref.fun, abs=1e-6)
            elif ref.status == 2:
                assert result.status is SolveStatus.INFEASIBLE
            elif ref.status == 3:
                assert result.status is SolveStatus.UNBOUNDED

    def test_random_lps_agree_with_vertex_enumeration(self):
        # The oracle needs no scipy, so this runs on the no-scipy leg too.
        rng = np.random.default_rng(99)
        solver = RevisedSimplexSolver()
        statuses = set()
        for _ in range(300):
            lp = _random_lp(rng, max_vars=4)
            result = solver.solve(*lp)
            status, objective = _vertex_enumeration(*lp)
            assert result.status is status
            if status is SolveStatus.OPTIMAL:
                assert result.objective == pytest.approx(objective, abs=1e-6)
            statuses.add(status)
        assert len(statuses) == 3

    def test_random_milps_agree_with_scipy(self):
        rng = np.random.default_rng(4321)
        for _ in range(40):
            model = _random_milp_model(rng)
            pure = model.solve(backend="pure")
            ref = model.solve(backend="scipy")
            assert pure.status == ref.status
            if ref.is_optimal:
                assert pure.objective == pytest.approx(ref.objective, abs=1e-6)


class TestWarmStartEquivalence:
    def test_warm_vs_cold_after_bound_tightening(self):
        rng = np.random.default_rng(7)
        solver = RevisedSimplexSolver()
        compared = 0
        saved_warm = saved_cold = 0
        while compared < 60:
            c, a_ub, b_ub, a_eq, b_eq, lower, upper = _random_lp(rng)
            prep = PreparedLP(c, a_ub, b_ub, a_eq, b_eq)
            base = solver.solve_prepared(prep, lower, upper)
            if base.status is not SolveStatus.OPTIMAL:
                continue
            # Tighten one variable's bounds like a branch-and-bound child.
            i = int(rng.integers(0, prep.n))
            lo2, hi2 = lower.copy(), upper.copy()
            if rng.random() < 0.5:
                hi2[i] = min(hi2[i], np.floor(base.x[i]))
            else:
                lo2[i] = max(lo2[i], np.floor(base.x[i]) + 1.0)
            if lo2[i] > hi2[i]:
                continue
            warm = solver.solve_prepared(prep, lo2, hi2, basis=base.basis)
            cold = solver.solve_prepared(prep, lo2, hi2)
            assert warm.status == cold.status
            if warm.status is SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
            saved_warm += warm.iterations
            saved_cold += cold.iterations
            compared += 1
        # Warm starts must be dramatically cheaper in aggregate.
        assert saved_warm < saved_cold

    def test_milp_warm_basis_roundtrip(self):
        """A stale basis from a previous solve must never change the answer."""
        rng = np.random.default_rng(321)
        for _ in range(20):
            model = _random_milp_model(rng)
            first = model.solve(backend="pure")
            again = model.solve(backend="pure", warm_start=first)
            assert first.status == again.status
            if first.is_optimal:
                assert again.objective == pytest.approx(first.objective, abs=1e-9)


class TestWorkspaceReuse:
    def test_workspace_matches_one_shot_solves(self):
        rrg = figure1a_rrg(0.9)
        settings = MilpSettings(backend="pure")
        workspace = MilpWorkspace(rrg, settings=settings)
        # Sweep tau downward then x upward, mirroring the Pareto walk.
        for tau in (rrg.max_delay, rrg.max_delay + 1.0):
            from_workspace = workspace.max_throughput(tau)
            one_shot = max_throughput(rrg, tau, settings=settings)
            assert from_workspace.throughput_bound == pytest.approx(
                one_shot.throughput_bound, abs=1e-6
            )
        for x in (1.0, 1.2):
            from_workspace = workspace.min_cycle_time(x)
            one_shot = min_cycle_time(rrg, x, settings=settings)
            assert from_workspace.cycle_time == pytest.approx(
                one_shot.cycle_time, abs=1e-6
            )

    def test_workspace_reuses_compiled_form(self):
        rrg = figure1a_rrg(0.5)
        workspace = MilpWorkspace(rrg, settings=MilpSettings(backend="pure"))
        workspace.max_throughput(rrg.max_delay)
        state = workspace._max_thr
        form_before = state.model.compile()
        workspace.max_throughput(rrg.max_delay + 0.5)
        assert state.model.compile() is form_before

    def test_workspace_scipy_and_pure_agree(self):
        rrg = unbalanced_fork_join(alpha=0.8, long_branch_delay=6.0)
        outcomes = {}
        for backend in ("scipy", "pure"):
            workspace = MilpWorkspace(rrg, settings=MilpSettings(backend=backend))
            a = workspace.min_cycle_time(1.0)
            b = workspace.max_throughput(rrg.max_delay)
            outcomes[backend] = (a.cycle_time, b.throughput_bound)
        assert outcomes["pure"][0] == pytest.approx(outcomes["scipy"][0], abs=1e-6)
        assert outcomes["pure"][1] == pytest.approx(outcomes["scipy"][1], abs=1e-6)


class TestModelMutation:
    def test_set_var_bounds_patches_cached_form(self):
        model = Model("m", sense="min")
        x = model.add_var("x", lb=0.0, ub=10.0)
        model.add_constr(x >= 2.0)
        model.set_objective(x)
        form = model.compile()
        assert model.solve(backend="pure").objective == pytest.approx(2.0)
        model.set_var_bounds(x, 5.0, 10.0)
        assert model.compile() is form  # no rebuild
        assert form.lower[0] == 5.0
        assert model.solve(backend="pure").objective == pytest.approx(5.0)

    def test_set_constr_rhs_patches_cached_form(self):
        model = Model("m", sense="min")
        x = model.add_var("x", lb=0.0, ub=10.0)
        model.add_constr(x >= 2.0, name="floor")
        model.set_objective(x)
        form = model.compile()
        model.set_constr_rhs("floor", 7.0)
        assert model.compile() is form
        assert model.solve(backend="pure").objective == pytest.approx(7.0)
        # A fresh compile after structural change also reflects the new RHS.
        model.add_var("y", lb=0.0)
        assert model.compile() is not form
        assert model.solve(backend="pure").objective == pytest.approx(7.0)

    def test_structural_change_invalidates_cache(self):
        model = Model("m", sense="min")
        x = model.add_var("x", lb=0.0)
        model.set_objective(x)
        form = model.compile()
        model.add_constr(x >= 3.0)
        assert model.compile() is not form
        assert model.solve(backend="pure").objective == pytest.approx(3.0)
