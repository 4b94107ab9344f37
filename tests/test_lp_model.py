"""Unit tests for Model construction, compilation and diagnostics."""

import math

import pytest

from repro.lp import (
    Constraint,
    ConstraintSense,
    LinExpr,
    Model,
    ObjectiveSense,
    SolveStatus,
)
from repro.lp.errors import ModelError


class TestModelConstruction:
    def test_add_var_defaults(self):
        model = Model("m")
        x = model.add_var("x")
        assert x.lb == 0.0
        assert math.isinf(x.ub)
        assert not x.is_integer

    def test_auto_names_are_unique(self):
        model = Model("m")
        a = model.add_var()
        b = model.add_var()
        assert a.name != b.name

    def test_duplicate_names_rejected(self):
        model = Model("m")
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_var("x")

    def test_add_vars_bulk(self):
        model = Model("m")
        xs = model.add_vars(5, prefix="y", vtype="integer")
        assert len(xs) == 5
        assert all(v.is_integer for v in xs)

    def test_var_by_name(self):
        model = Model("m")
        x = model.add_var("x")
        assert model.var_by_name("x") is x
        with pytest.raises(ModelError):
            model.var_by_name("missing")

    def test_foreign_variable_rejected(self):
        model_a = Model("a")
        model_b = Model("b")
        x = model_a.add_var("x")
        with pytest.raises(ModelError):
            model_b.add_constr(x <= 1)
        with pytest.raises(ModelError):
            model_b.set_objective(x)

    def test_add_constr_requires_constraint(self):
        model = Model("m")
        model.add_var("x")
        with pytest.raises(ModelError):
            model.add_constr(3.0)  # type: ignore[arg-type]

    def test_trivially_feasible_constraints_are_dropped(self):
        model = Model("m")
        model.add_var("x")
        from repro.lp.expression import LinExpr

        model.add_constr(LinExpr({}, -1.0) <= 0)
        assert len(model.constraints) == 0

    def test_objective_sense_coercion(self):
        assert ObjectiveSense.coerce("max") is ObjectiveSense.MAXIMIZE
        assert ObjectiveSense.coerce("minimise") is ObjectiveSense.MINIMIZE
        with pytest.raises(ValueError):
            ObjectiveSense.coerce("sideways")

    def test_summary_mentions_sizes(self):
        model = Model("sized", sense="max")
        x = model.add_var("x", vtype="integer")
        y = model.add_var("y")
        model.add_constr(x + y <= 3)
        text = model.summary()
        assert "2 vars" in text
        assert "1 integer" in text
        assert "1 constraints" in text


class TestCompilation:
    def test_compile_shapes(self):
        model = Model("m", sense="min")
        x = model.add_var("x", lb=0, ub=5)
        y = model.add_var("y", lb=None, vtype="integer")
        model.add_constr(x + y <= 4)
        model.add_constr(x - y >= 1)
        model.add_constr(x + 2 * y == 3)
        model.set_objective(x + y)
        form = model.compile()
        assert form.num_variables == 2
        assert form.a_ub.shape == (2, 2)
        assert form.a_eq.shape == (1, 2)
        assert form.integer_mask.tolist() == [False, True]
        assert form.has_integers

    def test_compile_maximize_negates_costs(self):
        model = Model("m", sense="max")
        x = model.add_var("x")
        model.set_objective(2 * x + 7)
        form = model.compile()
        assert form.maximize
        assert form.c[0] == pytest.approx(-2.0)
        assert form.c0 == pytest.approx(-7.0)

    def test_ge_constraints_are_flipped(self):
        model = Model("m")
        x = model.add_var("x")
        model.add_constr(x >= 3)
        form = model.compile()
        assert form.a_ub[0, 0] == pytest.approx(-1.0)
        assert form.b_ub[0] == pytest.approx(-3.0)


class TestCheckSolution:
    def test_check_solution_accepts_valid_point(self):
        model = Model("m", sense="max")
        x = model.add_var("x", lb=0, ub=4)
        model.add_constr(x <= 3)
        model.set_objective(x)
        solution = model.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert model.check_solution(solution)

    def test_check_solution_rejects_out_of_bounds(self):
        model = Model("m")
        x = model.add_var("x", lb=0, ub=1)
        model.set_objective(x)
        solution = model.solve()
        solution.values[x] = 5.0
        assert not model.check_solution(solution)

    def test_check_solution_rejects_fractional_integers(self):
        model = Model("m")
        x = model.add_var("x", lb=0, ub=4, vtype="integer")
        model.set_objective(x)
        solution = model.solve()
        solution.values[x] = 0.5
        assert not model.check_solution(solution)

    def test_check_solution_without_point(self):
        model = Model("m")
        x = model.add_var("x", lb=0, ub=1)
        model.add_constr(x >= 2)
        solution = model.solve()
        assert solution.status is SolveStatus.INFEASIBLE
        assert not model.check_solution(solution)


class TestSolutionObject:
    def test_value_of_expression(self):
        model = Model("m", sense="max")
        x = model.add_var("x", lb=0, ub=2)
        y = model.add_var("y", lb=0, ub=3)
        model.set_objective(x + y)
        solution = model.solve()
        assert solution.value(x + 2 * y) == pytest.approx(2 + 6)
        assert solution[x] == pytest.approx(2)
        assert x in solution

    def test_value_of_unknown_type_raises(self):
        model = Model("m")
        model.add_var("x")
        solution = model.solve()
        with pytest.raises(TypeError):
            solution.value("x")  # type: ignore[arg-type]

    def test_empty_model_is_optimal(self):
        # Models without variables never reach a backend, so "scipy" gives
        # the same answer whether or not scipy is installed.
        for backend in ("auto", "scipy", "pure"):
            model = Model("empty")
            solution = model.solve(backend=backend)
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == pytest.approx(0.0)
            model.add_constr(Constraint(LinExpr({}, 1.0), ConstraintSense.LE))
            assert model.solve(backend=backend).status is SolveStatus.INFEASIBLE
