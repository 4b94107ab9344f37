"""Tests for the heuristic search subsystem (:mod:`repro.search`)."""

import math
import random

import pytest

from repro.analysis.cycle_time import cycle_time
from repro.core.milp import MilpSettings
from repro.core.optimizer import min_effective_cycle_time
from repro.core.throughput import configuration_throughput_bound
from repro.gmg.simulation import simulate_throughput
from repro.pipeline.runner import derive_seed
from repro.search import SearchProblem, SearchState, search_minimize
from repro.search.portfolio import evaluation_budget
from repro.search.state import BUBBLE, RETIME, Move
from repro.sim.cache import clear_caches
from repro.workloads.examples import figure1a_rrg
from repro.workloads.iscas_like import SPEC_BY_NAME, iscas_like_rrg, scaled_spec
from repro.workloads.random_rrg import large_random_rrg, random_rrg

SETTINGS = MilpSettings(time_limit=30)


def random_legal_moves(problem, state, rng, steps):
    """Apply ``steps`` random legal moves; returns them in application order."""
    applied = []
    for _ in range(steps):
        moves = problem.sample_moves(state, rng, size=6)
        if not moves:
            break
        move = rng.choice(moves)
        state.apply(move)
        applied.append(move)
    return applied


@pytest.fixture(scope="module")
def midsize():
    return random_rrg(24, 48, seed=11)


class TestSearchState:
    def test_apply_revert_roundtrip(self, midsize):
        problem = SearchProblem(midsize, cycles=64, seed=1)
        state = SearchState(midsize)
        tokens0, buffers0 = list(state.tokens), list(state.buffers)
        applied = random_legal_moves(problem, state, random.Random(3), 40)
        assert applied
        for move in reversed(applied):
            state.revert(move)
        assert state.tokens == tokens0
        assert state.buffers == buffers0
        assert state.lags == [0] * midsize.num_nodes

    def test_feasibility_invariant_under_random_walks(self, midsize):
        problem = SearchProblem(midsize, cycles=64, seed=1)
        state = SearchState(midsize)
        random_legal_moves(problem, state, random.Random(7), 60)
        for edge in range(midsize.num_edges):
            assert state.buffers[edge] >= max(state.tokens[edge], 0)
        # Materialisation validates R' >= R0' and liveness-by-construction;
        # the cycle-time sweep would raise on a zero-buffer cycle.
        configuration = state.as_configuration(label="walk")
        assert problem.cycle_times_batch([state])[0] == pytest.approx(
            configuration.cycle_time()
        )

    def test_retiming_shifts_tokens_consistently(self, midsize):
        state = SearchState(midsize)
        node = 0
        move = Move(RETIME, node, +1)
        if not state.can_apply(move):
            move = Move(RETIME, node, -1)
        assert state.can_apply(move)
        before = list(state.tokens)
        state.apply(move)
        for edge in state.in_edges[node]:
            if state.edge_src[edge] != node:
                assert state.tokens[edge] == before[edge] + move.delta
        for edge in state.out_edges[node]:
            if state.edge_dst[edge] != node:
                assert state.tokens[edge] == before[edge] - move.delta
        # The configuration view derives the same vectors from the lags.
        configuration = state.as_configuration()
        assert configuration.token_vector() == state.token_vector()

    def test_bubble_removal_needs_a_bubble(self, midsize):
        state = SearchState(midsize)
        edge = 0
        assert state.bubbles(edge) == 0
        assert not state.can_apply(Move(BUBBLE, edge, -1))
        state.apply(Move(BUBBLE, edge, +1))
        assert state.bubbles(edge) == 1
        assert state.can_apply(Move(BUBBLE, edge, -1))

    def test_adopts_milp_configurations(self):
        rrg = figure1a_rrg(alpha=0.9)
        outcome = min_effective_cycle_time(rrg, k=1, epsilon=0.1,
                                           settings=SETTINGS)
        state = SearchState.from_configuration(outcome.best.configuration)
        assert state.token_vector() == outcome.best.configuration.token_vector()
        assert state.buffer_vector() == outcome.best.configuration.buffer_vector()


class TestIncrementalEvaluation:
    """The satellite cross-check: incremental == full re-evaluation."""

    def test_cycle_time_matches_analysis_after_move_sequences(self, midsize):
        problem = SearchProblem(midsize, cycles=64, seed=5)
        state = SearchState(midsize)
        rng = random.Random(13)
        for _ in range(8):
            random_legal_moves(problem, state, rng, 5)
            expected = cycle_time(midsize, state.buffer_vector())
            assert problem.cycle_times_batch([state])[0] == pytest.approx(
                expected
            )

    def test_throughput_matches_full_engine_evaluation(self, midsize):
        problem = SearchProblem(midsize, cycles=200, seed=9)
        state = SearchState(midsize)
        rng = random.Random(17)
        for _ in range(4):
            random_legal_moves(problem, state, rng, 6)
            configuration = state.as_configuration()
            measured = problem.evaluate(state).throughput
            clear_caches()
            full = simulate_throughput(
                configuration,
                cycles=problem.cycles,
                warmup=problem.warmup,
                seed=problem.seed,
            )
            assert measured == full

    def test_throughput_matches_reference_simulator(self):
        from repro.gmg.build import build_tgmg
        from repro.gmg.simulation import TGMGSimulator

        rrg = random_rrg(10, 20, seed=2)
        problem = SearchProblem(rrg, cycles=150, seed=3)
        state = SearchState(rrg)
        random_legal_moves(problem, state, random.Random(1), 6)
        tgmg = build_tgmg(
            rrg, tokens=state.token_vector(), buffers=state.buffer_vector()
        )
        reference = TGMGSimulator(tgmg, seed=problem.seed).run(
            cycles=problem.cycles, warmup=problem.warmup
        )
        assert problem.evaluate(state).throughput == reference.throughput

    def test_critical_edges_are_zero_buffer_and_tight(self, midsize):
        problem = SearchProblem(midsize, cycles=64, seed=5)
        state = SearchState(midsize)
        [tau] = problem.cycle_times_batch([state])
        critical = problem.critical_edges(state)
        assert critical
        for edge in critical:
            assert state.buffers[edge] == 0
        # Bubbling every critical edge must break the maximum path.
        for edge in critical:
            state.apply(Move(BUBBLE, edge, +1))
        assert problem.cycle_times_batch([state])[0] < tau


class TestAdmissibleFilters:
    def test_tau_filter_prunes_exactly_the_hopeless(self, midsize):
        problem = SearchProblem(midsize, cycles=64, seed=5)
        state = SearchState(midsize)
        [tau] = problem.cycle_times_batch([state])
        assert problem.evaluate_batch([state], threshold=tau) == [None]
        assert problem.pruned_tau == 1
        [evaluation] = problem.evaluate_batch([state], threshold=math.inf)
        assert evaluation is not None
        assert evaluation.cycle_time == pytest.approx(tau)

    def test_lp_bound_is_admissible(self, midsize):
        problem = SearchProblem(midsize, cycles=200, seed=5)
        assert problem.lp_filter
        state = SearchState(midsize)
        rng = random.Random(23)
        for _ in range(3):
            random_legal_moves(problem, state, rng, 4)
            bound = problem.lp_bound(state)
            measured = problem.evaluate(state).throughput
            assert bound >= measured - 1e-9


def _scaled_iscas(name, scale, seed):
    return iscas_like_rrg(
        scaled_spec(SPEC_BY_NAME[name], scale), seed=seed, name=name
    )


class TestPortfolioAgainstMilp:
    """Heuristic incumbents are feasible and never beat the exact optimum."""

    @pytest.mark.parametrize(
        "rrg_factory",
        [
            pytest.param(lambda: figure1a_rrg(alpha=0.9), id="figure1a"),
            pytest.param(lambda: _scaled_iscas("s27", 1.0, 2011), id="s27"),
            pytest.param(lambda: _scaled_iscas("s208", 1.0, 2009), id="s208"),
            pytest.param(lambda: _scaled_iscas("s420", 1.0, 2019), id="s420"),
            pytest.param(lambda: _scaled_iscas("s382", 0.2, 2018), id="s382"),
            pytest.param(lambda: _scaled_iscas("s526", 0.2, 2013), id="s526"),
        ],
    )
    def test_never_better_than_milp_and_matches_via_member(self, rrg_factory):
        rrg = rrg_factory()
        exact = min_effective_cycle_time(
            rrg, k=1, epsilon=0.1, settings=SETTINGS
        )
        exact_xi = exact.best_effective_cycle_time_bound
        result = search_minimize(
            rrg, time_budget=6.0, seed=4, epsilon=0.1, settings=SETTINGS,
            include_milp=True,
        )
        # Feasibility: every stored incumbent materialises and validates.
        for point in result.points:
            point.configuration.cycle_time()  # raises on infeasibility
        # The search never lands materially below the MIN_EFF_CYC optimum.
        # Exact equality is not a theorem: the walk samples the Pareto front
        # at epsilon resolution (it is itself the paper's *heuristic*), so a
        # local search can land a configuration with a marginally better
        # bound between two walk steps.  5% is the paper's tolerance regime.
        best_bound_xi = (
            result.best.cycle_time
            / configuration_throughput_bound(result.best.configuration)
        )
        assert best_bound_xi >= exact_xi * 0.95
        # The MILP member reproduced the optimum inside the portfolio.
        assert result.milp is not None and result.milp.get("ran")
        if "best_xi_bound" in result.milp and not result.milp.get("truncated"):
            assert result.milp["best_xi_bound"] == pytest.approx(
                exact_xi, rel=1e-6
            )
        # Anytime property: never worse than the identity starting point.
        assert (
            result.best.effective_cycle_time
            <= result.points[0].effective_cycle_time + 1e-9
        )


class TestPortfolioDeterminism:
    def test_same_seed_same_incumbent(self):
        from repro.sim.cache import clear_caches

        rrg = large_random_rrg(80, seed=5)
        runs = []
        for _ in range(2):
            clear_caches()
            runs.append(search_minimize(
                rrg, time_budget=3.0, seed=21, include_milp=False
            ))
        first, second = runs
        assert first.best.configuration.same_assignment(
            second.best.configuration
        )
        assert first.best.effective_cycle_time == second.best.effective_cycle_time
        assert first.evaluations == second.evaluations
        assert first.history == second.history

    def test_strategy_seeds_derive_from_root(self):
        rrg = large_random_rrg(60, seed=5)
        result = search_minimize(
            rrg, time_budget=2.0, seed=33, include_milp=False
        )
        by_name = {report.name: report.seed for report in result.strategies}
        assert by_name["descent"] == derive_seed(33, "strategy", "descent")
        assert by_name["anneal"] == derive_seed(33, "strategy", "anneal")

    def test_budget_is_a_pure_function_of_the_inputs(self):
        rrg = large_random_rrg(300, seed=1)
        a = evaluation_budget(rrg, 256, 64, 20.0)
        b = evaluation_budget(rrg, 256, 64, 20.0)
        assert a == b
        assert evaluation_budget(rrg, 256, 64, 40.0) >= a


class TestPipelineIntegration:
    def test_large_scale_preset_is_deterministic(self):
        from repro.experiments.presets import RunOptions, run_preset
        from repro.sim.cache import clear_caches

        options = RunOptions(size="tiny", time_budget=2.0, seed=6)
        clear_caches()
        first = run_preset("large-scale", options)
        clear_caches()
        second = run_preset("large-scale", options)
        assert first == second
        assert first["headers"][0] == "name"
        assert first["summary"]["completed"] in (True, False)
        assert first["rows"][0][3] == "portfolio"

    def test_scenario_run_with_search_optimizer(self):
        from repro.experiments.presets import RunOptions, run_preset

        options = RunOptions(
            optimizer="descent", time_budget=2.0, seed=2, cycles=400,
        )
        result = run_preset("ring", options)
        assert result["rows"]
        # Search payloads flow through the same Simulate/Report reducers.
        assert result["headers"] == [
            "name", "tau", "Theta_lp", "Theta", "err%", "xi_lp", "xi",
        ]

    def test_optimizer_changes_the_store_key(self):
        from repro.pipeline.stages import (
            BuildSpec, Job, OptimizeParams, job_store_key,
        )
        from repro.workloads.registry import build_scenario

        rrg = build_scenario("ring", {})
        build = BuildSpec.from_scenario("ring")
        milp = Job(job_id="a", build=build, optimize=OptimizeParams())
        search = Job(
            job_id="a", build=build,
            optimize=OptimizeParams(optimizer="portfolio", time_budget=5.0),
        )
        assert job_store_key(milp, rrg) != job_store_key(search, rrg)

    def test_cli_large_scale_tiny(self, capsys):
        from repro.cli import main

        code = main([
            "run", "large-scale", "--size", "tiny", "--time-budget", "2",
            "--seed", "1", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "portfolio" in out
        assert "incumbent_xi" in out

    def test_unknown_optimizer_is_a_clean_service_error(self):
        from repro.experiments.presets import RunOptions
        from repro.workloads.registry import ScenarioError

        with pytest.raises(ScenarioError):
            RunOptions.from_mapping({"optimizer": "gradient-descent"})
        with pytest.raises(ScenarioError):
            RunOptions.from_mapping({"size": "humongous"})

    def test_paper_presets_reject_search_flags(self):
        from repro.experiments.presets import RunOptions, run_preset
        from repro.workloads.registry import ScenarioError

        with pytest.raises(ScenarioError, match="exact MILP"):
            run_preset("table2-small", RunOptions(optimizer="portfolio"))
        with pytest.raises(ScenarioError, match="exact MILP"):
            run_preset("motivational", RunOptions(time_budget=5.0))
        with pytest.raises(ScenarioError, match="large-scale"):
            run_preset("ring", RunOptions(size="small"))

    def test_search_payload_is_cache_warmth_independent(self):
        """A stored payload is a pure function of the job declaration.

        The second execution runs with every template/throughput cache warm
        from the first; the payloads must still be identical (no wall-clock
        or cache-hit-counter fields may leak in).
        """
        from repro.pipeline.stages import (
            BuildSpec, Job, OptimizeParams, execute_job,
        )

        job = Job(
            job_id="warmth",
            build=BuildSpec.from_scenario("large-rrg", num_nodes=40, seed=9),
            optimize=OptimizeParams(
                optimizer="anneal", time_budget=1.5, search_seed=5,
            ),
        )
        cold = execute_job(job)
        warm = execute_job(job)
        assert cold == warm
