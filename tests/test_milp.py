"""Tests for the throughput constraints, MIN_CYC and MAX_THR programs."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.configuration import RRConfiguration, RetimingVector
from repro.core.milp import MilpSettings, max_throughput, min_cycle_time
from repro.core.throughput import configuration_throughput_bound
from repro.gmg.lp_bound import throughput_upper_bound
from repro.lp.errors import InfeasibleError
from repro.retiming.leiserson_saxe import leiserson_saxe_min_period
from repro.workloads.examples import (
    figure1a_rrg,
    figure2_expected_throughput,
    figure2_rrg,
    unbalanced_fork_join,
)
from repro.workloads.random_rrg import random_rrg


class TestConfigurationThroughputBound:
    def test_agrees_with_tgmg_lp(self, figure1b):
        config = RRConfiguration.identity(figure1b)
        via_constraints = configuration_throughput_bound(config)
        via_tgmg = throughput_upper_bound(figure1b)
        assert via_constraints == pytest.approx(via_tgmg, abs=1e-6)

    def test_agrees_on_figure2(self, figure2):
        config = RRConfiguration.identity(figure2)
        assert configuration_throughput_bound(config) == pytest.approx(
            throughput_upper_bound(figure2), abs=1e-6
        )

    def test_retiming_invariance_of_the_bound(self):
        """The LP bound only depends on the buffer assignment, not on where
        retiming places the tokens (the property that keeps MAX_THR linear)."""
        base = figure1a_rrg(0.7)
        buffers = {0: 1, 1: 1, 2: 1, 3: 0, 4: 1, 5: 0}
        original = RRConfiguration(base, RetimingVector({}), buffers={
            0: 1, 1: 0, 2: 0, 3: 0, 4: 3, 5: 0,
        })
        retimed = RRConfiguration(
            base,
            RetimingVector({"m": -2, "F1": -2, "F2": -1}),
            buffers=buffers,
        )
        # Same buffer vector => same bound, regardless of token placement.
        # (The un-retimed graph cannot legally host this buffer vector, so the
        # reference value comes from the TGMG LP with overridden buffers.)
        reference = throughput_upper_bound(base, buffers=buffers)
        assert configuration_throughput_bound(retimed) == pytest.approx(
            reference, abs=1e-6
        )
        # Sanity: the identity configuration with its own buffers differs.
        assert configuration_throughput_bound(original) == pytest.approx(1.0)


class TestMinCyc:
    def test_x_equal_one_is_min_delay_retiming(self, figure1a):
        outcome = min_cycle_time(figure1a, x=1.0)
        assert outcome.cycle_time == pytest.approx(3.0)
        assert outcome.throughput_bound == pytest.approx(1.0)
        bound = configuration_throughput_bound(outcome.configuration)
        assert bound == pytest.approx(1.0, abs=1e-6)

    def test_relaxing_throughput_reduces_cycle_time(self, figure1a_hot):
        tight = min_cycle_time(figure1a_hot, x=1.0)
        relaxed = min_cycle_time(figure1a_hot, x=1.2)
        assert relaxed.cycle_time <= tight.cycle_time

    def test_invalid_x_rejected(self, figure1a):
        with pytest.raises(ValueError):
            min_cycle_time(figure1a, x=0.5)

    def test_configuration_is_valid(self, figure1a_hot):
        outcome = min_cycle_time(figure1a_hot, x=1.25)
        config = outcome.configuration
        for edge in figure1a_hot.edges:
            assert config.buffers(edge.index) >= max(config.tokens(edge.index), 0)

    def test_pure_backend_small_instance(self, two_node_loop):
        # The loop has one token on two edges: full throughput requires a
        # single buffer, which leaves one combinational edge, so the minimum
        # cycle time is the sum of both node delays.
        outcome = min_cycle_time(
            two_node_loop, x=1.0, settings=MilpSettings(backend="pure")
        )
        assert outcome.cycle_time == pytest.approx(5.0)

    @pytest.mark.parametrize("backend", ["pure", "scipy"])
    def test_x_equal_one_matches_leiserson_saxe_on_random_graphs(self, backend):
        # Without early evaluation MIN_CYC(1) is min-period retiming, so the
        # classic Leiserson-Saxe algorithm is an independent oracle.
        settings = MilpSettings(backend=backend)
        for seed in range(30):
            nodes = 3 + seed % 4
            rrg = random_rrg(nodes, nodes + 1 + seed % 3, seed=seed)
            rrg = rrg.as_late_evaluation()
            period, _ = leiserson_saxe_min_period(rrg)
            outcome = min_cycle_time(rrg, x=1.0, settings=settings)
            assert outcome.cycle_time == pytest.approx(period, abs=1e-6), seed


class TestMaxThr:
    def test_figure1a_at_unit_cycle_time_reaches_paper_optimum(self, figure1a_hot):
        outcome = max_throughput(figure1a_hot, tau=1.0)
        assert outcome.cycle_time <= 1.0 + 1e-9
        assert outcome.throughput_bound == pytest.approx(
            figure2_expected_throughput(0.9), abs=1e-6
        )
        # The optimal configuration uses anti-tokens on the rare input.
        assert outcome.configuration.has_antitokens

    def test_generous_budget_reaches_full_throughput(self, figure1a):
        outcome = max_throughput(figure1a, tau=figure1a.total_delay)
        assert outcome.throughput_bound == pytest.approx(1.0, abs=1e-6)

    def test_budget_below_max_delay_is_infeasible(self, figure1a):
        with pytest.raises(InfeasibleError):
            max_throughput(figure1a, tau=0.5)

    def test_cycle_time_respects_budget(self, fork_join):
        outcome = max_throughput(fork_join, tau=fork_join.max_delay)
        assert outcome.cycle_time <= fork_join.max_delay + 1e-9

    def test_throughput_bound_is_achievable_bound(self, figure1a_hot):
        outcome = max_throughput(figure1a_hot, tau=1.0)
        recomputed = configuration_throughput_bound(outcome.configuration)
        assert recomputed == pytest.approx(outcome.throughput_bound, abs=1e-6)


class TestEarlyEvaluationAdvantage:
    def test_early_evaluation_beats_late_on_fork_join(self):
        early = unbalanced_fork_join(alpha=0.85, long_branch_delay=8.0)
        late = early.as_late_evaluation()
        budget = early.max_delay
        early_outcome = max_throughput(early, tau=budget)
        late_outcome = max_throughput(late, tau=budget)
        assert early_outcome.throughput_bound > late_outcome.throughput_bound + 0.05


# ---------------------------------------------------------------------------
# The MILP decisions of the pure-backend Table 2 sweep, pinned.
#
# ``tests/golden/milp_sweep_decisions.json`` holds, for every MILP that the
# Table 2 sweep over s27, s208, s420, s382 and s400 (scale 0.2, epsilon 0.05)
# solves on the pure backend, its status, its objective and the rounded
# integer part of its point, in call order.  A change to the revised simplex
# or to branch and bound that is meant to leave every decision alone must
# reproduce them.  Branch and bound fathoms within half a unit of the
# buffer tie-break penalty, so the objectives no longer depend on the pivot
# path; they are compared to 1e-9 relative, since their last bits depend on
# the BLAS build.  The integer points are compared exactly, so they still
# assume a BLAS whose round-off breaks the pivot ties as the recording one
# did: where a MILP has exactly tied optima, another build may return a
# different optimal point with the same objective.  A deliberate change of
# the sweep's optima re-records the file, from the repository root, with
# ``PYTHONPATH=src python tests/test_milp.py``.

_SWEEP_GOLDEN = Path(__file__).parent / "golden" / "milp_sweep_decisions.json"
_SWEEP_NAMES = ["s27", "s208", "s420", "s382", "s400"]


def _sweep_decisions():
    from repro.experiments.table2 import run_table2
    from repro.lp.branch_and_bound import BranchAndBoundSolver

    decisions = []
    solve = BranchAndBoundSolver.solve
    signature = inspect.signature(solve)

    def recording(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        call = signature.bind(self, *args, **kwargs)
        mask = np.asarray(call.arguments["integer_mask"], dtype=bool)
        decisions.append({
            "status": result.status.name,
            "objective": result.objective,
            "integers": (
                None if result.x is None
                else [int(v) for v in np.round(result.x[mask])]
            ),
        })
        return result

    BranchAndBoundSolver.solve = recording
    try:
        run_table2(
            names=_SWEEP_NAMES, scale=0.2, epsilon=0.05, cycles=200, seed=2009,
            settings=MilpSettings(backend="pure", time_limit=None), shards=1,
        )
    finally:
        BranchAndBoundSolver.solve = solve
    return decisions


def test_pure_table2_sweep_milp_decisions_are_pinned():
    expected = json.loads(_SWEEP_GOLDEN.read_text())
    actual = _sweep_decisions()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got["status"] == want["status"], index
        if want["objective"] is None:
            assert got["objective"] is None, index
        else:
            assert got["objective"] == pytest.approx(
                want["objective"], rel=1e-9, abs=1e-12
            ), index
        assert got["integers"] == want["integers"], index


if __name__ == "__main__":
    _SWEEP_GOLDEN.write_text(json.dumps(_sweep_decisions()) + "\n")
