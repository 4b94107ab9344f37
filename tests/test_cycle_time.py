"""Tests for cycle-time analysis and the Lemma 2.1 constraint system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cycle_time import (
    CombinationalCycleError,
    critical_path,
    cycle_time,
    is_combinational_path,
    node_arrival_times,
    path_delay,
)
from repro.core.path_constraints import check_cycle_time_feasible
from repro.core.rrg import RRG
from repro.workloads.examples import linear_pipeline


class TestCycleTime:
    def test_figure1a_cycle_time_is_three(self, figure1a):
        assert cycle_time(figure1a) == pytest.approx(3.0)

    def test_figure1b_cycle_time_is_one(self, figure1b):
        assert cycle_time(figure1b) == pytest.approx(1.0)

    def test_figure2_cycle_time_is_one(self, figure2):
        assert cycle_time(figure2) == pytest.approx(1.0)

    def test_single_node_delay_lower_bound(self, pipeline):
        # Every edge carries a buffer, so the cycle time is the largest stage.
        assert cycle_time(pipeline) == pytest.approx(5.0)

    def test_buffer_override(self, figure1a):
        buffers = figure1a.buffer_vector()
        buffers[1] = 1  # break the F1 -> F2 combinational edge
        assert cycle_time(figure1a, buffers) == pytest.approx(2.0)

    def test_empty_graph(self):
        assert cycle_time(RRG("empty")) == 0.0

    def test_combinational_cycle_detected(self):
        rrg = RRG("loop")
        rrg.add_node("a", delay=1.0)
        rrg.add_node("b", delay=1.0)
        rrg.add_edge("a", "b", tokens=0, buffers=0)
        rrg.add_edge("b", "a", tokens=0, buffers=0)
        with pytest.raises(CombinationalCycleError):
            cycle_time(rrg)

    def test_arrival_times_monotone_along_paths(self, figure1a):
        arrival = node_arrival_times(figure1a)
        assert arrival["F1"] == pytest.approx(1.0)
        assert arrival["F3"] == pytest.approx(3.0)
        assert arrival["m"] == pytest.approx(3.0)


class TestCriticalPath:
    def test_figure1a_critical_path(self, figure1a):
        path = critical_path(figure1a)
        assert path.delay == pytest.approx(3.0)
        assert path.nodes[:3] == ["F1", "F2", "F3"]
        assert is_combinational_path(figure1a, path.nodes)
        assert path_delay(figure1a, path.nodes) == pytest.approx(path.delay)

    def test_empty_graph_critical_path(self):
        path = critical_path(RRG("empty"))
        assert path.nodes == []
        assert path.delay == 0.0

    def test_is_combinational_path_rejects_buffered_edges(self, figure1a):
        assert not is_combinational_path(figure1a, ["m", "F1"])
        assert not is_combinational_path(figure1a, ["F1", "F3"])  # no such edge


class TestPathConstraintsAgree:
    @pytest.mark.parametrize("slack", [0.0, 0.5, 5.0])
    def test_feasible_at_or_above_cycle_time(self, figure1a, slack):
        tau = cycle_time(figure1a)
        assert check_cycle_time_feasible(
            figure1a, figure1a.buffer_vector(), tau + slack
        )

    def test_infeasible_below_cycle_time(self, figure1a):
        tau = cycle_time(figure1a)
        assert not check_cycle_time_feasible(
            figure1a, figure1a.buffer_vector(), tau - 0.25
        )

    def test_agrees_on_pipeline(self, pipeline):
        tau = cycle_time(pipeline)
        buffers = pipeline.buffer_vector()
        assert check_cycle_time_feasible(pipeline, buffers, tau)
        assert not check_cycle_time_feasible(pipeline, buffers, tau - 0.1)

    @given(
        d1=st.floats(0.5, 6.0),
        d2=st.floats(0.5, 6.0),
        d3=st.floats(0.5, 6.0),
        break_edge=st.integers(0, 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_lemma21_matches_longest_path_on_random_rings(
        self, d1, d2, d3, break_edge
    ):
        """The LP feasibility of Lemma 2.1 agrees with the direct computation."""
        rrg = RRG("ring3")
        rrg.add_node("a", delay=d1)
        rrg.add_node("b", delay=d2)
        rrg.add_node("c", delay=d3)
        buffers = [0, 0, 0]
        buffers[break_edge] = 1
        tokens = list(buffers)
        rrg.add_edge("a", "b", tokens=tokens[0], buffers=buffers[0])
        rrg.add_edge("b", "c", tokens=tokens[1], buffers=buffers[1])
        rrg.add_edge("c", "a", tokens=tokens[2], buffers=buffers[2])
        tau = cycle_time(rrg)
        assert check_cycle_time_feasible(rrg, rrg.buffer_vector(), tau + 1e-6)
        assert not check_cycle_time_feasible(
            rrg, rrg.buffer_vector(), tau * 0.9 - 1e-3
        )


class TestLinearPipelineHelper:
    def test_pipeline_validation(self):
        with pytest.raises(ValueError):
            linear_pipeline(stages=1)
        with pytest.raises(ValueError):
            linear_pipeline(stages=3, delays=[1.0])

    def test_pipeline_cycle_time_with_defaults(self):
        pipe = linear_pipeline(stages=3)
        assert cycle_time(pipe) == pytest.approx(3.0)
