"""Tests for retiming vectors, configurations and elementary transformations."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configuration import RRConfiguration, RetimingVector
from repro.core.rrg import RRGError
from repro.core.transformations import (
    apply_retiming,
    insert_bubble,
    remove_bubble,
    retime_node,
)
from repro.workloads.examples import figure1a_rrg, figure2_rrg


class TestRetimingVector:
    def test_default_lag_is_zero(self):
        vector = RetimingVector({"a": 2})
        assert vector.lag("a") == 2
        assert vector.lag("other") == 0

    def test_shifted_tokens(self, two_node_loop):
        vector = RetimingVector({"a": 1})
        shifted = vector.shifted_tokens(two_node_loop)
        # edge 0: a -> b loses a token source side, edge 1: b -> a gains one.
        assert shifted[0] == two_node_loop.edge(0).tokens - 1
        assert shifted[1] == two_node_loop.edge(1).tokens + 1

    def test_normalized_shifts_minimum_to_zero(self):
        vector = RetimingVector({"a": -3, "b": -1}).normalized()
        assert min(vector.lags.values()) == 0
        assert vector.lag("a") == 0
        assert vector.lag("b") == 2

    def test_addition(self):
        total = RetimingVector({"a": 1}) + RetimingVector({"a": 2, "b": -1})
        assert total.lag("a") == 3
        assert total.lag("b") == -1

    @given(lag_a=st.integers(-3, 3), lag_b=st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_cycle_token_sums_are_invariant(self, lag_a, lag_b):
        """Retiming preserves the token count of every directed cycle."""
        rrg = figure1a_rrg(0.5)
        vector = RetimingVector({"F1": lag_a, "F2": lag_b})
        shifted = vector.shifted_tokens(rrg)
        for cycle in nx.simple_cycles(rrg.to_networkx()):
            original = rrg.cycle_token_sum(cycle)
            new_total = 0
            for i, src in enumerate(cycle):
                dst = cycle[(i + 1) % len(cycle)]
                edges = rrg.edges_between(src, dst)
                new_total += min(shifted[e.index] for e in edges)
            assert new_total == original


class TestRRConfiguration:
    def test_identity_matches_base(self, figure1b):
        config = RRConfiguration.identity(figure1b)
        assert config.token_vector() == figure1b.token_vector()
        assert config.buffer_vector() == figure1b.buffer_vector()
        assert config.cycle_time() == pytest.approx(1.0)

    def test_default_buffers_cover_tokens(self, figure1a):
        config = RRConfiguration(figure1a, RetimingVector({"F1": -1}))
        for edge in figure1a.edges:
            assert config.buffers(edge.index) >= max(config.tokens(edge.index), 0)

    def test_invalid_buffers_rejected(self, figure1a):
        with pytest.raises(RRGError):
            RRConfiguration(figure1a, buffers={e.index: 0 for e in figure1a.edges})

    def test_figure2_reachable_from_figure1a(self):
        """The retiming vector quoted in the paper maps Fig. 1(a) to Fig. 2."""
        base = figure1a_rrg(0.5)
        target = figure2_rrg(0.5)
        vector = RetimingVector({"m": -2, "F1": -2, "F2": -1, "F3": 0, "f": 0})
        config = RRConfiguration(
            base, vector, buffers={0: 1, 1: 1, 2: 1, 3: 0, 4: 1, 5: 0}
        )
        assert config.token_vector() == target.token_vector()
        assert config.buffer_vector() == target.buffer_vector()
        assert config.has_antitokens

    def test_bubble_counting(self, figure1b):
        config = RRConfiguration.identity(figure1b)
        assert config.total_bubbles == 2
        assert config.bubbles(2) == 1
        assert config.bubbles(5) == 1

    def test_as_rrg_round_trip(self, figure1b):
        config = RRConfiguration.identity(figure1b)
        materialised = config.as_rrg()
        assert materialised.token_vector() == config.token_vector()
        materialised.validate()

    def test_same_assignment(self, figure1b):
        a = RRConfiguration.identity(figure1b)
        b = RRConfiguration.identity(figure1b)
        assert a.same_assignment(b)
        c = insert_bubble(a, 0)
        assert not a.same_assignment(c)


class TestTransformations:
    def test_retime_node_moves_buffers(self, figure1a):
        config = RRConfiguration.identity(figure1a)
        # A lag of -1 on F1 moves the EB from its input (m->F1, index 0) to
        # its output (F1->F2, index 1) - the retiming move used in the paper.
        moved = retime_node(config, "F1", -1)
        assert moved.buffers(0) == 0
        assert moved.tokens(0) == 0
        assert moved.buffers(1) == 1
        assert moved.tokens(1) == 1

    def test_retime_node_rejects_illegal_move(self, figure1a):
        config = RRConfiguration.identity(figure1a)
        with pytest.raises(RRGError):
            # A lag of +1 would need a buffer on F1's output edge, which has
            # none in Figure 1(a).
            retime_node(config, "F1", 1)

    def test_insert_and_remove_bubble(self, figure1a):
        config = RRConfiguration.identity(figure1a)
        bubbled = insert_bubble(config, 1, count=2)
        assert bubbled.bubbles(1) == 2
        restored = remove_bubble(bubbled, 1, count=2)
        assert restored.bubbles(1) == 0

    def test_remove_bubble_more_than_present_raises(self, figure1a):
        config = RRConfiguration.identity(figure1a)
        with pytest.raises(RRGError):
            remove_bubble(config, 1, count=1)

    def test_negative_counts_rejected(self, figure1a):
        config = RRConfiguration.identity(figure1a)
        with pytest.raises(ValueError):
            insert_bubble(config, 1, count=-1)
        with pytest.raises(ValueError):
            remove_bubble(config, 1, count=-1)

    def test_apply_retiming_paper_vector(self):
        base = figure1a_rrg(0.5)
        config = apply_retiming(base, {"m": -2, "F1": -2, "F2": -1})
        assert config.tokens(5) == -2
        assert config.buffers(5) == 0
        # Recycling on top of the retiming recovers the Figure 2 cycle time.
        assert config.cycle_time() <= 3.0
