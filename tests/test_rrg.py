"""Unit tests for the RRG data model (Definition 2.1)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rrg import RRG, RRGError


class TestConstruction:
    def test_add_nodes_and_edges(self, two_node_loop):
        assert two_node_loop.num_nodes == 2
        assert two_node_loop.num_edges == 2
        assert two_node_loop.node("a").delay == 2.0

    def test_duplicate_node_rejected(self):
        rrg = RRG()
        rrg.add_node("a")
        with pytest.raises(RRGError):
            rrg.add_node("a")

    def test_unknown_endpoints_rejected(self):
        rrg = RRG()
        rrg.add_node("a")
        with pytest.raises(RRGError):
            rrg.add_edge("a", "missing")
        with pytest.raises(RRGError):
            rrg.add_edge("missing", "a")

    def test_negative_delay_rejected(self):
        rrg = RRG()
        with pytest.raises(RRGError):
            rrg.add_node("a", delay=-1.0)

    def test_buffers_default_to_tokens(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        edge = rrg.add_edge("a", "b", tokens=2)
        assert edge.buffers == 2
        anti = rrg.add_edge("a", "b", tokens=-1)
        assert anti.buffers == 0

    def test_buffers_below_tokens_rejected(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        with pytest.raises(RRGError):
            rrg.add_edge("a", "b", tokens=2, buffers=1)

    def test_negative_buffers_rejected(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        with pytest.raises(RRGError):
            rrg.add_edge("a", "b", tokens=-2, buffers=-1)

    def test_probability_range_validated(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        with pytest.raises(RRGError):
            rrg.add_edge("a", "b", probability=0.0)
        with pytest.raises(RRGError):
            rrg.add_edge("a", "b", probability=1.5)

    def test_parallel_edges_allowed(self, figure1a):
        assert len(figure1a.edges_between("f", "m")) == 2


class TestAccessors:
    def test_in_and_out_edges(self, figure1a):
        assert {e.dst for e in figure1a.out_edges("f")} == {"m"}
        assert len(figure1a.in_edges("m")) == 2
        with pytest.raises(RRGError):
            figure1a.in_edges("nope")

    def test_node_partitions(self, figure1a):
        assert {n.name for n in figure1a.early_nodes} == {"m"}
        assert len(figure1a.simple_nodes) == 4

    def test_delay_helpers(self, figure1a):
        assert figure1a.max_delay == 1.0
        assert figure1a.total_delay == pytest.approx(3.0)

    def test_token_and_buffer_vectors(self, figure1b):
        tokens = figure1b.token_vector()
        buffers = figure1b.buffer_vector()
        assert sum(tokens.values()) == 4
        assert sum(buffers.values()) == 6

    def test_iteration_and_repr(self, two_node_loop):
        names = [node.name for node in two_node_loop]
        assert names == ["a", "b"]
        assert "two-node" in repr(two_node_loop)


class TestStructureQueries:
    def test_strong_connectivity(self, figure1a, two_node_loop):
        assert nx.is_strongly_connected(figure1a.to_networkx())
        assert nx.is_strongly_connected(two_node_loop.to_networkx())
        dag = RRG("dag")
        dag.add_node("a")
        dag.add_node("b")
        dag.add_edge("a", "b", tokens=1)
        assert not nx.is_strongly_connected(dag.to_networkx())

    def test_simple_cycles_and_token_sums(self, figure1a):
        cycles = list(nx.simple_cycles(figure1a.to_networkx()))
        assert len(cycles) >= 1
        for cycle in cycles:
            assert figure1a.cycle_token_sum(cycle) >= 1

    def test_cycle_token_sum_missing_edge_raises(self, two_node_loop):
        with pytest.raises(RRGError):
            two_node_loop.cycle_token_sum(["a", "a"])

    def test_liveness_detection(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        rrg.add_edge("a", "b", tokens=0)
        rrg.add_edge("b", "a", tokens=0)
        assert not rrg.has_live_token_distribution()
        with pytest.raises(RRGError):
            rrg.validate()

    def test_to_networkx_preserves_attributes(self, figure1a):
        graph = figure1a.to_networkx()
        assert graph.number_of_nodes() == figure1a.num_nodes
        assert graph.number_of_edges() == figure1a.num_edges
        assert graph.nodes["m"]["early"]


class TestValidation:
    def test_valid_examples_pass(self, figure1a, figure1b, figure2, pipeline):
        for rrg in (figure1a, figure1b, figure2, pipeline):
            rrg.validate()

    def test_early_node_needs_two_inputs(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("mux", early=True)
        rrg.add_edge("a", "mux", tokens=1, probability=1.0)
        rrg.add_edge("mux", "a", tokens=0)
        with pytest.raises(RRGError):
            rrg.validate()

    def test_early_node_needs_probabilities(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        rrg.add_node("mux", early=True)
        rrg.add_edge("a", "mux", tokens=1)
        rrg.add_edge("b", "mux", tokens=1)
        rrg.add_edge("mux", "a", tokens=0)
        rrg.add_edge("mux", "b", tokens=0)
        with pytest.raises(RRGError):
            rrg.validate()

    def test_probabilities_must_sum_to_one(self):
        rrg = RRG()
        rrg.add_node("a")
        rrg.add_node("b")
        rrg.add_node("mux", early=True)
        rrg.add_edge("a", "mux", tokens=1, probability=0.3)
        rrg.add_edge("b", "mux", tokens=1, probability=0.3)
        rrg.add_edge("mux", "a", tokens=0)
        rrg.add_edge("mux", "b", tokens=0)
        with pytest.raises(RRGError):
            rrg.validate()


class TestCopiesAndSerialization:
    def test_copy_is_deep(self, figure1a):
        clone = figure1a.copy()
        clone.edge(0).tokens = 99
        assert figure1a.edge(0).tokens != 99

    def test_with_assignment(self, figure1a):
        updated = figure1a.with_assignment({0: 0}, {0: 2})
        assert updated.edge(0).tokens == 0
        assert updated.edge(0).buffers == 2
        # other edges untouched
        assert updated.edge(4).tokens == figure1a.edge(4).tokens

    def test_as_late_evaluation(self, figure1a):
        late = figure1a.as_late_evaluation()
        assert not late.early_nodes
        assert all(e.probability is None for e in late.edges)
        late.validate()

    def test_json_round_trip(self, figure2):
        text = figure2.to_json()
        rebuilt = RRG.from_json(text)
        assert rebuilt.num_nodes == figure2.num_nodes
        assert rebuilt.num_edges == figure2.num_edges
        assert rebuilt.node("m").early
        assert rebuilt.edge(5).tokens == -2
        rebuilt.validate()

    @given(tokens=st.integers(0, 3), extra=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_preserves_vectors(self, tokens, extra):
        rrg = RRG("prop")
        rrg.add_node("a", delay=1.5)
        rrg.add_node("b", delay=2.5)
        rrg.add_edge("a", "b", tokens=tokens, buffers=tokens + extra)
        rrg.add_edge("b", "a", tokens=1, buffers=1)
        rebuilt = RRG.from_dict(rrg.to_dict())
        assert rebuilt.token_vector() == rrg.token_vector()
        assert rebuilt.buffer_vector() == rrg.buffer_vector()
