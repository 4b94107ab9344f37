"""Tests for the example graphs and the random benchmark generators."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cycle_time import cycle_time
from repro.workloads.examples import (
    figure1a_rrg,
    figure1b_rrg,
    figure2_rrg,
    linear_pipeline,
    ring_rrg,
    unbalanced_fork_join,
)
from repro.workloads.iscas_like import (
    SPEC_BY_NAME,
    TABLE2_SPECS,
    ISCASLikeSpec,
    iscas_like_rrg,
    scaled_spec,
    table2_benchmark_suite,
)
from repro.workloads.random_rrg import (
    RandomRRGConfig,
    random_rrg,
    random_structure,
    randomize_rrg,
)


class TestExamples:
    def test_figure_variants_validate(self):
        for alpha in (0.1, 0.5, 0.9):
            figure1a_rrg(alpha).validate()
            figure1b_rrg(alpha).validate()
            figure2_rrg(alpha).validate()

    def test_alpha_range_enforced(self):
        for alpha in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                figure1a_rrg(alpha)

    def test_paper_cycle_times(self):
        assert cycle_time(figure1a_rrg(0.5)) == pytest.approx(3.0)
        assert cycle_time(figure1b_rrg(0.5)) == pytest.approx(1.0)
        assert cycle_time(figure2_rrg(0.5)) == pytest.approx(1.0)

    def test_figure_token_invariants(self):
        """Top cycle holds 4 tokens and bottom cycle 1 in every variant."""
        for builder in (figure1a_rrg, figure1b_rrg, figure2_rrg):
            rrg = builder(0.5)
            tokens = rrg.token_vector()
            top = tokens[0] + tokens[1] + tokens[2] + tokens[3] + tokens[4]
            bottom = tokens[0] + tokens[1] + tokens[2] + tokens[3] + tokens[5]
            assert top == 4
            assert bottom == 1

    def test_ring_and_pipeline_validation(self):
        with pytest.raises(ValueError):
            ring_rrg(length=1)
        with pytest.raises(ValueError):
            ring_rrg(length=4, total_tokens=0)
        ring_rrg(length=4, total_tokens=4).validate()
        linear_pipeline(stages=3).validate()

    def test_fork_join_structure(self):
        rrg = unbalanced_fork_join(alpha=0.7)
        rrg.validate()
        assert {n.name for n in rrg.early_nodes} == {"join"}


class TestRandomGeneration:
    def test_random_structure_sizes(self):
        edges = random_structure(10, 25, seed=1)
        assert len(edges) == 25
        nodes = {n for edge in edges for n in edge}
        assert len(nodes) == 10

    def test_random_structure_validation(self):
        with pytest.raises(ValueError):
            random_structure(1, 5)
        with pytest.raises(ValueError):
            random_structure(5, 3)

    def test_random_rrg_is_live_and_strongly_connected(self):
        for seed in range(5):
            rrg = random_rrg(12, 30, seed=seed)
            rrg.validate()
            assert nx.is_strongly_connected(rrg.to_networkx())

    def test_random_rrg_is_reproducible(self):
        a = random_rrg(10, 22, seed=7)
        b = random_rrg(10, 22, seed=7)
        assert a.to_dict() == b.to_dict()

    def test_randomize_respects_config(self):
        config = RandomRRGConfig(
            token_probability=1.0, delay_high=5.0, early_probability=0.0
        )
        structure = random_structure(8, 16, seed=3)
        rrg = randomize_rrg(structure, config=config, seed=3)
        assert all(edge.tokens >= 1 for edge in rrg.edges)
        assert not rrg.early_nodes
        assert all(node.delay <= 5.0 for node in rrg.nodes)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_generated_graphs_always_live(self, seed):
        rrg = random_rrg(8, 20, seed=seed)
        assert rrg.has_live_token_distribution()
        for cycle in itertools.islice(nx.simple_cycles(rrg.to_networkx()), 50):
            assert rrg.cycle_token_sum(cycle) >= 1


class TestIscasLike:
    def test_spec_table_matches_paper_row_count(self):
        assert len(TABLE2_SPECS) == 18
        assert SPEC_BY_NAME["s526"].simple_nodes == 43
        assert SPEC_BY_NAME["s526"].early_nodes == 7
        assert SPEC_BY_NAME["s526"].edges == 71
        assert SPEC_BY_NAME["s953"].total_nodes == 268

    def test_generated_graph_matches_spec_sizes(self):
        spec = SPEC_BY_NAME["s27"]
        rrg = iscas_like_rrg(spec, seed=0)
        assert len(rrg.simple_nodes) == spec.simple_nodes
        assert len(rrg.early_nodes) == spec.early_nodes
        assert rrg.num_edges == spec.edges
        rrg.validate()
        assert nx.is_strongly_connected(rrg.to_networkx())

    def test_scaled_spec_shrinks_but_keeps_feasibility(self):
        spec = SPEC_BY_NAME["s1488"]
        small = scaled_spec(spec, 0.2)
        assert small.total_nodes < spec.total_nodes
        rrg = iscas_like_rrg(small, seed=1)
        rrg.validate()

    def test_scaled_spec_validation(self):
        spec = TABLE2_SPECS[0]
        with pytest.raises(ValueError):
            scaled_spec(spec, 0.0)
        assert scaled_spec(spec, 1.0) is spec

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            iscas_like_rrg(ISCASLikeSpec("tiny", 2, 2, 4), seed=0)

    def test_suite_generation_subset(self):
        suite = table2_benchmark_suite(scale=0.2, names=["s27", "s208"])
        assert set(suite) == {"s27", "s208"}
        for rrg in suite.values():
            rrg.validate()

    def test_reproducible_suite(self):
        a = table2_benchmark_suite(scale=0.2, names=["s27"], seed=5)["s27"]
        b = table2_benchmark_suite(scale=0.2, names=["s27"], seed=5)["s27"]
        assert a.to_dict() == b.to_dict()
