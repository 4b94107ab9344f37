"""The in-repo graph routines against networkx, the test-only oracle.

:mod:`repro.core.graphs` answers each graph question of the paper once:
the longest combinational path (Definitions 2.2–2.3), negative cycles
(liveness with anti-tokens, Definition 2.1, and Leiserson–Saxe retiming) and
the terminal class of the Markov chain.  Every property below compares the
routine, or its public caller, with an independent networkx computation on
generated graphs.  networkx itself must never load at run time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
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
from repro.core.graphs import bellman_ford, terminal_class
from repro.core.rrg import RRG
from repro.workloads.random_rrg import random_rrg

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def rrgs_with_overrides(draw):
    """A random RRG and a buffer override (``None``, partial or full)."""
    num_nodes = draw(st.integers(min_value=2, max_value=9))
    num_edges = draw(st.integers(min_value=num_nodes, max_value=3 * num_nodes))
    rrg = random_rrg(num_nodes, num_edges, seed=draw(st.integers(0, 10_000)))
    override = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.integers(0, num_edges - 1),
                st.sampled_from([0, 0, 0, 1, 2]),
                max_size=num_edges,
            ),
        )
    )
    return rrg, override


def oracle_arrivals(rrg, buffers):
    """Arrival times from a networkx topological sort, or None on a cycle."""
    graph = nx.DiGraph()
    graph.add_nodes_from(rrg.node_names)
    for edge in rrg.edges:
        count = (buffers or {}).get(edge.index, edge.buffers)
        if count == 0:
            graph.add_edge(edge.src, edge.dst)
    try:
        order = list(nx.topological_sort(graph))
    except nx.NetworkXUnfeasible:
        return None
    arrival = {}
    for name in order:
        incoming = [arrival[pred] for pred in graph.predecessors(name)]
        arrival[name] = rrg.delay(name) + (max(incoming) if incoming else 0.0)
    return arrival


class TestCycleTimeOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=rrgs_with_overrides())
    def test_arrivals_and_cycle_time_equal_a_topological_sort(self, case):
        rrg, buffers = case
        expected = oracle_arrivals(rrg, buffers)
        if expected is None:
            with pytest.raises(CombinationalCycleError):
                node_arrival_times(rrg, buffers)
            with pytest.raises(CombinationalCycleError):
                cycle_time(rrg, buffers)
            return
        assert node_arrival_times(rrg, buffers) == expected
        assert cycle_time(rrg, buffers) == max(expected.values())

    @settings(max_examples=100, deadline=None)
    @given(case=rrgs_with_overrides())
    def test_critical_path_is_a_combinational_path_of_delay_tau(self, case):
        rrg, buffers = case
        if oracle_arrivals(rrg, buffers) is None:
            return
        path = critical_path(rrg, buffers)
        tau = cycle_time(rrg, buffers)
        assert path.delay == tau
        assert is_combinational_path(rrg, path.nodes, buffers)
        slack = 1e-9 * len(path.nodes)
        assert path_delay(rrg, path.nodes) == pytest.approx(tau, abs=slack)


@st.composite
def token_graphs(draw):
    """A small multigraph whose edges may carry anti-tokens (R0 < 0)."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    rrg = RRG("tokens")
    for i in range(num_nodes):
        rrg.add_node(f"n{i}")
    node = st.integers(0, num_nodes - 1)
    low = draw(st.sampled_from([-2, 0]))
    for src, dst, tokens in draw(
        st.lists(st.tuples(node, node, st.integers(low, 2)), min_size=1, max_size=12)
    ):
        rrg.add_edge(f"n{src}", f"n{dst}", tokens=tokens, buffers=max(tokens, 0))
    return rrg


def oracle_live(rrg):
    """No cycle of the token-shifted weights is negative (networkx)."""
    shift = 1.0 / (rrg.num_edges + 1)
    graph = nx.DiGraph()
    graph.add_nodes_from(rrg.node_names)
    for edge in rrg.edges:
        weight = edge.tokens - shift
        if graph.has_edge(edge.src, edge.dst):
            weight = min(weight, graph[edge.src][edge.dst]["weight"])
        graph.add_edge(edge.src, edge.dst, weight=weight)
    return not nx.negative_edge_cycle(graph, weight="weight")


class TestLivenessOracle:
    @settings(max_examples=200, deadline=None)
    @given(rrg=token_graphs())
    def test_liveness_agrees_with_negative_edge_cycle(self, rrg):
        assert rrg.has_live_token_distribution() == oracle_live(rrg)

    def test_anti_token_cycle_is_live_only_with_a_positive_sum(self):
        rrg = RRG("anti")
        for name in "ab":
            rrg.add_node(name)
        rrg.add_edge("a", "b", tokens=-1, buffers=0)
        back = rrg.add_edge("b", "a", tokens=1, buffers=1)
        assert not rrg.has_live_token_distribution()
        back.tokens = back.buffers = 2
        assert rrg.has_live_token_distribution()


@st.composite
def weighted_arcs(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=7))
    node = st.integers(0, num_nodes - 1)
    arcs = draw(st.lists(st.tuples(node, node, st.integers(-3, 5)), max_size=16))
    return num_nodes, arcs


class TestBellmanFordOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=weighted_arcs())
    def test_distances_from_a_virtual_source_equal_networkx(self, case):
        num_nodes, arcs = case
        graph = nx.DiGraph()
        graph.add_nodes_from(range(num_nodes))
        for src, dst, weight in arcs:
            if graph.has_edge(src, dst):
                weight = min(weight, graph[src][dst]["weight"])
            graph.add_edge(src, dst, weight=weight)
        graph.add_edges_from((("source", v) for v in range(num_nodes)), weight=0)
        dist = bellman_ford(num_nodes, arcs)
        if nx.negative_edge_cycle(graph):
            assert dist is None
            return
        expected = nx.single_source_bellman_ford_path_length(graph, "source")
        assert dist == [expected[v] for v in range(num_nodes)]


@st.composite
def chains(draw):
    """Transitions of a random chain: every state has one to three successors,
    and about a quarter of the states are absorbing, so a start state often
    reaches several terminal classes."""
    num_states = draw(st.integers(min_value=1, max_value=12))
    state = st.integers(0, num_states - 1)
    transitions = []
    for i in range(num_states):
        absorbing = draw(st.integers(0, 3)) == 0
        targets = [i] if absorbing else draw(
            st.lists(state, min_size=1, max_size=3, unique=True)
        )
        transitions += [(i, j, 1.0 / len(targets)) for j in targets]
    return num_states, transitions, draw(state)


def oracle_terminal_class(num_states, transitions, start):
    """The SCC-condensation answer: the reachable sink with the lowest state."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(num_states))
    graph.add_edges_from((i, j) for i, j, _ in transitions)
    condensed = nx.condensation(graph)
    reachable = {start} | nx.descendants(graph, start)
    sinks = [
        sorted(condensed.nodes[c]["members"])
        for c in condensed
        if condensed.out_degree(c) == 0 and condensed.nodes[c]["members"] & reachable
    ]
    return min(sinks)


class TestTerminalClassOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=chains())
    def test_terminal_class_equals_the_condensation(self, case):
        assert terminal_class(*case) == oracle_terminal_class(*case)

    def test_several_terminal_classes_pick_the_lowest_state(self):
        # 0 branches to the absorbing pair {3, 4} and the absorbing state 2;
        # state 1 is absorbing but unreachable from 0.
        transitions = [
            (0, 3, 0.5), (0, 2, 0.5), (3, 4, 1.0), (4, 3, 1.0), (2, 2, 1.0),
            (1, 1, 1.0),
        ]
        assert terminal_class(5, transitions, 0) == [2]
        assert terminal_class(5, transitions, 3) == [3, 4]

    def test_long_chain_needs_no_recursion(self):
        size = 5 * sys.getrecursionlimit()
        transitions = [(i, i + 1, 1.0) for i in range(size - 1)]
        transitions.append((size - 1, size - 2, 1.0))
        assert terminal_class(size, transitions, 0) == [size - 2, size - 1]


RUNTIME_SCRIPT = """
import json, sys
import repro
from repro.cli import main
from repro.core.milp import MilpSettings
from repro.experiments.table2 import run_table2
from repro.gmg.markov import exact_throughput
from repro.workloads.examples import figure2_rrg

main(["run", "large-scale", "--size", "tiny", "--time-budget", "1", "--quiet",
      "--output", sys.argv[1]])
rows = run_table2(scale=0.15, names=["s27"], epsilon=0.1, cycles=1500,
                  settings=MilpSettings(backend="pure"))
theta = exact_throughput(figure2_rrg(0.5)).throughput
print(json.dumps({
    "rows": len(rows),
    "theta": theta,
    "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
}))
"""


def test_networkx_never_loads_at_run_time(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT, str(tmp_path / "large-scale.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["rows"] == 1
    assert report["theta"] == pytest.approx(0.5)
    assert report["networkx"] == []
