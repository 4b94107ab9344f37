"""Property tests of the local-search moves over random RRGs.

Every move :meth:`SearchState.can_apply` accepts must be exactly undone by
:meth:`SearchState.revert`, and must keep the token sum of every simple
cycle of the graph (retiming shifts registers along a cycle, bubbles do not
touch tokens), which is what keeps each candidate live.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.search.state import BUBBLE, RETIME, Move, SearchState
from repro.workloads.random_rrg import random_rrg


@st.composite
def states(draw):
    """A random RRG of at most 8 nodes, walked by a few legal moves."""
    num_nodes = draw(st.integers(min_value=2, max_value=8))
    num_edges = draw(st.integers(min_value=num_nodes, max_value=2 * num_nodes))
    rrg = random_rrg(
        num_nodes, num_edges, seed=draw(st.integers(min_value=0, max_value=10_000))
    )
    state = SearchState(rrg)
    for move in draw(st.lists(st.sampled_from(all_moves(state)), max_size=6)):
        if state.can_apply(move):
            state.apply(move)
    return state


def all_moves(state):
    return [
        Move(kind, target, delta)
        for kind, count in (
            (RETIME, len(state.lags)), (BUBBLE, len(state.buffers))
        )
        for target in range(count)
        for delta in (1, -1)
    ]


def simple_cycles(state):
    """Every simple cycle as a list of edge indices.

    Each edge becomes its own graph node between its endpoints, so parallel
    edges and self-loops give distinct cycles.
    """
    graph = nx.DiGraph()
    for edge, (src, dst) in enumerate(zip(state.edge_src, state.edge_dst)):
        graph.add_edge(("node", src), ("edge", edge))
        graph.add_edge(("edge", edge), ("node", dst))
    return [
        [index for kind, index in cycle if kind == "edge"]
        for cycle in nx.simple_cycles(graph)
    ]


@settings(max_examples=60, deadline=None)
@given(state=states())
def test_apply_then_revert_restores_the_signature(state):
    before = state.signature()
    lags = list(state.lags)
    for move in all_moves(state):
        if state.can_apply(move):
            state.apply(move)
            state.revert(move)
            assert state.signature() == before, move
            assert state.lags == lags, move


@settings(max_examples=60, deadline=None)
@given(state=states())
def test_moves_keep_every_cycle_token_sum(state):
    cycles = simple_cycles(state)
    assert cycles, "a strongly connected graph has a cycle"
    sums = [sum(state.tokens[edge] for edge in cycle) for cycle in cycles]
    for move in all_moves(state):
        if not state.can_apply(move):
            continue
        state.apply(move)
        assert [
            sum(state.tokens[edge] for edge in cycle) for cycle in cycles
        ] == sums, move
        state.revert(move)
