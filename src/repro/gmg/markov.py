"""Exact throughput of small TGMGs via the reachable-state Markov chain.

The synchronous semantics of :mod:`repro.gmg.simulation` defines a discrete
time Markov chain whose state collects, for every edge, its current marking,
for every delayed node, the ages of its in-flight firings, and for every
early-evaluation node, its pending guard choice.  For small systems — such as
the motivational example of the paper (Figures 1 and 2) — the reachable state
space can be enumerated and the stationary distribution solved exactly, which
yields the exact throughput the paper derives analytically (for example
``1 / (3 - 2 * alpha)`` for the optimised configuration of Figure 2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.configuration import RRConfiguration
from repro.core.graphs import terminal_class
from repro.core.rrg import RRG
from repro.gmg.build import build_tgmg
from repro.gmg.graph import TGMG, GMGError


class StateSpaceError(Exception):
    """Raised when the reachable state space exceeds the configured limit."""


@dataclass
class MarkovResult:
    """Exact steady-state performance of a TGMG.

    Attributes:
        throughput: Exact steady-state firing rate (identical for all nodes).
        num_states: Size of the recurrent class the chain settles in.
        rates: Per-node stationary firing rates (all equal up to numerical
            tolerance; exposed for diagnostics).
    """

    throughput: float
    num_states: int
    rates: Dict[str, float]


# A state is (markings, in-flight tuples, pending guards); all components are
# tuples so states are hashable dictionary keys.
State = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...], Tuple[int, ...]]


class MarkovChainAnalyzer:
    """Enumerate the reachable synchronous behaviour of a TGMG exactly."""

    def __init__(self, tgmg: TGMG, max_states: int = 200000) -> None:
        tgmg.validate()
        self.tgmg = tgmg
        self.max_states = max_states
        self._node_names = [n.name for n in tgmg.nodes]
        self._delays = {n.name: int(round(n.delay)) for n in tgmg.nodes}
        for node in tgmg.nodes:
            if abs(node.delay - round(node.delay)) > 1e-9:
                raise GMGError(
                    f"node {node.name!r} has non-integer delay {node.delay}"
                )
        self._delayed_nodes = [n for n in self._node_names if self._delays[n] >= 1]
        self._early_nodes = [n.name for n in tgmg.early_nodes]
        self._in_edges = {n: tgmg.in_edges(n) for n in self._node_names}
        self._out_edges = {n: tgmg.out_edges(n) for n in self._node_names}
        self._edge_count = tgmg.num_edges

    # -- state helpers ---------------------------------------------------------

    def initial_state(self) -> State:
        markings = tuple(e.marking for e in self.tgmg.edges)
        inflight = tuple(
            tuple(0 for _ in range(self._delays[name])) for name in self._delayed_nodes
        )
        guards = tuple(-1 for _ in self._early_nodes)
        return (markings, inflight, guards)

    def _guard_options(self, state: State) -> List[Tuple[Tuple[int, ...], float]]:
        """All assignments of guards to early nodes lacking one, with probabilities."""
        _, _, guards = state
        choices: List[List[Tuple[int, float]]] = []
        for position, name in enumerate(self._early_nodes):
            if guards[position] >= 0:
                choices.append([(guards[position], 1.0)])
            else:
                incoming = self._in_edges[name]
                choices.append([(e.index, e.probability) for e in incoming])
        options: List[Tuple[Tuple[int, ...], float]] = []
        for combo in itertools.product(*choices) if choices else [()]:
            assignment = tuple(index for index, _ in combo)
            probability = 1.0
            for _, p in combo:
                probability *= p
            options.append((assignment, probability))
        return options

    def _step(
        self, state: State, guard_assignment: Tuple[int, ...]
    ) -> Tuple[State, Tuple[str, ...]]:
        """Advance one cycle deterministically given the guard assignment."""
        markings = list(state[0])
        inflight = state[1]

        # 1. Arrivals: firings whose full delay has elapsed deliver tokens.
        for slot, name in enumerate(self._delayed_nodes):
            register = inflight[slot]
            if register and register[-1]:
                count = register[-1]
                for edge in self._out_edges[name]:
                    markings[edge.index] += count

        # 2. Firing fixpoint, one firing per node at most.
        fired: List[str] = []
        fired_set = set()
        guard_of = dict(zip(self._early_nodes, guard_assignment))
        changed = True
        while changed:
            changed = False
            for name in self._node_names:
                if name in fired_set:
                    continue
                incoming = self._in_edges[name]
                if name in guard_of:
                    if markings[guard_of[name]] < 1:
                        continue
                else:
                    if any(markings[e.index] < 1 for e in incoming):
                        continue
                for edge in incoming:
                    markings[edge.index] -= 1
                if self._delays[name] == 0:
                    for edge in self._out_edges[name]:
                        markings[edge.index] += 1
                fired.append(name)
                fired_set.add(name)
                changed = True

        # 3. Shift the in-flight registers and record this cycle's firings.
        # Rebuilt by tuple slicing (one C-level copy) instead of the old
        # list pop()/insert(0, ...) churn, which shifted every element of a
        # depth-d register through Python on every cycle.
        new_inflight = tuple(
            ((1 if name in fired_set else 0),) + inflight[slot][:-1]
            for slot, name in enumerate(self._delayed_nodes)
        )

        # 4. Early nodes keep their guard while stalled, clear it when fired.
        new_guards = []
        for position, name in enumerate(self._early_nodes):
            if name in fired_set:
                new_guards.append(-1)
            else:
                new_guards.append(guard_assignment[position])

        new_state: State = (
            tuple(markings),
            new_inflight,
            tuple(new_guards),
        )
        return new_state, tuple(fired)

    # -- chain construction and solution -------------------------------------------

    def analyze(self) -> MarkovResult:
        """Build the reachable chain, solve the stationary distribution exactly.

        The chain settles in the terminal class reachable from the initial
        state (:func:`repro.core.graphs.terminal_class`); its stationary
        distribution is a dense least-squares solve, fine for the small
        chains this analyser targets.
        """
        index_of: Dict[State, int] = {}
        states: List[State] = []
        transitions: List[Tuple[int, int, float]] = []
        reward_rows: List[Dict[str, float]] = []

        def intern(state: State) -> int:
            if state not in index_of:
                if len(states) >= self.max_states:
                    raise StateSpaceError(
                        f"reachable state space exceeds {self.max_states} states"
                    )
                index_of[state] = len(states)
                states.append(state)
                reward_rows.append({})
            return index_of[state]

        start = intern(self.initial_state())
        frontier = [start]
        explored = set()
        while frontier:
            current = frontier.pop()
            if current in explored:
                continue
            explored.add(current)
            state = states[current]
            rewards: Dict[str, float] = {}
            for assignment, probability in self._guard_options(state):
                next_state, fired = self._step(state, assignment)
                target = intern(next_state)
                transitions.append((current, target, probability))
                for name in fired:
                    rewards[name] = rewards.get(name, 0.0) + probability
                if target not in explored:
                    frontier.append(target)
            reward_rows[current] = rewards

        recurrent = terminal_class(len(states), transitions, start)
        distribution = _stationary_distribution_dense(transitions, recurrent)

        rates: Dict[str, float] = {name: 0.0 for name in self._node_names}
        for local_index, state_index in enumerate(recurrent):
            weight = distribution[local_index]
            for name, reward in reward_rows[state_index].items():
                rates[name] += weight * reward

        throughput = float(np.median(np.array(list(rates.values()))))
        return MarkovResult(
            throughput=throughput, num_states=len(recurrent), rates=rates
        )


def _stationary_distribution_dense(
    transitions: List[Tuple[int, int, float]], recurrent: List[int]
) -> np.ndarray:
    """Solve pi P = pi restricted to the recurrent class."""
    local = {state: position for position, state in enumerate(recurrent)}
    size = len(recurrent)
    sub = np.zeros((size, size))
    for i, j, probability in transitions:
        if i in local and j in local:
            sub[local[i], local[j]] += probability
    system = np.vstack([sub.T - np.eye(size), np.ones((1, size))])
    rhs = np.zeros(size + 1)
    rhs[-1] = 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    solution = np.clip(solution, 0.0, None)
    total = solution.sum()
    if total <= 0:
        raise StateSpaceError("failed to solve the stationary distribution")
    return solution / total


def exact_throughput(
    source: Union[RRG, RRConfiguration, TGMG],
    tokens: Optional[Mapping[int, int]] = None,
    buffers: Optional[Mapping[int, int]] = None,
    max_states: int = 200000,
) -> MarkovResult:
    """Exact throughput of a small RRG, configuration or TGMG.

    Raises:
        StateSpaceError: when the reachable state space exceeds ``max_states``.
    """
    if isinstance(source, TGMG):
        tgmg = source
    else:
        tgmg = build_tgmg(source, tokens=tokens, buffers=buffers, refine=True)
    analyzer = MarkovChainAnalyzer(tgmg, max_states=max_states)
    return analyzer.analyze()
