"""Leiserson-Saxe minimum-period retiming.

This is the classical algorithm for synchronous circuits (Algorithmica 1991),
implemented independently of the MILP machinery so the two can cross-check
each other:

* ``W(u, v)`` — minimum register count over all paths from ``u`` to ``v``;
* ``D(u, v)`` — maximum path delay over the minimum-register paths;
* a candidate clock period ``c`` is feasible iff the constraint system
  ``r(u) - r(v) <= w(e)`` for every edge and ``r(u) - r(v) <= W(u, v) - 1``
  for every pair with ``D(u, v) > c`` has an integer solution, which is a
  shortest-path (Bellman-Ford) problem;
* the minimum period is found by binary search over the distinct values of
  ``D``.

The RRG's elastic buffers play the role of registers (retiming moves EBs).
Parallel edges are collapsed to their minimum weight, which is exactly what
the path-based definition of W/D requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.configuration import RetimingVector
from repro.core.graphs import bellman_ford
from repro.core.rrg import RRG


class RetimingError(Exception):
    """Raised when a retiming problem is malformed or unsolvable."""


@dataclass
class RetimingProblem:
    """A synchronous retiming instance extracted from an RRG.

    Attributes:
        nodes: Node names in a fixed order.
        delays: Node delays in the same order.
        weights: Collapsed edge weights ``w(u, v)`` (min buffers over parallel
            edges) keyed by node-index pairs.
    """

    nodes: List[str]
    delays: List[float]
    weights: Dict[Tuple[int, int], int]

    @classmethod
    def from_rrg(cls, rrg: RRG) -> "RetimingProblem":
        nodes = rrg.node_names
        index = {name: i for i, name in enumerate(nodes)}
        delays = [rrg.delay(name) for name in nodes]
        weights: Dict[Tuple[int, int], int] = {}
        for edge in rrg.edges:
            key = (index[edge.src], index[edge.dst])
            weight = edge.buffers
            if key in weights:
                weights[key] = min(weights[key], weight)
            else:
                weights[key] = weight
        return cls(nodes=nodes, delays=delays, weights=weights)

    @property
    def size(self) -> int:
        return len(self.nodes)


def _wd_matrices(problem: RetimingProblem) -> Tuple[np.ndarray, np.ndarray]:
    """Compute the W and D matrices by |V| runs of Dijkstra-like relaxation.

    The classical trick orders path cost lexicographically by
    ``(registers, -delay)``: W is the register component and D the delay of
    the destination-inclusive maximum-delay minimum-register path.
    """
    n = problem.size
    big = math.inf
    weight = np.full((n, n), big)
    delay = np.full((n, n), -big)
    for (u, v), w in problem.weights.items():
        cost = float(w)
        if cost < weight[u, v] or (
            cost == weight[u, v] and problem.delays[u] > delay[u, v]
        ):
            weight[u, v] = cost
            delay[u, v] = problem.delays[u]

    w_matrix = np.full((n, n), big)
    d_matrix = np.full((n, n), -big)
    for u in range(n):
        # Bellman-Ford from u with lexicographic cost (registers, -delay).
        dist_w = np.full(n, big)
        dist_d = np.full(n, -big)
        dist_w[u] = 0.0
        dist_d[u] = problem.delays[u]
        for _ in range(n):
            changed = False
            for (a, b), w in problem.weights.items():
                if dist_w[a] == big:
                    continue
                cand_w = dist_w[a] + w
                cand_d = dist_d[a] + problem.delays[b]
                if cand_w < dist_w[b] or (
                    cand_w == dist_w[b] and cand_d > dist_d[b]
                ):
                    dist_w[b] = cand_w
                    dist_d[b] = cand_d
                    changed = True
            if not changed:
                break
        w_matrix[u, :] = dist_w
        d_matrix[u, :] = dist_d
    return w_matrix, d_matrix


def retiming_feasible(
    problem: RetimingProblem,
    period: float,
    w_matrix: Optional[np.ndarray] = None,
    d_matrix: Optional[np.ndarray] = None,
) -> Optional[RetimingVector]:
    """Return a retiming achieving ``period``, or ``None`` when infeasible.

    Builds the difference-constraint graph of Leiserson-Saxe theorem 7 and
    solves it with Bellman-Ford; a negative cycle means infeasibility.
    """
    if w_matrix is None or d_matrix is None:
        w_matrix, d_matrix = _wd_matrices(problem)
    n = problem.size
    # Constraint graph: edge v -> u with weight w means r(u) - r(v) <= w.
    constraints: Dict[Tuple[int, int], float] = {}

    def add(u: int, v: int, bound: float) -> None:
        key = (v, u)
        if key in constraints:
            constraints[key] = min(constraints[key], bound)
        else:
            constraints[key] = bound

    for (u, v), w in problem.weights.items():
        add(u, v, float(w))
    for u in range(n):
        for v in range(n):
            if math.isinf(w_matrix[u, v]):
                continue
            if d_matrix[u, v] > period + 1e-9:
                add(u, v, w_matrix[u, v] - 1.0)

    # Every bound is integer-valued, so the float comparisons are exact.
    dist = bellman_ford(
        n, [(src, dst, bound) for (src, dst), bound in constraints.items()]
    )
    if dist is None:
        return None
    lags = {problem.nodes[i]: int(round(dist[i])) for i in range(n)}
    return RetimingVector(lags).normalized()


def leiserson_saxe_min_period(
    rrg: RRG,
) -> Tuple[float, RetimingVector]:
    """Minimum achievable clock period by retiming, and a retiming reaching it.

    Returns:
        ``(period, retiming)``; the retiming maps node names to integer lags.

    Raises:
        RetimingError: when no finite period is achievable (should not happen
            for a live RRG).
    """
    problem = RetimingProblem.from_rrg(rrg)
    w_matrix, d_matrix = _wd_matrices(problem)
    candidates = sorted(
        {
            float(d_matrix[u, v])
            for u in range(problem.size)
            for v in range(problem.size)
            if not math.isinf(d_matrix[u, v]) and d_matrix[u, v] > 0
        }
        | {max(problem.delays) if problem.delays else 0.0}
    )
    if not candidates:
        return 0.0, RetimingVector({})

    feasible_period: Optional[float] = None
    feasible_vector: Optional[RetimingVector] = None
    low, high = 0, len(candidates) - 1
    while low <= high:
        mid = (low + high) // 2
        vector = retiming_feasible(problem, candidates[mid], w_matrix, d_matrix)
        if vector is not None:
            feasible_period = candidates[mid]
            feasible_vector = vector
            high = mid - 1
        else:
            low = mid + 1
    if feasible_vector is None or feasible_period is None:
        raise RetimingError(f"no feasible retiming period found for {rrg.name!r}")
    return feasible_period, feasible_vector
