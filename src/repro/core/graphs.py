"""Index-level graph routines: one implementation per graph question.

Nodes are ``0 .. n-1`` and edges are parallel index lists, so every caller
(the RRG, the cycle-time analysis, the search, retiming, the Markov chain)
translates its own names once and asks the same routine:

* :func:`zero_edge_arrivals` — longest combinational path (Definitions
  2.2–2.3) over the edges whose count is zero; ``None`` when those edges
  hold a cycle;
* :func:`bellman_ford` — shortest distances from a virtual source joined to
  every node by a zero-weight arc; ``None`` on a negative cycle;
* :func:`terminal_class` — the terminal strongly connected class of a
  transition graph reachable from a start state (iterative Tarjan).

This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple


def zero_edge_arrivals(
    delays: Sequence[float],
    edge_src: Sequence[int],
    edge_dst: Sequence[int],
    counts: Sequence[int],
) -> Optional[List[float]]:
    """Latest arrival time at every node over the zero-count edges.

    Edge ``e`` takes part when ``counts[e] == 0`` (a zero-buffer edge for
    the cycle time, a zero-token edge for liveness).  A node's arrival is
    its delay plus the largest arrival among its predecessors (0 without
    any), so the result is exact in any topological order: rounded float
    addition is monotone, and ``max(d + a_i) == d + max(a_i)``.

    Returns ``None`` when the zero-count edges hold a directed cycle.
    """
    num_nodes = len(delays)
    indegree = [0] * num_nodes
    zero_out: List[List[int]] = [[] for _ in range(num_nodes)]
    for edge in range(len(counts)):
        if counts[edge] == 0:
            zero_out[edge_src[edge]].append(edge_dst[edge])
            indegree[edge_dst[edge]] += 1
    arrival = list(delays)
    ready = [n for n in range(num_nodes) if indegree[n] == 0]
    processed = 0
    while ready:
        node = ready.pop()
        processed += 1
        reach = arrival[node]
        for succ in zero_out[node]:
            if reach + delays[succ] > arrival[succ]:
                arrival[succ] = reach + delays[succ]
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if processed != num_nodes:
        return None
    return arrival


def bellman_ford(
    num_nodes: int, arcs: Sequence[Tuple[int, int, float]]
) -> Optional[List[float]]:
    """Shortest distances from a virtual source with a 0-weight arc to every node.

    ``arcs`` are ``(src, dst, weight)`` triples; parallel arcs are allowed.
    Every distance is at most 0.  Returns ``None`` when the arcs hold a
    negative cycle: the distances still change on pass ``num_nodes + 1``.
    """
    dist: List[float] = [0] * num_nodes
    for _ in range(num_nodes + 1):
        changed = False
        for src, dst, weight in arcs:
            if dist[src] + weight < dist[dst]:
                dist[dst] = dist[src] + weight
                changed = True
        if not changed:
            return dist
    return None


def terminal_class(
    num_states: int, transitions: Iterable[Tuple[int, int, float]], start: int
) -> List[int]:
    """Sorted states of the terminal strongly connected class reached from ``start``.

    ``transitions`` are ``(source, target, probability)`` triples; only the
    endpoints are read.  A class is terminal when no transition leaves it.
    When several terminal classes are reachable, the one holding the lowest
    state index is returned.
    """
    successors: List[List[int]] = [[] for _ in range(num_states)]
    for src, dst, _ in transitions:
        successors[src].append(dst)
    order = [-1] * num_states
    low = [0] * num_states
    component = [-1] * num_states
    stack: List[int] = []
    classes: List[List[int]] = []
    order[start] = low[start] = 0
    stack.append(start)
    visited = 1
    work = [(start, 0)]
    while work:
        node, position = work[-1]
        if position < len(successors[node]):
            work[-1] = (node, position + 1)
            succ = successors[node][position]
            if order[succ] < 0:
                order[succ] = low[succ] = visited
                visited += 1
                stack.append(succ)
                work.append((succ, 0))
            elif component[succ] < 0:
                low[node] = min(low[node], order[succ])
            continue
        work.pop()
        if work:
            parent = work[-1][0]
            low[parent] = min(low[parent], low[node])
        if low[node] == order[node]:
            members: List[int] = []
            while True:
                member = stack.pop()
                component[member] = len(classes)
                members.append(member)
                if member == node:
                    break
            classes.append(members)
    terminal = [
        members
        for label, members in enumerate(classes)
        if all(component[succ] == label for m in members for succ in successors[m])
    ]
    return sorted(min(terminal, key=min))
