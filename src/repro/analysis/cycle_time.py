"""Cycle-time (maximum combinational path delay) analysis.

A combinational path (Definition 2.2) is a path whose edges all carry zero
elastic buffers; its delay is the sum of the delays of *all* nodes on the
path, endpoints included.  The cycle time of an RRG (Definition 2.3) is the
maximum delay over all combinational paths.

Because liveness forces at least one buffered edge on every directed cycle,
the zero-buffer subgraph of a valid RRG is acyclic and the cycle time is a
longest-path computation in a DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.graphs import zero_edge_arrivals
from repro.core.rrg import RRG


class CombinationalCycleError(Exception):
    """Raised when the zero-buffer subgraph contains a directed cycle.

    Such an RRG has an unbroken combinational loop, i.e. an infinite cycle
    time; it violates the liveness requirement of Definition 2.1.
    """


@dataclass
class CriticalPath:
    """A maximum-delay combinational path.

    Attributes:
        nodes: Node names along the path, in order.
        delay: Total combinational delay of the path.
    """

    nodes: List[str]
    delay: float


def _zero_buffer_counts(rrg: RRG, buffers: Optional[Dict[int, int]]) -> List[int]:
    """Buffer count per edge position, with the optional override applied."""
    if buffers is None:
        return [edge.buffers for edge in rrg.edges]
    return [buffers.get(edge.index, edge.buffers) for edge in rrg.edges]


def node_arrival_times(
    rrg: RRG, buffers: Optional[Dict[int, int]] = None
) -> Dict[str, float]:
    """Latest combinational arrival time at the output of every node.

    The arrival time of a node is the maximum, over combinational paths ending
    at the node, of the path delay.  The cycle time is the maximum arrival
    time over all nodes.

    Args:
        rrg: The graph under analysis.
        buffers: Optional override of the buffer count per edge index; defaults
            to the RRG's own buffer assignment.  This lets callers evaluate
            candidate configurations without copying the RRG.

    Raises:
        CombinationalCycleError: when a zero-buffer cycle exists.
    """
    names = rrg.node_names
    position = {name: i for i, name in enumerate(names)}
    edges = rrg.edges
    arrival = zero_edge_arrivals(
        [node.delay for node in rrg.nodes],
        [position[edge.src] for edge in edges],
        [position[edge.dst] for edge in edges],
        _zero_buffer_counts(rrg, buffers),
    )
    if arrival is None:
        raise CombinationalCycleError(
            f"RRG {rrg.name!r} contains a combinational cycle"
        )
    return dict(zip(names, arrival))


def cycle_time(rrg: RRG, buffers: Optional[Dict[int, int]] = None) -> float:
    """Cycle time tau(RRG): the maximum combinational path delay.

    Args:
        rrg: The graph under analysis.
        buffers: Optional buffer-count override per edge index.
    """
    if rrg.num_nodes == 0:
        return 0.0
    arrival = node_arrival_times(rrg, buffers)
    return max(arrival.values())


def critical_path(
    rrg: RRG, buffers: Optional[Dict[int, int]] = None
) -> CriticalPath:
    """Extract one maximum-delay combinational path.

    Returns:
        A :class:`CriticalPath` with the node sequence and its delay.  For an
        empty RRG the path is empty with zero delay.
    """
    if rrg.num_nodes == 0:
        return CriticalPath(nodes=[], delay=0.0)
    counts = _zero_buffer_counts(rrg, buffers)
    arrival = node_arrival_times(rrg, buffers)
    end = max(arrival, key=arrival.get)
    path = [end]
    current = end
    while True:
        target = arrival[current] - rrg.delay(current)
        predecessor = None
        for edge in rrg.in_edges(current):
            if counts[edge.index] == 0 and abs(arrival[edge.src] - target) <= 1e-9:
                predecessor = edge.src
                break
        if predecessor is None:
            break
        path.append(predecessor)
        current = predecessor
    path.reverse()
    return CriticalPath(nodes=path, delay=arrival[end])


def path_delay(rrg: RRG, nodes: List[str]) -> float:
    """Delay of an explicit node path (sum of node delays)."""
    return sum(rrg.delay(name) for name in nodes)


def is_combinational_path(
    rrg: RRG, nodes: List[str], buffers: Optional[Dict[int, int]] = None
) -> bool:
    """Check that consecutive nodes are linked by at least one zero-buffer edge."""
    if len(nodes) < 2:
        return True
    for src, dst in zip(nodes, nodes[1:]):
        candidates = rrg.edges_between(src, dst)
        if not candidates:
            return False
        found = False
        for edge in candidates:
            count = (
                edge.buffers if buffers is None else buffers.get(edge.index, edge.buffers)
            )
            if count == 0:
                found = True
                break
        if not found:
            return False
    return True
