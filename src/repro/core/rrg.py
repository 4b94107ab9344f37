"""Retiming and Recycling Graph (RRG) data model.

The RRG (Definition 2.1 of the paper) models an elastic system as a directed
multigraph whose nodes are combinational blocks and whose edges are channels:

* ``beta`` — combinational delay of each node,
* ``tokens`` (R0) — number of tokens initially stored on each edge (negative
  values are anti-tokens),
* ``buffers`` (R) — number of elastic buffers (EBs) on each edge, with
  ``R >= R0``,
* early-evaluation nodes carry a branch-selection probability ``gamma`` on
  each of their input edges, summing to one.

Liveness requires the sum of tokens along every directed cycle to be
positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.graphs import bellman_ford, zero_edge_arrivals

if TYPE_CHECKING:
    import networkx as nx


class RRGError(Exception):
    """Raised when an RRG is malformed or an operation on it is invalid."""


@dataclass(slots=True)
class Node:
    """A combinational block of the elastic system.

    Attributes:
        name: Unique node identifier.
        delay: Combinational delay ``beta(n) >= 0``.
        early: True when the node evaluates early (fires as soon as the
            probabilistically selected input is available).
    """

    name: str
    delay: float = 0.0
    early: bool = False

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise RRGError(f"node {self.name!r} has negative delay {self.delay}")


@dataclass(slots=True)
class Edge:
    """A channel between two combinational blocks.

    Attributes:
        index: Unique integer identifier within the RRG (stable across copies).
        src: Name of the producer node.
        dst: Name of the consumer node.
        tokens: Initial token count R0 (may be negative: anti-tokens).
        buffers: Number of elastic buffers R, ``buffers >= tokens`` and
            ``buffers >= 0``.
        probability: Branch-selection probability gamma, required (and only
            meaningful) when the destination node is an early-evaluation node.
    """

    index: int
    src: str
    dst: str
    tokens: int = 0
    buffers: int = 0
    probability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.buffers < 0:
            raise RRGError(
                f"edge {self.src}->{self.dst} has negative buffer count {self.buffers}"
            )
        if self.buffers < self.tokens:
            raise RRGError(
                f"edge {self.src}->{self.dst} violates R >= R0 "
                f"({self.buffers} < {self.tokens})"
            )
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise RRGError(
                f"edge {self.src}->{self.dst} has probability {self.probability} "
                "outside (0, 1]"
            )

    @property
    def key(self) -> Tuple[str, str, int]:
        """(src, dst, index) triple identifying the edge."""
        return (self.src, self.dst, self.index)


class RRG:
    """A retiming-and-recycling graph (directed multigraph).

    Nodes are added with :meth:`add_node` and channels with :meth:`add_edge`.
    Parallel edges are allowed (the motivational example of the paper has two
    channels between the same pair of nodes).  After construction, call
    :meth:`validate` to check well-formedness (probabilities, liveness,
    R >= R0).
    """

    def __init__(self, name: str = "rrg") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._edges: List[Edge] = []
        self._out: Dict[str, List[int]] = {}
        self._in: Dict[str, List[int]] = {}
        # Cached delay aggregates; invalidated whenever a node is added (the
        # MILP builders read max_delay/total_delay in hot loops).
        self._max_delay: Optional[float] = None
        self._total_delay: Optional[float] = None

    # -- construction -------------------------------------------------------

    def add_node(self, name: str, delay: float = 0.0, early: bool = False) -> Node:
        """Add a combinational block; raises on duplicate names."""
        if name in self._nodes:
            raise RRGError(f"duplicate node name {name!r}")
        node = Node(name=name, delay=float(delay), early=bool(early))
        self._nodes[name] = node
        self._out[name] = []
        self._in[name] = []
        self._max_delay = None
        self._total_delay = None
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        tokens: int = 0,
        buffers: Optional[int] = None,
        probability: Optional[float] = None,
    ) -> Edge:
        """Add a channel from ``src`` to ``dst``.

        Args:
            tokens: Initial token count R0 (negative values are anti-tokens).
            buffers: EB count R.  Defaults to ``max(tokens, 0)`` — i.e. just
                enough buffers to hold the initial tokens, with no bubbles.
            probability: Branch-selection probability, required when ``dst``
                is an early-evaluation node.

        Returns:
            The new :class:`Edge`.
        """
        if src not in self._nodes:
            raise RRGError(f"unknown source node {src!r}")
        if dst not in self._nodes:
            raise RRGError(f"unknown destination node {dst!r}")
        if buffers is None:
            buffers = max(int(tokens), 0)
        edge = Edge(
            index=len(self._edges),
            src=src,
            dst=dst,
            tokens=int(tokens),
            buffers=int(buffers),
            probability=probability,
        )
        self._edges.append(edge)
        self._out[src].append(edge.index)
        self._in[dst].append(edge.index)
        return edge

    # -- access --------------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        """All nodes in insertion order."""
        return list(self._nodes.values())

    @property
    def node_names(self) -> List[str]:
        return list(self._nodes.keys())

    @property
    def edges(self) -> List[Edge]:
        """All edges in insertion order (edge.index == position)."""
        return list(self._edges)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise RRGError(f"unknown node {name!r}") from exc

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def edge(self, index: int) -> Edge:
        try:
            return self._edges[index]
        except IndexError as exc:
            raise RRGError(f"unknown edge index {index}") from exc

    def out_edges(self, name: str) -> List[Edge]:
        """Edges leaving ``name``."""
        return [self._edges[i] for i in self._out[self.node(name).name]]

    def in_edges(self, name: str) -> List[Edge]:
        """Edges entering ``name``."""
        return [self._edges[i] for i in self._in[self.node(name).name]]

    def edges_between(self, src: str, dst: str) -> List[Edge]:
        """All parallel edges from ``src`` to ``dst``."""
        return [e for e in self._edges if e.src == src and e.dst == dst]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def simple_nodes(self) -> List[Node]:
        """Nodes of the N1 partition (late evaluation)."""
        return [n for n in self._nodes.values() if not n.early]

    @property
    def early_nodes(self) -> List[Node]:
        """Nodes of the N2 partition (early evaluation)."""
        return [n for n in self._nodes.values() if n.early]

    def delay(self, name: str) -> float:
        """Combinational delay beta(n)."""
        return self.node(name).delay

    @property
    def max_delay(self) -> float:
        """Largest node delay (beta_max), 0.0 for an empty graph.

        Cached until the next :meth:`add_node`.  Mutating ``node.delay``
        directly bypasses the cache; call :meth:`invalidate_delay_cache`
        afterwards when doing so.
        """
        if self._max_delay is None:
            self._max_delay = (
                max(n.delay for n in self._nodes.values()) if self._nodes else 0.0
            )
        return self._max_delay

    @property
    def total_delay(self) -> float:
        """Sum of all node delays; the paper's big constant tau*.  Cached
        (see :attr:`max_delay`)."""
        if self._total_delay is None:
            self._total_delay = sum(n.delay for n in self._nodes.values())
        return self._total_delay

    def invalidate_delay_cache(self) -> None:
        """Drop the cached delay aggregates after direct ``node.delay`` edits."""
        self._max_delay = None
        self._total_delay = None

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def __repr__(self) -> str:
        return (
            f"RRG({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"early={len(self.early_nodes)})"
        )

    # -- token / buffer vectors ------------------------------------------------

    def token_vector(self) -> Dict[int, int]:
        """Mapping edge index -> R0."""
        return {e.index: e.tokens for e in self._edges}

    def buffer_vector(self) -> Dict[int, int]:
        """Mapping edge index -> R."""
        return {e.index: e.buffers for e in self._edges}

    # -- structure queries -------------------------------------------------------

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export the structure (with attributes) to a networkx MultiDiGraph.

        networkx is imported here only: no analysis in this package needs it.
        """
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            graph.add_node(node.name, delay=node.delay, early=node.early)
        for edge in self._edges:
            graph.add_edge(
                edge.src,
                edge.dst,
                key=edge.index,
                tokens=edge.tokens,
                buffers=edge.buffers,
                probability=edge.probability,
                index=edge.index,
            )
        return graph

    def cycle_token_sum(self, cycle: Sequence[str]) -> int:
        """Minimum total R0 along a directed cycle given as a node sequence.

        When parallel edges exist between consecutive cycle nodes, the edge
        with the fewest tokens is used (the pessimistic choice for liveness).
        """
        total = 0
        length = len(cycle)
        for i, src in enumerate(cycle):
            dst = cycle[(i + 1) % length]
            parallel = self.edges_between(src, dst)
            if not parallel:
                raise RRGError(f"cycle references missing edge {src}->{dst}")
            total += min(e.tokens for e in parallel)
        return total

    def has_live_token_distribution(self) -> bool:
        """Check liveness: every directed cycle has a positive token sum.

        Fast path: when no edge carries anti-tokens, a cycle with a
        non-positive token sum is exactly a cycle of all-zero-token edges, so
        liveness reduces to acyclicity of the zero-token subgraph — an
        ``O(V + E)`` topological sweep instead of Bellman-Ford, which is what
        keeps validation linear for the 500–5000 node ``large_rrg`` family.

        General path (some R0 < 0): Bellman-Ford negative-cycle detection on
        the exact integer weights ``(|E| + 1) * R0(e) - 1``.  A simple cycle
        of ``k <= |E|`` edges weighs ``(|E| + 1) * sum(R0) - k``, which is
        negative exactly when its token sum is <= 0.
        """
        if not self._edges:
            return True
        position = {name: i for i, name in enumerate(self._nodes)}
        src = [position[edge.src] for edge in self._edges]
        dst = [position[edge.dst] for edge in self._edges]
        if all(edge.tokens >= 0 for edge in self._edges):
            tokens = [edge.tokens for edge in self._edges]
            zeros = [0.0] * len(position)
            return zero_edge_arrivals(zeros, src, dst, tokens) is not None
        scale = len(self._edges) + 1
        arcs = [
            (u, v, scale * edge.tokens - 1)
            for u, v, edge in zip(src, dst, self._edges)
        ]
        return bellman_ford(len(position), arcs) is not None

    def validate(self) -> None:
        """Raise :class:`RRGError` when the RRG violates Definition 2.1."""
        for edge in self._edges:
            if edge.buffers < max(edge.tokens, 0):
                raise RRGError(
                    f"edge {edge.src}->{edge.dst}: buffers {edge.buffers} < "
                    f"max(tokens, 0) = {max(edge.tokens, 0)}"
                )
        for node in self._nodes.values():
            incoming = self.in_edges(node.name)
            if node.early:
                if len(incoming) < 2:
                    raise RRGError(
                        f"early-evaluation node {node.name!r} needs at least two inputs"
                    )
                missing = [e for e in incoming if e.probability is None]
                if missing:
                    raise RRGError(
                        f"early-evaluation node {node.name!r} has input edges "
                        "without branch probabilities"
                    )
                total = sum(e.probability for e in incoming)
                if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
                    raise RRGError(
                        f"branch probabilities of node {node.name!r} sum to {total}, "
                        "expected 1.0"
                    )
        if not self.has_live_token_distribution():
            raise RRGError("some directed cycle has a non-positive token sum")

    # -- copies and rebinding ---------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "RRG":
        """Deep copy of the RRG (edge indices preserved)."""
        clone = RRG(name or self.name)
        for node in self._nodes.values():
            clone.add_node(node.name, delay=node.delay, early=node.early)
        for edge in self._edges:
            clone.add_edge(
                edge.src,
                edge.dst,
                tokens=edge.tokens,
                buffers=edge.buffers,
                probability=edge.probability,
            )
        return clone

    def with_assignment(
        self,
        tokens: Dict[int, int],
        buffers: Dict[int, int],
        name: Optional[str] = None,
    ) -> "RRG":
        """Return a copy whose edge tokens/buffers are replaced by the mappings."""
        clone = RRG(name or self.name)
        for node in self._nodes.values():
            clone.add_node(node.name, delay=node.delay, early=node.early)
        for edge in self._edges:
            clone.add_edge(
                edge.src,
                edge.dst,
                tokens=int(tokens.get(edge.index, edge.tokens)),
                buffers=int(buffers.get(edge.index, edge.buffers)),
                probability=edge.probability,
            )
        return clone

    def as_late_evaluation(self, name: Optional[str] = None) -> "RRG":
        """Copy with every node marked simple (for the late-evaluation baseline)."""
        clone = RRG(name or f"{self.name}-late")
        for node in self._nodes.values():
            clone.add_node(node.name, delay=node.delay, early=False)
        for edge in self._edges:
            clone.add_edge(
                edge.src,
                edge.dst,
                tokens=edge.tokens,
                buffers=edge.buffers,
                probability=None,
            )
        return clone

    # -- serialisation ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable description of the RRG."""
        return {
            "name": self.name,
            "nodes": [
                {"name": n.name, "delay": n.delay, "early": n.early}
                for n in self._nodes.values()
            ],
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "tokens": e.tokens,
                    "buffers": e.buffers,
                    "probability": e.probability,
                }
                for e in self._edges
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RRG":
        """Rebuild an RRG produced by :meth:`to_dict`."""
        rrg = cls(data.get("name", "rrg"))
        for node in data["nodes"]:
            rrg.add_node(node["name"], delay=node["delay"], early=node["early"])
        for edge in data["edges"]:
            rrg.add_edge(
                edge["src"],
                edge["dst"],
                tokens=edge["tokens"],
                buffers=edge["buffers"],
                probability=edge.get("probability"),
            )
        return rrg

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RRG":
        """Parse an RRG from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
