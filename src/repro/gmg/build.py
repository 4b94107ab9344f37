"""Procedures 1 and 2: translating an RRG into an equivalent TGMG.

Procedure 1 maps every channel's elastic buffers onto node delays and every
channel's tokens onto initial markings:

* a node with a single input edge ``e`` gets delay ``R(e)`` and the edge keeps
  marking ``R0(e)``;
* a node with several input edges gets delay 0 and an auxiliary node of delay
  ``R(e)`` is inserted on each input edge ``e``, which then carries marking
  ``R0(e)`` on its second half.

Procedure 2 refines every early-evaluation node ``n`` with a unit-delay
"server" node ``s`` fed back through each input, which prevents the TGMG from
firing ``n`` more than once per cycle.  With this refinement the TGMG
throughput equals the elastic system throughput (Lemma 3.1).

The construction is exposed in two flavours:

* :func:`build_template` returns a :class:`TGMGTemplate` whose delays and
  markings are symbolic references to the RRG's per-edge R/R0 values.  The
  MILP formulations use the template to emit throughput constraints with
  variable buffer counts.
* :func:`build_tgmg` instantiates the template with concrete token/buffer
  vectors (defaults to the RRG's own assignment) and returns a numeric TGMG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.configuration import RRConfiguration
from repro.core.rrg import RRG
from repro.gmg.graph import TGMG


@dataclass(frozen=True)
class ValueRef:
    """A symbolic reference to either a constant or a per-edge RRG quantity.

    Attributes:
        kind: "const", "buffers" (R of an RRG edge) or "tokens" (R0 of an RRG
            edge).
        edge_index: RRG edge index for the non-constant kinds.
        constant: Value for the "const" kind.
    """

    kind: str
    edge_index: int = -1
    constant: float = 0.0

    @staticmethod
    def const(value: float) -> "ValueRef":
        return ValueRef(kind="const", constant=float(value))

    @staticmethod
    def buffers(edge_index: int) -> "ValueRef":
        return ValueRef(kind="buffers", edge_index=edge_index)

    @staticmethod
    def tokens(edge_index: int) -> "ValueRef":
        return ValueRef(kind="tokens", edge_index=edge_index)

    def resolve(
        self, tokens: Mapping[int, int], buffers: Mapping[int, int]
    ) -> float:
        """Evaluate the reference against concrete token/buffer vectors."""
        if self.kind == "const":
            return self.constant
        if self.kind == "buffers":
            return float(buffers[self.edge_index])
        if self.kind == "tokens":
            return float(tokens[self.edge_index])
        raise ValueError(f"unknown ValueRef kind {self.kind!r}")


@dataclass
class TemplateNode:
    """Node of a :class:`TGMGTemplate` with a symbolic delay."""

    name: str
    delay: ValueRef
    early: bool = False


@dataclass
class TemplateEdge:
    """Edge of a :class:`TGMGTemplate` with a symbolic initial marking."""

    src: str
    dst: str
    marking: ValueRef
    probability: Optional[float] = None


class TGMGTemplate:
    """Symbolic TGMG whose delays/markings reference RRG edge quantities.

    The template captures the *structure* produced by Procedures 1 and 2,
    which depends only on the RRG's graph shape and on which nodes evaluate
    early — not on the token or buffer counts.  The same template can
    therefore be instantiated for many retiming-and-recycling configurations,
    and it doubles as the source of the symbolic throughput constraints
    (Lemma 3.2) used inside the MILPs.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[TemplateNode] = []
        self.edges: List[TemplateEdge] = []

    def add_node(self, name: str, delay: ValueRef, early: bool = False) -> None:
        self.nodes.append(TemplateNode(name=name, delay=delay, early=early))

    def add_edge(
        self,
        src: str,
        dst: str,
        marking: ValueRef,
        probability: Optional[float] = None,
    ) -> None:
        self.edges.append(
            TemplateEdge(src=src, dst=dst, marking=marking, probability=probability)
        )

    def in_edges(self, name: str) -> List[TemplateEdge]:
        """Input edges of a template node."""
        return [e for e in self.edges if e.dst == name]

    def instantiate(
        self,
        tokens: Mapping[int, int],
        buffers: Mapping[int, int],
        name: Optional[str] = None,
    ) -> TGMG:
        """Produce a numeric TGMG for concrete token/buffer vectors."""
        tgmg = TGMG(name or self.name)
        for node in self.nodes:
            tgmg.add_node(
                node.name,
                delay=node.delay.resolve(tokens, buffers),
                early=node.early,
            )
        for edge in self.edges:
            marking = edge.marking.resolve(tokens, buffers)
            tgmg.add_edge(
                edge.src,
                edge.dst,
                marking=int(round(marking)),
                probability=edge.probability,
            )
        return tgmg


def _aux_name(node: str, edge_index: int) -> str:
    return f"{node}__pipe{edge_index}"


def _server_name(node: str) -> str:
    return f"{node}__srv"


def _split_name(node: str, edge_index: int) -> str:
    return f"{node}__grd{edge_index}"


def build_template(rrg: RRG, refine: bool = True) -> TGMGTemplate:
    """Apply Procedures 1 and (optionally) 2 to an RRG, symbolically.

    Args:
        rrg: The source retiming-and-recycling graph.
        refine: When True (default) apply the Procedure 2 refinement to every
            early-evaluation node, which makes the TGMG throughput equal to
            the elastic system throughput.  Without the refinement the TGMG
            throughput can over-estimate the real one.

    Returns:
        A :class:`TGMGTemplate`.
    """
    template = TGMGTemplate(f"{rrg.name}-tgmg")

    # Procedure 1 - structure, delays and markings.
    edge_endpoint: Dict[int, Tuple[str, str]] = {}
    for node in rrg.nodes:
        incoming = rrg.in_edges(node.name)
        if len(incoming) <= 1:
            delay = (
                ValueRef.buffers(incoming[0].index) if incoming else ValueRef.const(0.0)
            )
            template.add_node(node.name, delay=delay, early=node.early)
        else:
            template.add_node(node.name, delay=ValueRef.const(0.0), early=node.early)

    for node in rrg.nodes:
        incoming = rrg.in_edges(node.name)
        if len(incoming) <= 1:
            for edge in incoming:
                edge_endpoint[edge.index] = (edge.src, node.name)
        else:
            for edge in incoming:
                aux = _aux_name(node.name, edge.index)
                template.add_node(aux, delay=ValueRef.buffers(edge.index))
                template.add_edge(edge.src, aux, marking=ValueRef.const(0))
                edge_endpoint[edge.index] = (aux, node.name)

    # Emit the marking-carrying edges (possibly split again by Procedure 2).
    for edge in rrg.edges:
        src, dst = edge_endpoint[edge.index]
        dst_node = rrg.node(edge.dst)
        if refine and dst_node.early:
            split = _split_name(dst_node.name, edge.index)
            template.add_node(split, delay=ValueRef.const(0.0))
            template.add_edge(src, split, marking=ValueRef.tokens(edge.index))
            template.add_edge(
                split, dst, marking=ValueRef.const(0), probability=edge.probability
            )
        else:
            template.add_edge(
                src,
                dst,
                marking=ValueRef.tokens(edge.index),
                probability=edge.probability if dst_node.early else None,
            )

    # Procedure 2 - unit-delay server node per early-evaluation node.
    if refine:
        for node in rrg.early_nodes:
            server = _server_name(node.name)
            template.add_node(server, delay=ValueRef.const(1.0))
            template.add_edge(node.name, server, marking=ValueRef.const(1))
            for edge in rrg.in_edges(node.name):
                split = _split_name(node.name, edge.index)
                template.add_edge(server, split, marking=ValueRef.const(0))

    return template


def source_vectors(
    source: Union[RRG, RRConfiguration],
    tokens: Optional[Mapping[int, int]] = None,
    buffers: Optional[Mapping[int, int]] = None,
) -> Tuple[RRG, Dict[int, int], Dict[int, int]]:
    """The RRG and token/buffer vectors of a source, with overrides applied.

    ``source`` is an :class:`RRG` (its own assignment) or an
    :class:`RRConfiguration`; ``tokens``/``buffers`` override single edges.
    """
    rrg = source.rrg if isinstance(source, RRConfiguration) else source
    token_vector = source.token_vector()
    buffer_vector = source.buffer_vector()
    if tokens is not None:
        token_vector.update({int(k): int(v) for k, v in tokens.items()})
    if buffers is not None:
        buffer_vector.update({int(k): int(v) for k, v in buffers.items()})
    return rrg, token_vector, buffer_vector


def build_tgmg(
    source: Union[RRG, RRConfiguration],
    tokens: Optional[Mapping[int, int]] = None,
    buffers: Optional[Mapping[int, int]] = None,
    refine: bool = True,
) -> TGMG:
    """Build a numeric TGMG for an RRG or a configuration.

    Args:
        source: Either an :class:`RRG` (its own token/buffer assignment is
            used unless overridden) or an :class:`RRConfiguration`.
        tokens: Optional per-edge token override (edge index -> R0).
        buffers: Optional per-edge buffer override (edge index -> R).
        refine: Apply the Procedure 2 refinement (recommended).
    """
    rrg, token_vector, buffer_vector = source_vectors(source, tokens, buffers)
    template = build_template(rrg, refine=refine)
    tgmg = template.instantiate(token_vector, buffer_vector, name=f"{rrg.name}-tgmg")
    tgmg.validate()
    return tgmg
