"""Compiled models of elastic-system simulation.

The pure-Python simulators (:class:`repro.gmg.simulation.TGMGSimulator` and
:class:`repro.elastic.simulator.ElasticSimulator`) advance one node at a time
through dicts; they remain the *reference semantics oracle*.  This module
compiles the same synchronous semantics into flat index arrays once, for the
two executors that run it fast (:class:`repro.sim.scalar.ScalarSimulator` and
the generated-C kernel of :mod:`repro.sim.kernels`):

* the graph structure becomes CSR-style in-edge lists plus per-edge
  producer/consumer index vectors,
* node/channel delays become per-edge latencies, served by the executors
  from a ring of arrival buckets instead of per-token shift registers,
* early-evaluation guards are drawn through tables that replicate
  ``random.Random.choices`` bit-for-bit, so a run is firing-for-firing
  identical to the reference simulators under a shared seed.

A :class:`CompiledTemplate` keeps markings and latencies symbolic, so many
configurations of one RRG compile once and instantiate cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.rrg import RRG
from repro.gmg.build import TGMGTemplate, ValueRef, build_template
from repro.gmg.graph import TGMG, GMGError
from repro.gmg.simulation import SimulationResult


@dataclass
class GuardTable:
    """Guard-selection table of one early-evaluation node.

    ``cum_weights``/``total``/``hi`` mirror the internals of
    ``random.Random.choices`` so that guard draws consume the RNG stream
    exactly like the reference simulators do.
    """

    edges: List[int]  # engine edge ids of the node's in-edges, in order
    cum_weights: List[float]
    total: float
    hi: int


class CompiledStructure:
    """Shape-only compile of a guarded marked graph: index arrays, no state."""

    def __init__(
        self,
        node_names: Sequence[str],
        early_flags: Sequence[bool],
        edge_src: Sequence[int],
        edge_dst: Sequence[int],
        guard_weights: Mapping[int, Sequence[float]],
        name: str = "compiled",
    ) -> None:
        self.name = name
        self.node_names = list(node_names)
        self.num_nodes = len(self.node_names)
        self.num_edges = len(edge_src)
        self.prod = np.asarray(edge_src, dtype=np.int64)
        self.cons = np.asarray(edge_dst, dtype=np.int64)

        in_lists: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for index in range(self.num_edges):
            in_lists[self.cons[index]].append(index)
        flat: List[int] = []
        ptr = [0]
        for lst in in_lists:
            flat.extend(lst)
            ptr.append(len(flat))
        self.in_idx = np.asarray(flat, dtype=np.int64)
        self.in_ptr = np.asarray(ptr, dtype=np.int64)

        self.early_pos = np.asarray(
            [i for i, early in enumerate(early_flags) if early], dtype=np.int64
        )
        self.guards: List[GuardTable] = []
        for node in self.early_pos:
            weights = list(guard_weights[int(node)])
            if any(w is None for w in weights):
                raise GMGError(
                    f"early-evaluation node {self.node_names[node]!r} has guards "
                    "without probabilities"
                )
            cum = list(accumulate(float(w) for w in weights))
            self.guards.append(
                GuardTable(
                    edges=self.in_idx[self.in_ptr[node] : self.in_ptr[node + 1]].tolist(),
                    cum_weights=cum,
                    total=cum[-1] + 0.0,
                    hi=len(cum) - 1,
                )
            )

    @property
    def num_early(self) -> int:
        return len(self.early_pos)


@dataclass
class CompiledModel:
    """A compiled structure plus one concrete marking/latency instance."""

    structure: CompiledStructure
    marking0: np.ndarray  # (E,) int64 initial markings
    latency: np.ndarray  # (E,) int64 per-edge delivery latencies


class CompiledTemplate:
    """A compiled structure whose markings/latencies are symbolic.

    Mirrors :class:`repro.gmg.build.TGMGTemplate`: the structure depends only
    on the graph shape, while markings/latencies reference the source RRG's
    per-edge token (R0) and buffer (R) counts.  :meth:`instantiate` resolves
    them against concrete vectors in ``O(E)`` numpy work, so many
    configurations of the same RRG compile once and instantiate cheaply.
    """

    def __init__(
        self,
        structure: CompiledStructure,
        marking_refs: Sequence[ValueRef],
        latency_refs: Sequence[ValueRef],
        num_source_edges: int,
    ) -> None:
        self.structure = structure
        self.num_source_edges = num_source_edges
        self._mk = self._split_refs(marking_refs)
        self._lat = self._split_refs(latency_refs)

    @staticmethod
    def _split_refs(refs: Sequence[ValueRef]):
        const = np.zeros(len(refs), dtype=np.float64)
        tok_pos, tok_src, buf_pos, buf_src = [], [], [], []
        for position, ref in enumerate(refs):
            if ref.kind == "const":
                const[position] = ref.constant
            elif ref.kind == "tokens":
                tok_pos.append(position)
                tok_src.append(ref.edge_index)
            elif ref.kind == "buffers":
                buf_pos.append(position)
                buf_src.append(ref.edge_index)
            else:
                raise ValueError(f"unknown ValueRef kind {ref.kind!r}")
        return (
            const,
            np.asarray(tok_pos, dtype=np.int64),
            np.asarray(tok_src, dtype=np.int64),
            np.asarray(buf_pos, dtype=np.int64),
            np.asarray(buf_src, dtype=np.int64),
        )

    def _resolve_batch(self, split, tok: np.ndarray, buf: np.ndarray) -> np.ndarray:
        const, tok_pos, tok_src, buf_pos, buf_src = split
        values = np.tile(const, (tok.shape[0], 1))
        if tok_pos.size:
            values[:, tok_pos] = tok[:, tok_src]
        if buf_pos.size:
            values[:, buf_pos] = buf[:, buf_src]
        return np.rint(values).astype(np.int64)

    def instantiate(
        self,
        tokens: Union[Mapping[int, int], Sequence[int]],
        buffers: Union[Mapping[int, int], Sequence[int]],
    ) -> CompiledModel:
        """Resolve one configuration: the one-lane :meth:`instantiate_batch`."""
        width = self.num_source_edges
        return self.instantiate_batch(
            dense_lanes([tokens], width), dense_lanes([buffers], width)
        )[0]

    def instantiate_batch(
        self,
        tokens: np.ndarray,
        buffers: np.ndarray,
    ) -> List[CompiledModel]:
        """Resolve ``B`` configurations at once from dense vectors.

        ``tokens``/``buffers`` are ``(B, num_source_edges)`` arrays (source
        RRG edge order, see :func:`dense_lanes`); lanes only amortise the
        resolution arithmetic.
        """
        tok = np.asarray(tokens, dtype=np.float64)
        buf = np.asarray(buffers, dtype=np.float64)
        if tok.ndim != 2 or tok.shape != buf.shape or (
            tok.shape[1] != self.num_source_edges
        ):
            raise ValueError(
                "tokens/buffers must both be (B, num_source_edges) arrays"
            )
        markings = self._resolve_batch(self._mk, tok, buf)
        latencies = self._resolve_batch(self._lat, tok, buf)
        if (latencies < 0).any():
            raise GMGError("negative latency in compiled model")
        return [
            CompiledModel(
                structure=self.structure,
                marking0=markings[lane],
                latency=latencies[lane],
            )
            for lane in range(tok.shape[0])
        ]


def dense_lanes(
    vectors: Sequence[Union[Mapping[int, int], Sequence[int]]], width: int
) -> np.ndarray:
    """``(lanes, width)`` int64 array of per-edge token or buffer vectors.

    Each lane is the sparse ``{edge: count}`` form (absent edges are 0) or
    the dense per-edge sequence, as :func:`repro.sim.cache.vector_key`
    accepts.
    """
    rows = []
    for vector in vectors:
        if isinstance(vector, Mapping):
            row = [0] * width
            for edge, count in vector.items():
                row[int(edge)] = count
            vector = row
        rows.append(vector)
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), width)


# -- compilers ----------------------------------------------------------------


def _validate_guards(
    node_names: Sequence[str],
    early_flags: Sequence[bool],
    in_lists: Mapping[int, Sequence[Optional[float]]],
    require_two_inputs: bool,
) -> None:
    for node, early in enumerate(early_flags):
        if not early:
            continue
        weights = in_lists[node]
        if require_two_inputs and len(weights) < 2:
            raise GMGError(
                f"early-evaluation node {node_names[node]!r} needs at least two inputs"
            )
        if not weights or any(w is None for w in weights):
            raise GMGError(
                f"early-evaluation node {node_names[node]!r} has guards without "
                "probabilities"
            )
        total = sum(weights)
        if abs(total - 1.0) > 1e-6:
            raise GMGError(
                f"guard probabilities of {node_names[node]!r} sum to {total}, "
                "expected 1.0"
            )


def compile_tgmg(tgmg: TGMG) -> CompiledModel:
    """Compile a numeric TGMG (node delays become out-edge latencies)."""
    tgmg.validate()
    node_names = [n.name for n in tgmg.nodes]
    index_of = {name: i for i, name in enumerate(node_names)}
    delays = {}
    for node in tgmg.nodes:
        if abs(node.delay - round(node.delay)) > 1e-9:
            raise GMGError(
                f"node {node.name!r} has non-integer delay {node.delay}; the "
                "synchronous simulator requires integer delays"
            )
        delays[node.name] = int(round(node.delay))
    early_flags = [n.early for n in tgmg.nodes]
    edge_src = [index_of[e.src] for e in tgmg.edges]
    edge_dst = [index_of[e.dst] for e in tgmg.edges]
    guard_weights = {
        index_of[n.name]: [e.probability for e in tgmg.in_edges(n.name)]
        for n in tgmg.early_nodes
    }
    structure = CompiledStructure(
        node_names, early_flags, edge_src, edge_dst, guard_weights, name=tgmg.name
    )
    marking0 = np.asarray([e.marking for e in tgmg.edges], dtype=np.int64)
    latency = np.asarray([delays[e.src] for e in tgmg.edges], dtype=np.int64)
    return CompiledModel(structure=structure, marking0=marking0, latency=latency)


def compile_template(rrg: RRG, refine: bool = True) -> CompiledTemplate:
    """Compile the TGMG template of an RRG (Procedures 1 and 2), symbolically.

    The TGMG node delays (R of the feeding channel, or 0/1 constants) become
    the latencies of the node's out-edges; per-configuration token/buffer
    vectors are resolved later by :meth:`CompiledTemplate.instantiate`.
    """
    template: TGMGTemplate = build_template(rrg, refine=refine)
    node_names = [n.name for n in template.nodes]
    index_of = {name: i for i, name in enumerate(node_names)}
    early_flags = [n.early for n in template.nodes]
    delay_ref = {n.name: n.delay for n in template.nodes}

    edge_src = [index_of[e.src] for e in template.edges]
    edge_dst = [index_of[e.dst] for e in template.edges]
    in_probs: Mapping[int, List[Optional[float]]] = {
        i: [] for i in range(len(node_names))
    }
    for edge, dst in zip(template.edges, edge_dst):
        in_probs[dst].append(edge.probability)
    _validate_guards(node_names, early_flags, in_probs, require_two_inputs=True)

    guard_weights = {
        i: in_probs[i] for i, early in enumerate(early_flags) if early
    }
    structure = CompiledStructure(
        node_names,
        early_flags,
        edge_src,
        edge_dst,
        guard_weights,
        name=f"{rrg.name}-tgmg",
    )
    marking_refs = [e.marking for e in template.edges]
    latency_refs = [delay_ref[e.src] for e in template.edges]
    return CompiledTemplate(structure, marking_refs, latency_refs, rrg.num_edges)


def compile_elastic_template(rrg: RRG) -> CompiledTemplate:
    """Compile the structural elastic-circuit semantics of an RRG.

    One engine node per block (delay 0), one engine edge per channel whose
    latency is the channel's EB count R and whose marking is its token count
    R0 — exactly the state :class:`repro.elastic.simulator.ElasticSimulator`
    tracks through chains and channels.
    """
    node_names = [n.name for n in rrg.nodes]
    index_of = {name: i for i, name in enumerate(node_names)}
    early_flags = [n.early for n in rrg.nodes]
    edge_src = [index_of[e.src] for e in rrg.edges]
    edge_dst = [index_of[e.dst] for e in rrg.edges]
    in_probs: Mapping[int, List[Optional[float]]] = {
        i: [] for i in range(len(node_names))
    }
    for edge, dst in zip(rrg.edges, edge_dst):
        in_probs[dst].append(edge.probability)
    _validate_guards(node_names, early_flags, in_probs, require_two_inputs=False)
    guard_weights = {i: in_probs[i] for i, early in enumerate(early_flags) if early}
    structure = CompiledStructure(
        node_names,
        early_flags,
        edge_src,
        edge_dst,
        guard_weights,
        name=f"{rrg.name}-elastic",
    )
    marking_refs = [ValueRef.tokens(e.index) for e in rrg.edges]
    latency_refs = [ValueRef.buffers(e.index) for e in rrg.edges]
    return CompiledTemplate(structure, marking_refs, latency_refs, rrg.num_edges)


# -- run results --------------------------------------------------------------


@dataclass
class BatchRunResult:
    """Measured window of one or more lanes of the same compiled structure."""

    node_names: List[str]
    cycles: int
    warmup: int
    firings: np.ndarray  # (B, N) firing counts over the measured window
    throughputs: np.ndarray  # (B,) mean per-node firing rate per lane

    @property
    def lanes(self) -> int:
        return self.firings.shape[0]

    def result(self, lane: int = 0) -> SimulationResult:
        """The lane's outcome in the reference simulator's result type."""
        counts = {
            name: int(c) for name, c in zip(self.node_names, self.firings[lane])
        }
        rates = {name: count / self.cycles for name, count in counts.items()}
        return SimulationResult(
            throughput=float(self.throughputs[lane]),
            cycles=self.cycles,
            warmup=self.warmup,
            firings=counts,
            rates=rates,
        )
