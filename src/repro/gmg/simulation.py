"""Synchronous stochastic simulation of timed guarded marked graphs.

The simulator implements the cycle-level semantics of an elastic system:

* every node fires at most once per clock cycle;
* a node of delay ``d`` makes the tokens produced by a firing at cycle ``t``
  visible to its successors at cycle ``t + d`` (delay 0 means combinational
  propagation within the same cycle);
* a simple node fires when every input edge carries at least one token;
* an early-evaluation node samples a guard (an input edge) with the
  configured probabilities, holds that choice while it is stalled, and fires
  as soon as the guarded edge carries a token — decrementing *all* input
  edges, which drives the non-guarded ones negative (anti-tokens).

This is the reproduction's substitute for the paper's Verilog simulations of
the elastic controllers: the measured quantity, the steady-state token rate,
is fully determined by these handshake semantics.

:class:`TGMGSimulator` is the *reference semantics oracle*: a deliberately
simple per-node implementation that the compiled engine in :mod:`repro.sim`
is cross-checked against firing-for-firing (``tests/test_sim_engine.py``).
The module-level wrappers (:func:`simulate_tgmg`, :func:`simulate_throughput`)
run the compiled engine, which produces bit-identical results under the
same seed; run the oracle by constructing :class:`TGMGSimulator` directly.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from repro.core.configuration import RRConfiguration
from repro.core.rrg import RRG
from repro.gmg.build import source_vectors
from repro.gmg.graph import TGMG, GMGError


@dataclass
class SimulationResult:
    """Outcome of a throughput simulation.

    Attributes:
        throughput: Estimated steady-state throughput (firings per cycle).
        cycles: Number of measured cycles (after warm-up).
        warmup: Number of warm-up cycles discarded.
        firings: Firing count per node over the measured window.
        rates: Firing rate per node over the measured window.
    """

    throughput: float
    cycles: int
    warmup: int
    firings: Dict[str, int] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)

    @property
    def min_rate(self) -> float:
        return min(self.rates.values()) if self.rates else 0.0

    @property
    def max_rate(self) -> float:
        return max(self.rates.values()) if self.rates else 0.0


class TGMGSimulator:
    """Reusable synchronous simulator for a fixed TGMG."""

    def __init__(self, tgmg: TGMG, seed: Optional[int] = None) -> None:
        tgmg.validate()
        self.tgmg = tgmg
        self.rng = random.Random(seed)
        self._node_names = [n.name for n in tgmg.nodes]
        self._delays = {n.name: int(round(n.delay)) for n in tgmg.nodes}
        for node in tgmg.nodes:
            if abs(node.delay - round(node.delay)) > 1e-9:
                raise GMGError(
                    f"node {node.name!r} has non-integer delay {node.delay}; the "
                    "synchronous simulator requires integer delays"
                )
        self._early = {n.name for n in tgmg.early_nodes}
        self._in_edges = {n.name: tgmg.in_edges(n.name) for n in tgmg.nodes}
        self._out_edges = {n.name: tgmg.out_edges(n.name) for n in tgmg.nodes}
        self._guard_probabilities = {
            name: (
                [e.index for e in self._in_edges[name]],
                [e.probability for e in self._in_edges[name]],
            )
            for name in self._early
        }
        self.reset()

    def reset(self) -> None:
        """Restore the initial marking and clear all statistics."""
        self.marking: Dict[int, int] = {e.index: e.marking for e in self.tgmg.edges}
        self.pending_guard: Dict[str, Optional[int]] = {
            name: None for name in self._early
        }
        self.arrivals: Dict[int, Dict[str, int]] = defaultdict(dict)
        self.cycle = 0
        self.firings: Dict[str, int] = {name: 0 for name in self._node_names}

    # -- single cycle ---------------------------------------------------------

    def step(self) -> List[str]:
        """Advance one clock cycle; returns the names of the nodes that fired."""
        # 1. Deliver tokens whose pipeline latency elapsed this cycle.
        due = self.arrivals.pop(self.cycle, {})
        for producer, count in due.items():
            for edge in self._out_edges[producer]:
                self.marking[edge.index] += count

        # 2. Fire nodes to a fixpoint; each node fires at most once per cycle.
        fired: List[str] = []
        fired_set = set()
        changed = True
        while changed:
            changed = False
            for name in self._node_names:
                if name in fired_set:
                    continue
                if self._try_fire(name):
                    fired.append(name)
                    fired_set.add(name)
                    changed = True

        self.cycle += 1
        return fired

    def _try_fire(self, name: str) -> bool:
        incoming = self._in_edges[name]
        if name in self._early:
            guard = self.pending_guard[name]
            if guard is None:
                indices, weights = self._guard_probabilities[name]
                guard = self.rng.choices(indices, weights=weights, k=1)[0]
                self.pending_guard[name] = guard
            if self.marking[guard] < 1:
                return False
        else:
            if any(self.marking[e.index] < 1 for e in incoming):
                return False

        for edge in incoming:
            self.marking[edge.index] -= 1
        if name in self._early:
            self.pending_guard[name] = None

        delay = self._delays[name]
        if delay == 0:
            for edge in self._out_edges[name]:
                self.marking[edge.index] += 1
        else:
            bucket = self.arrivals[self.cycle + delay]
            bucket[name] = bucket.get(name, 0) + 1

        self.firings[name] += 1
        return True

    # -- full runs -----------------------------------------------------------------

    def run(self, cycles: int, warmup: int = 0) -> SimulationResult:
        """Simulate ``warmup + cycles`` cycles and measure over the last ``cycles``."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        for _ in range(warmup):
            self.step()
        baseline = dict(self.firings)
        for _ in range(cycles):
            self.step()
        window = {
            name: self.firings[name] - baseline[name] for name in self._node_names
        }
        rates = {name: count / cycles for name, count in window.items()}
        throughput = sum(rates.values()) / len(rates) if rates else 0.0
        return SimulationResult(
            throughput=throughput,
            cycles=cycles,
            warmup=warmup,
            firings=window,
            rates=rates,
        )


def default_warmup(cycles: int) -> int:
    """The warm-up every simulation wrapper uses when none is given."""
    return max(200, cycles // 10)


def simulate_tgmg(
    tgmg: TGMG,
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Simulate a TGMG and estimate its steady-state throughput.

    Compiles the TGMG and runs it through :func:`repro.sim.batch.run_models`
    (bit-identical to :class:`TGMGSimulator` under the same seed).
    """
    if warmup is None:
        warmup = default_warmup(cycles)
    from repro.sim.batch import run_models
    from repro.sim.engine import compile_tgmg

    return run_models([compile_tgmg(tgmg)], [seed], cycles, warmup).result(0)


def simulate_throughput(
    source: Union[RRG, RRConfiguration],
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    tokens: Optional[Mapping[int, int]] = None,
    buffers: Optional[Mapping[int, int]] = None,
) -> float:
    """Estimate the actual throughput of an RRG or configuration by simulation.

    The RRG is first translated to its refined TGMG (Procedures 1 and 2), then
    simulated synchronously.  The returned value approximates Theta(RC); its
    accuracy grows with ``cycles``.  The run is one lane of
    :func:`repro.sim.batch.simulate_vectors`, so a seeded result is cached.
    """
    from repro.sim.batch import simulate_vectors

    rrg, token_vector, buffer_vector = source_vectors(source, tokens, buffers)
    return simulate_vectors(
        rrg, [(token_vector, buffer_vector)], cycles=cycles, warmup=warmup,
        seeds=[seed], mode="tgmg",
    )[0]
