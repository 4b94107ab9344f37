"""Cycle-accurate simulation of a structural elastic circuit.

This simulator is the reproduction's stand-in for the paper's Verilog
simulations.  It is an independent implementation of the same handshake
semantics as the TGMG simulator (:mod:`repro.gmg.simulation`); the test-suite
cross-checks that both estimate the same steady-state throughput.

:class:`ElasticSimulator` is kept as a *reference semantics oracle*: the
compiled engine in :mod:`repro.sim` simulates the same circuit state (channel
markings, EB-chain latencies, early-join selections) as flat arrays and is
cross-checked against it firing-for-firing.  The
:func:`simulate_elastic_throughput` wrapper runs the compiled engine, which
is bit-identical under the same seed; run the structural simulator by
constructing :class:`ElasticSimulator` directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.core.configuration import RRConfiguration
from repro.core.rrg import RRG
from repro.elastic.circuit import ElasticCircuit
from repro.gmg.build import source_vectors
from repro.gmg.simulation import default_warmup


@dataclass
class ElasticSimulationResult:
    """Outcome of an elastic-circuit simulation.

    Attributes:
        throughput: Average firings per node per measured cycle.
        cycles: Measured cycles (after warm-up).
        warmup: Warm-up cycles discarded before measuring.
        firings: Per-node firing counts over the measured window.
    """

    throughput: float
    cycles: int
    warmup: int
    firings: Dict[str, int] = field(default_factory=dict)

    def rate(self, node: str) -> float:
        return self.firings[node] / self.cycles if self.cycles else 0.0


class ElasticSimulator:
    """Run a structural elastic circuit cycle by cycle."""

    def __init__(
        self,
        source: Union[RRG, RRConfiguration, ElasticCircuit],
        seed: Optional[int] = None,
    ) -> None:
        if isinstance(source, ElasticCircuit):
            self.circuit = source
        else:
            self.circuit = ElasticCircuit.from_source(source)
        self.rng = random.Random(seed)
        self.cycle = 0

    def step(self) -> int:
        """Advance one clock cycle; returns the number of blocks that fired."""
        circuit = self.circuit

        # 1. Clock every EB chain: tokens pushed last cycle enter the chain,
        #    tokens completing their last stage become visible to consumers.
        for hardware in circuit.edges.values():
            if hardware.chain.length == 0:
                continue
            emerged = hardware.chain.advance(hardware.pending_push)
            hardware.pending_push = False
            if emerged:
                hardware.channel.deliver()

        # 2. Fire controllers to a fixpoint; zero-buffer channels propagate
        #    combinationally, so a firing can enable another block this cycle.
        fired_total = 0
        fired = set()
        progress = True
        while progress:
            progress = False
            for name, controller in circuit.controllers.items():
                if name in fired:
                    continue
                if not controller.fire(self.rng):
                    continue
                fired.add(name)
                fired_total += 1
                progress = True
                for channel in circuit.forks[name].distribute():
                    hardware = circuit.edges[channel.index]
                    if hardware.chain.length == 0:
                        channel.deliver()
                    else:
                        hardware.pending_push = True

        self.cycle += 1
        return fired_total

    def run(
        self, cycles: int = 10000, warmup: Optional[int] = None
    ) -> ElasticSimulationResult:
        """Simulate and measure the throughput over the last ``cycles`` cycles."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        if warmup is None:
            warmup = default_warmup(cycles)
        for _ in range(warmup):
            self.step()
        baseline = {
            name: controller.firings
            for name, controller in self.circuit.controllers.items()
        }
        for _ in range(cycles):
            self.step()
        window = {
            name: controller.firings - baseline[name]
            for name, controller in self.circuit.controllers.items()
        }
        rates = [count / cycles for count in window.values()]
        throughput = sum(rates) / len(rates) if rates else 0.0
        return ElasticSimulationResult(
            throughput=throughput, cycles=cycles, warmup=warmup, firings=window
        )


def simulate_elastic_throughput(
    source: Union[RRG, RRConfiguration],
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
) -> float:
    """Convenience wrapper returning just the estimated throughput.

    One ``mode="elastic"`` lane of :func:`repro.sim.batch.simulate_vectors`:
    the compiled engine on the same circuit semantics (bit-identical to
    :class:`ElasticSimulator` under the same seed).
    """
    from repro.sim.batch import simulate_vectors

    rrg, token_vector, buffer_vector = source_vectors(source)
    return simulate_vectors(
        rrg, [(token_vector, buffer_vector)], cycles=cycles, warmup=warmup,
        seeds=[seed], mode="elastic",
    )[0]
