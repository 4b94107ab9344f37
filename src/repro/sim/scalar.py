"""Event-driven single-lane engine over a compiled model (the python fallback).

The reference simulators sweep every node until nothing fires; this engine
instead advances one lane with event-driven bookkeeping:

* every node keeps a **deficit counter** (number of in-edges whose marking is
  below 1); a simple node is enabled exactly when its deficit is zero;
* every marking change checks the single threshold crossing (``< 1`` vs
  ``>= 1``) and updates the consumer's deficit, pushing newly-enabled nodes
  onto a worklist — so a cycle costs O(firings + edges touched), not
  O(nodes x sweeps) like the reference simulators;
* delayed production goes through a ring of arrival buckets (lists of edge
  ids, no per-token shift registers).

Guard sampling uses ``random.Random``-compatible tables, so a run is
firing-for-firing identical to :class:`repro.gmg.simulation.TGMGSimulator` /
:class:`repro.elastic.simulator.ElasticSimulator` under a shared seed.

:meth:`ScalarSimulator.step` is the loop the generated-C kernel of
:mod:`repro.sim.kernels` mirrors statement for statement;
:func:`repro.sim.batch.run_models` runs lanes through this class only when
that kernel is not loaded.
"""

from __future__ import annotations

import random
from bisect import bisect
from typing import List, Optional

import numpy as np

from repro.sim import kernels as _kernels
from repro.sim.engine import BatchRunResult, CompiledModel


class ScalarSimulator:
    """Single-lane event-driven simulator for a :class:`CompiledModel`."""

    def __init__(self, model: CompiledModel, seed: Optional[int] = None) -> None:
        structure = model.structure
        self._s = structure
        self._seed = seed
        self._num_nodes = structure.num_nodes
        # Structure-level lists come from the shared kernel plan, so the
        # O(V + E) numpy-scalar conversions happen once per structure, not
        # once per candidate evaluation.
        plan = _kernels.plan_for(structure)
        self._cons = plan.cons_list
        self._in_edges = plan.in_edges
        latency = np.asarray(model.latency).tolist()
        out_lists = plan.out_lists
        # Split each node's out-edges into combinational (latency 0) and
        # delayed (latency >= 1, paired with the latency).
        self._out_zero = [
            tuple(e for e in lst if latency[e] == 0) for lst in out_lists
        ]
        self._out_delayed = [
            tuple((e, latency[e]) for e in lst if latency[e] > 0) for lst in out_lists
        ]
        self._depth = max(latency) + 1 if latency else 1
        self._marking0 = np.asarray(model.marking0).tolist()

        self._is_early = plan.is_early
        self._early_nodes = plan.early_nodes_list
        self._early_slot = plan.early_slot_list
        self._guards = structure.guards
        self.reset()

    def reset(self) -> None:
        """Restore the initial marking and clear all statistics."""
        self.marking = list(self._marking0)
        self.cycle = 0
        self.firings = [0] * self._num_nodes
        self._rng = random.Random(self._seed)
        self._pending = [-1] * len(self._early_nodes)
        self._arrivals: List[List[int]] = [[] for _ in range(self._depth)]
        # Deficits and the persistent ready list of zero-deficit simple nodes.
        marking = self.marking
        self._deficit = [
            sum(1 for e in edges if marking[e] < 1) for edges in self._in_edges
        ]
        # Simple nodes whose deficit is zero at a cycle boundary; next cycle's
        # worklist starts from exactly this set (early nodes are re-checked
        # through their guard each cycle instead).
        self._next_ready = [
            node
            for node in range(self._num_nodes)
            if self._deficit[node] == 0 and not self._is_early[node]
        ]

    # -- single cycle ----------------------------------------------------------

    def step(self, record: bool = False) -> Optional[List[int]]:
        """Advance one clock cycle; optionally return the fired node ids."""
        marking = self.marking
        deficit = self._deficit
        cons = self._cons
        is_early = self._is_early
        pending = self._pending
        early_slot = self._early_slot
        fired = [False] * self._num_nodes
        # The worklist starts from the simple nodes whose deficit was zero at
        # the last cycle boundary; a node enabled at a boundary stays enabled
        # until it fires, so nothing else needs a fresh scan.
        queue = self._next_ready
        self._next_ready = next_ready = []

        # 1. Deliver tokens whose latency elapsed this cycle.  The bucket is
        # drained and reused in place: phase 3 only ever appends to *future*
        # slots (latency >= 1), so clearing after the scan is safe and the
        # ring never allocates after reset.
        slot = self.cycle % self._depth
        bucket = self._arrivals[slot]
        if bucket:
            for edge in bucket:
                value = marking[edge]
                marking[edge] = value + 1
                if value == 0:  # crossed into >= 1
                    consumer = cons[edge]
                    if is_early[consumer]:
                        if pending[early_slot[consumer]] == edge:
                            queue.append(consumer)
                    else:
                        remaining = deficit[consumer] - 1
                        deficit[consumer] = remaining
                        if remaining == 0:
                            queue.append(consumer)
            bucket.clear()

        # 2. Early nodes without a held guard sample one, in node order (the
        #    same RNG stream as the reference simulators).
        if self._early_nodes:
            rng_random = self._rng.random
            guards = self._guards
            for position, node in enumerate(self._early_nodes):
                guard = pending[position]
                if guard < 0:
                    table = guards[position]
                    guard = table.edges[
                        bisect(
                            table.cum_weights, rng_random() * table.total, 0, table.hi
                        )
                    ]
                    pending[position] = guard
                if marking[guard] >= 1:
                    queue.append(node)

        # 3. Fire to a fixpoint.  Every marking change updates the consumer's
        #    deficit on a < 1 threshold crossing and enqueues newly-enabled
        #    nodes, so no sweeps over the full node set are needed.
        firings = self.firings
        fired_order: List[int] = [] if record else None  # type: ignore[assignment]
        arrivals = self._arrivals
        depth = self._depth
        cycle = self.cycle
        in_edges = self._in_edges
        out_zero = self._out_zero
        out_delayed = self._out_delayed
        while queue:
            node = queue.pop()
            if fired[node]:
                continue
            if is_early[node]:
                if marking[pending[early_slot[node]]] < 1:
                    continue
            elif deficit[node] != 0:
                continue
            fired[node] = True
            firings[node] += 1
            if record:
                fired_order.append(node)
            for edge in in_edges[node]:
                value = marking[edge] - 1
                marking[edge] = value
                if value == 0:  # crossed below 1; the consumer is this node
                    deficit[node] += 1
            if is_early[node]:
                pending[early_slot[node]] = -1
            for edge in out_zero[node]:
                value = marking[edge]
                marking[edge] = value + 1
                if value == 0:
                    consumer = cons[edge]
                    if is_early[consumer]:
                        if pending[early_slot[consumer]] == edge:
                            queue.append(consumer)
                    else:
                        remaining = deficit[consumer] - 1
                        deficit[consumer] = remaining
                        if remaining == 0:
                            if fired[consumer]:
                                next_ready.append(consumer)
                            else:
                                queue.append(consumer)
            for edge, latency in out_delayed[node]:
                arrivals[(cycle + latency) % depth].append(edge)
            if deficit[node] == 0:
                next_ready.append(node)

        self.cycle = cycle + 1
        return fired_order if record else None

    # -- full runs -------------------------------------------------------------

    def run(self, cycles: int, warmup: int = 0) -> BatchRunResult:
        """Simulate ``warmup + cycles`` cycles; measure over the last ``cycles``."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        step = self.step
        for _ in range(warmup):
            step()
        baseline = list(self.firings)
        for _ in range(cycles):
            step()
        window = [now - then for now, then in zip(self.firings, baseline)]
        rates = [count / cycles for count in window]
        throughput = sum(rates) / len(rates) if rates else 0.0
        return BatchRunResult(
            node_names=list(self._s.node_names),
            cycles=cycles,
            warmup=warmup,
            firings=np.asarray([window], dtype=np.int64),
            throughputs=np.asarray([throughput], dtype=np.float64),
        )

    # -- conveniences ----------------------------------------------------------

    def fired_names(self, fired_order: List[int]) -> List[str]:
        """Node names of a recorded fired list."""
        names = self._s.node_names
        return [names[node] for node in fired_order]
