"""Objective evaluation and move generation for the search subsystem.

The objective is the measured effective cycle time ``xi = tau / Theta``:

* ``tau`` — cycle time, recomputed incrementally per candidate as an
  array-based longest-path sweep over the zero-buffer subgraph (O(V + E)
  with no graph copies; the same sweep also yields the critical edges that
  focus move generation);
* ``Theta`` — throughput, measured by the compiled :mod:`repro.sim` engine:
  a pool's surviving candidates are the lanes of one
  :func:`repro.sim.batch.simulate_vectors` call, so the template is
  compiled once per RRG, equal candidates are simulated once and revisited
  configurations are throughput-cache lookups.

Every evaluation is a lane of :meth:`SearchProblem.evaluate_batch`
(:meth:`SearchProblem.evaluate` is its one-lane form).  Two admissible
filters prune candidates there, before the (dominant) simulation cost:

* ``tau`` itself: ``Theta <= 1`` always, so ``xi >= tau`` — a candidate
  whose cycle time already exceeds the incumbent's ``xi`` cannot win;
* the LP throughput bound (:mod:`repro.gmg.lp_bound`): ``Theta <= Theta_lp``
  gives ``xi >= tau / Theta_lp``.  The LP is itself a solve, so this filter
  is only armed on graphs below ``lp_filter_max_nodes``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.graphs import zero_edge_arrivals
from repro.core.rrg import RRG
from repro.gmg.build import build_template
from repro.lp import Model, SolveStatus
from repro.search.state import BUBBLE, RETIME, Move, SearchState
from repro.sim import batch as _sim_batch
from repro.sim import cache as _sim_cache

#: Default node count up to which the LP admissible filter is armed (above
#: it the LP solve outweighs the simulation it would save).  Shared with the
#: Optimize stage, which uses the same threshold to decide whether Pareto
#: points carry an LP bound or the measured throughput.
LP_FILTER_MAX_NODES = 160


@dataclass(frozen=True)
class Evaluation:
    """One candidate's measured objective."""

    cycle_time: float
    throughput: float

    @property
    def effective_cycle_time(self) -> float:
        if self.throughput <= 0:
            return math.inf
        return self.cycle_time / self.throughput


class SearchProblem:
    """Shared evaluation context of one search run.

    Args:
        rrg: The base graph (validated by the caller).
        cycles: Measured simulation cycles per evaluation.
        warmup: Warm-up cycles (default ``cycles // 4``; short on purpose —
            the search ranks candidates, it does not publish throughputs).
        seed: Seed shared by every candidate simulation, so two evaluations
            of the same configuration return the same number and the
            throughput cache applies.
        mode: Simulation mode (``"tgmg"`` or ``"elastic"``).
        lp_filter_max_nodes: Arm the LP admissible filter only below this
            node count (the LP solve outweighs the simulation above it).
    """

    def __init__(
        self,
        rrg: RRG,
        cycles: int = 256,
        warmup: Optional[int] = None,
        seed: int = 0,
        mode: str = "tgmg",
        lp_filter_max_nodes: int = LP_FILTER_MAX_NODES,
    ) -> None:
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        self.rrg = rrg
        self.cycles = int(cycles)
        self.warmup = int(warmup) if warmup is not None else max(32, cycles // 4)
        self.seed = seed
        self.mode = mode
        _sim_cache.compiled_template_for(rrg, mode=mode)  # validates mode
        self.delays: List[float] = [node.delay for node in rrg.nodes]
        self.lp_filter = rrg.num_nodes <= int(lp_filter_max_nodes)
        self._tgmg_template = build_template(rrg, refine=True) if self.lp_filter else None
        # Dense structure arrays for the multi-lane cycle-time sweep: edge
        # endpoints plus a CSR of out-edges grouped by source node.
        node_pos = {name: i for i, name in enumerate(rrg.node_names)}
        edge_src = [node_pos[edge.src] for edge in rrg.edges]
        edge_dst = [node_pos[edge.dst] for edge in rrg.edges]
        self._edge_src_arr = np.asarray(edge_src, dtype=np.int64)
        self._edge_dst_arr = np.asarray(edge_dst, dtype=np.int64)
        self._delays_arr = np.asarray(self.delays, dtype=np.float64)
        order = np.argsort(self._edge_src_arr, kind="stable")
        self._out_idx = order
        counts = np.bincount(self._edge_src_arr, minlength=rrg.num_nodes)
        self._out_ptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        # Nodes whose retiming moves actually change some token vector: a
        # node touching only self-loops shifts lags without moving a single
        # register, so its "move" would duplicate the current state.
        retimable = [False] * rrg.num_nodes
        for src, dst in zip(edge_src, edge_dst):
            if src != dst:
                retimable[src] = True
                retimable[dst] = True
        self._retimable = retimable
        # Accounting (exposed in SearchResult).
        self.evaluations = 0
        self.simulations = 0
        self.pruned_tau = 0
        self.pruned_lp = 0
        self.lp_solves = 0

    # -- cycle time ------------------------------------------------------------

    def critical_edges(self, state: SearchState) -> List[int]:
        """Zero-buffer edges on maximum-delay combinational paths.

        Backward reachability from the maximum-arrival nodes along *tight*
        edges (``arrival[dst] == arrival[src] + delay[dst]``).  These are the
        edges where a bubble cuts the critical path — and their endpoints are
        where register shifts can.
        """
        arrival = zero_edge_arrivals(
            self.delays, state.edge_src, state.edge_dst, state.buffers
        )
        if arrival is None:
            raise ValueError(
                "state has a zero-buffer cycle (infeasible configuration)"
            )
        tau = max(arrival) if arrival else 0.0
        delays = self.delays
        buffers = state.buffers
        edge_src, edge_dst = state.edge_src, state.edge_dst
        tight_in: List[List[Tuple[int, int]]] = [[] for _ in delays]
        for edge in range(len(buffers)):
            if buffers[edge] == 0:
                src, dst = edge_src[edge], edge_dst[edge]
                if abs(arrival[dst] - arrival[src] - delays[dst]) <= 1e-9:
                    tight_in[dst].append((edge, src))
        on_path = [abs(arrival[n] - tau) <= 1e-9 for n in range(len(delays))]
        stack = [n for n in range(len(delays)) if on_path[n]]
        critical: List[int] = []
        while stack:
            node = stack.pop()
            for edge, src in tight_in[node]:
                critical.append(edge)
                if not on_path[src]:
                    on_path[src] = True
                    stack.append(src)
        critical.sort()
        return critical

    # -- the objective ---------------------------------------------------------

    def evaluate(self, state: SearchState) -> Evaluation:
        """Cycle time and simulated throughput: the one-lane :meth:`evaluate_batch`.

        Raises ``ValueError`` when the state has a zero-buffer cycle.
        """
        [evaluation] = self.evaluate_batch([state])
        if not math.isfinite(evaluation.cycle_time):
            raise ValueError(
                "state has a zero-buffer cycle (infeasible configuration)"
            )
        return evaluation

    # -- batched evaluation ----------------------------------------------------

    def cycle_times_batch(self, states: Sequence[SearchState]) -> np.ndarray:
        """Cycle time of every state in one level-synchronized array sweep.

        Lanes share the edge structure and differ only in buffer vectors, so
        the Kahn sweep over each lane's zero-buffer subgraph runs as one
        array program: a joint (lane, node) frontier expands along the CSR of
        out-edges, relaxes arrivals with ``np.maximum.at`` and retires
        in-degrees with ``np.subtract.at``.  The arrival of a node is the max
        over the same float additions a serial longest-path sweep performs.

        Infeasible lanes (a zero-buffer cycle) yield ``math.inf`` — batch
        callers rank candidates and an unreachable one simply never wins.
        """
        num_lanes = len(states)
        num_nodes = len(self.delays)
        if num_lanes == 0 or num_nodes == 0:
            return np.zeros(num_lanes, dtype=np.float64)
        delays = self._delays_arr
        src = self._edge_src_arr
        dst = self._edge_dst_arr
        out_ptr, out_idx = self._out_ptr, self._out_idx
        zero = np.asarray([state.buffers for state in states], dtype=np.int64) == 0
        indegree = np.zeros((num_lanes, num_nodes), dtype=np.int64)
        lanes_z, edges_z = np.nonzero(zero)
        np.add.at(indegree, (lanes_z, dst[edges_z]), 1)
        arrival = np.tile(delays, (num_lanes, 1))
        processed = np.zeros(num_lanes, dtype=np.int64)
        lane_front, node_front = np.nonzero(indegree == 0)
        while lane_front.size:
            processed += np.bincount(lane_front, minlength=num_lanes)
            counts = out_ptr[node_front + 1] - out_ptr[node_front]
            total = int(counts.sum())
            if total == 0:
                break
            # Flat expansion of every frontier node's out-edge slice.
            starts = np.cumsum(counts) - counts
            edge_flat = out_idx[
                np.repeat(out_ptr[node_front] - starts, counts)
                + np.arange(total)
            ]
            lane_flat = np.repeat(lane_front, counts)
            keep = zero[lane_flat, edge_flat]
            lane_flat, edge_flat = lane_flat[keep], edge_flat[keep]
            if not lane_flat.size:
                break
            dst_flat = dst[edge_flat]
            np.maximum.at(
                arrival,
                (lane_flat, dst_flat),
                arrival[lane_flat, src[edge_flat]] + delays[dst_flat],
            )
            np.subtract.at(indegree, (lane_flat, dst_flat), 1)
            # A node joins the frontier the moment its last zero in-edge is
            # retired; after that nothing touches it again, so checking the
            # unique pairs of this wave finds each node exactly once.
            touched = np.unique(lane_flat * num_nodes + dst_flat)
            ready = touched[indegree.reshape(-1)[touched] == 0]
            lane_front, node_front = ready // num_nodes, ready % num_nodes
        taus = arrival.max(axis=1)
        taus[processed < num_nodes] = math.inf
        return taus

    def evaluate_batch(
        self,
        states: Sequence[SearchState],
        threshold: Optional[float] = None,
    ) -> List[Optional[Evaluation]]:
        """Evaluate a pool of candidate states as lanes of one batch.

        With ``threshold`` a lane is pruned (comes back ``None``) when an
        admissible bound proves ``xi >= threshold``: ``tau >= threshold``
        (``Theta <= 1``), or, with the LP filter armed and a finite
        threshold, ``tau / Theta_lp >= threshold``.  Surviving lanes are
        simulated through :func:`repro.sim.batch.simulate_vectors`.

        Counters: one evaluation per lane whether or not it is pruned (the
        racer budgets evaluation *attempts*, which keeps run lengths
        deterministic whether or not the filters fire) and one simulation
        per *distinct* uncached configuration (duplicate lanes and cache
        hits are free).

        Infeasible lanes never raise: under a threshold they are pruned
        (``tau = inf``), otherwise they evaluate to ``xi = inf``.
        """
        results: List[Optional[Evaluation]] = [None] * len(states)
        if not states:
            return results
        self.evaluations += len(states)
        taus = self.cycle_times_batch(states)
        survivors: List[int] = []
        for index, state in enumerate(states):
            tau = float(taus[index])
            if threshold is not None:
                if tau >= threshold:
                    self.pruned_tau += 1
                    continue
                if self.lp_filter and threshold < math.inf:
                    bound = self.lp_bound(state)
                    if bound > 0 and tau / bound >= threshold:
                        self.pruned_lp += 1
                        continue
            elif not math.isfinite(tau):
                # A zero-buffer cycle deadlocks the circuit: Theta = 0.
                results[index] = Evaluation(cycle_time=tau, throughput=0.0)
                continue
            survivors.append(index)
        if not survivors:
            return results
        throughputs, simulated = _sim_batch._simulate_lanes(
            self.rrg,
            [(states[i].tokens, states[i].buffers) for i in survivors],
            self.cycles,
            self.warmup,
            [self.seed] * len(survivors),
            self.mode,
        )
        self.simulations += simulated
        for index, value in zip(survivors, throughputs):
            results[index] = Evaluation(
                cycle_time=float(taus[index]), throughput=value
            )
        return results

    def lp_bound(self, state: SearchState) -> float:
        """Theta_lp of the state (LP (11) over the shared TGMG template)."""
        from repro.core.throughput import add_throughput_constraints

        self.lp_solves += 1
        model = Model(f"{self.rrg.name}-search-lp", sense="min")
        x = model.add_var("x", lb=1.0)
        add_throughput_constraints(
            model,
            self.rrg,
            buffers=state.buffer_vector(),
            x=x,
            tokens=state.token_vector(),
            template=self._tgmg_template,
        )
        model.set_objective(x)
        solution = model.solve()
        if solution.status is not SolveStatus.OPTIMAL:
            return 1.0  # an unusable bound must never prune
        return 1.0 / float(solution[x])

    # -- move generation -------------------------------------------------------

    def sample_moves(
        self, state: SearchState, rng: random.Random, size: int
    ) -> List[Move]:
        """Up to ``size`` legal candidate moves, critical-cycle focused.

        The pool mixes bubble insertions on critical zero-buffer edges
        (cutting ``tau``), register shifts at their endpoints (moving
        registers onto the critical path without the throughput cost of a
        bubble) and bubble removals anywhere (recovering throughput).  The
        pool order is deterministic; ``rng`` only subsamples it.

        The pool never repeats a move key and never contains a no-op (a
        retiming that only shifts lags), so every entry maps to a distinct
        candidate configuration — batched evaluation gets one lane per
        genuinely new state instead of burning lanes on duplicates.
        """
        critical = self.critical_edges(state)
        retimes: List[Move] = []
        bubbles: List[Move] = []
        seen = set()
        retimable = self._retimable

        def add(pool: List[Move], move: Move) -> None:
            if move.kind == RETIME and not retimable[move.target]:
                return
            key = (move.kind, move.target, move.delta)
            if key not in seen and state.can_apply(move):
                seen.add(key)
                pool.append(move)

        nodes_seen: List[int] = []
        node_mark = set()
        for edge in critical:
            add(bubbles, Move(BUBBLE, edge, +1))
            for node in (state.edge_src[edge], state.edge_dst[edge]):
                if node not in node_mark:
                    node_mark.add(node)
                    nodes_seen.append(node)
        for node in nodes_seen:
            add(retimes, Move(RETIME, node, +1))
            add(retimes, Move(RETIME, node, -1))
        bubbled = [
            edge for edge in range(len(state.buffers)) if state.bubbles(edge) > 0
        ]
        if bubbled:
            for edge in (
                bubbled if len(bubbled) <= size
                else rng.sample(bubbled, size)
            ):
                add(bubbles, Move(BUBBLE, edge, -1))
        # Balance the sample across move kinds: register shifts preserve
        # throughput (the cheap wins) while bubbles trade it — a uniform
        # draw from the merged pool would drown the few legal retimings.
        rng.shuffle(retimes)
        rng.shuffle(bubbles)
        sample: List[Move] = []
        while len(sample) < size and (retimes or bubbles):
            if retimes:
                sample.append(retimes.pop())
            if len(sample) < size and bubbles:
                sample.append(bubbles.pop())
        return sample

    def random_walk(
        self, state: SearchState, rng: random.Random, steps: int
    ) -> None:
        """Perturb a state in place with ``steps`` random legal moves."""
        for _ in range(steps):
            moves = self.sample_moves(state, rng, size=8)
            if not moves:
                return
            state.apply(rng.choice(moves))
