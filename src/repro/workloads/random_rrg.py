"""Random RRG generation following the recipe of Section 5.

The paper derives its benchmarks from ISCAS89 circuit graph structures and
then randomises every attribute:

* each edge receives an initialised register (a token with its buffer) with
  probability 0.25,
* each node receives a combinational delay uniformly distributed in (0, 20],
* each node with more than one input is marked early-evaluating with
  probability 0.4, with random branch probabilities.

Two extra rules keep the generated graphs valid elastic systems:

* tokens are forced onto a feedback-edge set (one back edge of every cycle),
  so every directed cycle carries at least one token (liveness);
* branch probabilities are normalised to sum to one per early node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.rrg import RRG


@dataclass
class RandomRRGConfig:
    """Randomisation parameters of Section 5.

    Attributes:
        token_probability: Probability that an edge carries an initial token.
        delay_low: Exclusive lower bound of the node-delay distribution.
        delay_high: Inclusive upper bound of the node-delay distribution.
        early_probability: Probability that a multi-input node evaluates
            early.
        min_branch_probability: Floor applied to each branch probability
            before normalisation (gamma must be strictly positive).
    """

    token_probability: float = 0.25
    delay_low: float = 0.0
    delay_high: float = 20.0
    early_probability: float = 0.4
    min_branch_probability: float = 0.05


def _feedback_edges(edges: Sequence[Tuple[str, str]], nodes: Iterable[str]) -> Set[int]:
    """Indices of edges whose removal makes the graph acyclic (DFS back edges).

    Every directed cycle contains at least one back edge of any depth-first
    traversal, so forcing a token on each back edge guarantees liveness.
    """
    adjacency: Dict[str, List[Tuple[int, str]]] = {node: [] for node in nodes}
    for index, (src, dst) in enumerate(edges):
        adjacency[src].append((index, dst))

    color: Dict[str, int] = {node: 0 for node in adjacency}  # 0 white, 1 grey, 2 black
    back: Set[int] = set()

    for root in adjacency:
        if color[root] != 0:
            continue
        stack: List[Tuple[str, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, pointer = stack[-1]
            if pointer < len(adjacency[node]):
                stack[-1] = (node, pointer + 1)
                edge_index, target = adjacency[node][pointer]
                if color[target] == 0:
                    color[target] = 1
                    stack.append((target, 0))
                elif color[target] == 1:
                    back.add(edge_index)
            else:
                color[node] = 2
                stack.pop()
    return back


def randomize_rrg(
    structure: Sequence[Tuple[str, str]],
    nodes: Optional[Sequence[str]] = None,
    config: Optional[RandomRRGConfig] = None,
    seed: Optional[int] = None,
    name: str = "random-rrg",
) -> RRG:
    """Attach random delays, tokens and early-evaluation marks to a structure.

    Args:
        structure: Edge list (src, dst); parallel edges are allowed.
        nodes: Node names; inferred from the edge list when omitted.
        config: Randomisation parameters (defaults to the paper's values).
        seed: Seed of the pseudo-random generator (reproducible benchmarks).
        name: Name of the resulting RRG.
    """
    config = config or RandomRRGConfig()
    rng = random.Random(seed)
    if nodes is None:
        seen: List[str] = []
        seen_set: Set[str] = set()
        for src, dst in structure:
            if src not in seen_set:
                seen_set.add(src)
                seen.append(src)
            if dst not in seen_set:
                seen_set.add(dst)
                seen.append(dst)
        nodes = seen

    rrg = RRG(name)
    fanin: Dict[str, int] = {node: 0 for node in nodes}
    for _, dst in structure:
        fanin[dst] += 1

    for node in nodes:
        delay = rng.uniform(config.delay_low, config.delay_high)
        if delay <= config.delay_low:
            delay = config.delay_high * 0.5
        early = fanin[node] > 1 and rng.random() < config.early_probability
        rrg.add_node(node, delay=delay, early=early)

    forced_tokens = _feedback_edges(structure, nodes)
    branch_weights: Dict[str, List[Tuple[int, float]]] = {}
    for index, (src, dst) in enumerate(structure):
        tokens = 1 if index in forced_tokens else 0
        if tokens == 0 and rng.random() < config.token_probability:
            tokens = 1
        if rrg.node(dst).early:
            weight = config.min_branch_probability + rng.random()
            branch_weights.setdefault(dst, []).append((index, weight))
        # Branch probabilities are attached after normalisation below.
        rrg.add_edge(src, dst, tokens=tokens, buffers=tokens, probability=None)

    # Normalise branch probabilities per early node.
    for dst, weighted in branch_weights.items():
        total = sum(weight for _, weight in weighted)
        for index, weight in weighted:
            rrg.edge(index).probability = weight / total

    rrg.validate()
    return rrg


def random_structure(
    num_nodes: int,
    num_edges: int,
    seed: Optional[int] = None,
    multi_input_nodes: int = 0,
) -> List[Tuple[str, str]]:
    """Random strongly connected edge list with ``num_nodes`` nodes.

    The first ``num_nodes`` edges form a Hamiltonian cycle (which guarantees
    strong connectivity); the remaining edges are random, with a bias towards
    the ``multi_input_nodes`` first nodes so that enough nodes end up with
    more than one input (candidates for early evaluation).
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if num_edges < num_nodes:
        raise ValueError("need at least as many edges as nodes for a cycle")
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(num_nodes)]
    # Name -> position lookup once, up front: the self-loop redirection below
    # must stay O(1) per edge (a ``names.index`` scan there made the whole
    # generator quadratic, which is prohibitive at the large_rrg sizes).
    position = {name: i for i, name in enumerate(names)}
    order = list(names)
    rng.shuffle(order)
    edges: List[Tuple[str, str]] = [
        (order[i], order[(i + 1) % num_nodes]) for i in range(num_nodes)
    ]
    favoured = names[: multi_input_nodes or 0]
    for _ in range(num_edges - num_nodes):
        src = rng.choice(names)
        if favoured and rng.random() < 0.6:
            dst = rng.choice(favoured)
        else:
            dst = rng.choice(names)
        if dst == src:
            dst = names[(position[src] + 1) % num_nodes]
        edges.append((src, dst))
    return edges


def random_rrg(
    num_nodes: int,
    num_edges: int,
    config: Optional[RandomRRGConfig] = None,
    seed: Optional[int] = None,
    name: Optional[str] = None,
    multi_input_nodes: int = 0,
) -> RRG:
    """A random strongly connected RRG following the Section 5 recipe."""
    structure = random_structure(
        num_nodes, num_edges, seed=seed, multi_input_nodes=multi_input_nodes
    )
    return randomize_rrg(
        structure,
        nodes=[f"n{i}" for i in range(num_nodes)],
        config=config,
        seed=None if seed is None else seed + 1,
        name=name or f"random-{num_nodes}n-{num_edges}e",
    )


def large_random_rrg(
    num_nodes: int,
    edge_factor: float = 2.0,
    early_fraction: float = 0.2,
    token_probability: float = 0.25,
    seed: Optional[int] = None,
    name: Optional[str] = None,
) -> RRG:
    """A large random RRG for the heuristic-search workloads (``large_rrg``).

    The Section 5 recipe, parameterized the way the search subsystem needs:

    * ``num_nodes`` nodes with ``round(num_nodes * edge_factor)`` edges,
      biased so a fraction of the nodes collect multiple inputs (candidates
      for early evaluation);
    * ``early_fraction`` is the probability that a multi-input node becomes
      early-evaluating (the paper's recipe fixes 0.4; large sweeps want this
      as a knob);
    * generation and validation are both O(V + E): the structure generator,
      the attribute randomiser and the liveness check all stay linear, so a
      5000-node instance builds in well under a second.
    """
    if num_nodes < 2:
        raise ValueError("need at least two nodes")
    if edge_factor < 1.0:
        raise ValueError("edge_factor must be >= 1 (strong connectivity)")
    if not 0.0 <= early_fraction <= 1.0:
        raise ValueError("early_fraction must lie in [0, 1]")
    num_edges = max(num_nodes + 1, int(round(num_nodes * edge_factor)))
    config = RandomRRGConfig(
        token_probability=token_probability,
        early_probability=early_fraction,
    )
    return random_rrg(
        num_nodes,
        num_edges,
        config=config,
        seed=seed,
        name=name or f"large-{num_nodes}n-{num_edges}e",
        multi_input_nodes=max(2, num_nodes // 8),
    )
