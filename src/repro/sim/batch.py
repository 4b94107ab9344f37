"""Batch simulation API on top of the compiled models.

Entry points:

* :func:`simulate_vectors` — the one front door that turns lanes (token and
  buffer vectors of one RRG, each with a seed) into throughputs.  It keys
  every seeded lane with :func:`repro.sim.cache.throughput_key`, simulates
  each distinct seeded key once, answers repeats from the throughput cache
  and runs every miss in one :func:`run_models` batch.  Unseeded lanes are
  independent random samples: never deduped, never cached.  The gmg and
  elastic ``simulate_*throughput`` wrappers, the search's candidate
  evaluation and the optimization service all come through here.
* :func:`simulate_configurations` — many configurations of the *same* RRG
  as lanes of one :func:`simulate_vectors` call.
* :func:`simulate_replicas` — lanes of one configuration with seeds
  ``seed + i``, for variance estimation.

Every lane is simulated by :func:`run_models`, which runs a whole batch as
one call into the C kernel (lanes in parallel on the process's CPUs) or,
on the pure-python fallback, lane by lane through :class:`ScalarSimulator`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.configuration import RRConfiguration
from repro.core.rrg import RRG
from repro.gmg.build import source_vectors
from repro.gmg.simulation import default_warmup
from repro.sim import cache as _cache
from repro.sim import kernels as _kernels
from repro.sim.engine import BatchRunResult, CompiledModel, dense_lanes
from repro.sim.scalar import ScalarSimulator

Source = Union[RRG, RRConfiguration]
#: One per-edge vector: sparse ``{edge: count}`` or dense per-edge counts.
Vector = Union[Mapping[int, int], Sequence[int]]


def run_models(
    models: Sequence[CompiledModel],
    seeds: Sequence[Optional[int]],
    cycles: int,
    warmup: int,
) -> BatchRunResult:
    """Simulate one lane per compiled model (all of one structure).

    The single dispatcher of every compiled simulation.  When the
    generated-C kernel is loaded the whole batch is one
    :func:`repro.sim.kernels.run_windows` call, which runs the lanes on the
    process's CPUs; otherwise each lane runs through the pure-python
    :class:`ScalarSimulator`.  Both are bit-identical, so the backend never
    shows in the result — one window per lane, in input order.
    """
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    node_names = list(models[0].structure.node_names) if models else []
    if _kernels.native_active():
        firings, throughputs = _kernels.run_windows(models, seeds, cycles, warmup)
    else:
        windows: List[List[int]] = []
        throughputs = []
        for model, seed in zip(models, seeds):
            run = ScalarSimulator(model, seed=seed).run(cycles=cycles, warmup=warmup)
            windows.append(run.firings[0])
            throughputs.append(run.throughputs[0])
        firings = np.asarray(windows, dtype=np.int64).reshape(
            len(windows), len(node_names)
        )
    return BatchRunResult(
        node_names=node_names,
        cycles=cycles,
        warmup=warmup,
        firings=firings,
        throughputs=np.asarray(throughputs, dtype=np.float64),
    )


def simulate_vectors(
    rrg: RRG,
    vectors: Sequence[Tuple[Vector, Vector]],
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    mode: str = "tgmg",
    use_cache: bool = True,
) -> List[float]:
    """Throughputs of many (token, buffer) markings of one RRG.

    Each lane is a pair of sparse ``{edge: count}`` or dense per-edge
    vectors and runs with its own seed (``seeds[i]``; every lane is
    unseeded when ``seeds`` is None).  Values do not depend on how lanes
    are batched, deduped or cached; ``use_cache=False`` only skips the
    throughput cache (every distinct lane is simulated).
    """
    return _simulate_lanes(rrg, vectors, cycles, warmup, seeds, mode, use_cache)[0]


def _simulate_lanes(
    rrg: RRG,
    vectors: Sequence[Tuple[Vector, Vector]],
    cycles: int,
    warmup: Optional[int],
    seeds: Optional[Sequence[Optional[int]]],
    mode: str,
    use_cache: bool = True,
) -> Tuple[List[float], int]:
    """:func:`simulate_vectors` plus how many lanes it actually simulated."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if warmup is None:
        warmup = default_warmup(cycles)
    lane_seeds = list(seeds) if seeds is not None else [None] * len(vectors)
    if len(lane_seeds) != len(vectors):
        raise ValueError("need one seed per lane")
    if not vectors:
        return [], 0

    # Seeded lanes are deterministic: equal keys share one value, looked up
    # once.  An unseeded lane is its own independent sample, keyed by its
    # lane index (never a cache key, never shared).
    fingerprint = _cache.rrg_fingerprint(rrg)
    keys: List[Union[int, Tuple]] = []
    values: Dict[Union[int, Tuple], float] = {}
    misses: List[int] = []
    for lane, ((tokens, buffers), seed) in enumerate(zip(vectors, lane_seeds)):
        if seed is None:
            keys.append(lane)
            misses.append(lane)
            continue
        key = _cache.throughput_key(
            fingerprint, mode, tokens, buffers, cycles, warmup, seed
        )
        keys.append(key)
        if key in values:
            continue
        hit = _cache.cached_throughput(key) if use_cache else None
        if hit is None:
            misses.append(lane)
            hit = np.nan  # placeholder until the batch below runs
        values[key] = float(hit)

    if misses:
        template = _cache.compiled_template_for(rrg, mode=mode)
        width = template.num_source_edges
        models = template.instantiate_batch(
            dense_lanes([vectors[lane][0] for lane in misses], width),
            dense_lanes([vectors[lane][1] for lane in misses], width),
        )
        throughputs = run_models(
            models, [lane_seeds[lane] for lane in misses], cycles, warmup
        ).throughputs
        for lane, value in zip(misses, throughputs.tolist()):
            values[keys[lane]] = value
            if use_cache and lane_seeds[lane] is not None:
                _cache.store_throughput(keys[lane], value)
    return [values[key] for key in keys], len(misses)


def simulate_configurations(
    configurations: Sequence[RRConfiguration],
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    mode: str = "tgmg",
) -> List[float]:
    """Simulate many configurations of the same RRG in one batched run.

    All configurations must share the base graph structure (same nodes,
    edges and probabilities); they may differ arbitrarily in token/buffer
    vectors.  Lane ``i`` runs with ``seeds[i]`` (default: ``seed`` for
    every lane), so each value equals a one-configuration
    :func:`repro.gmg.simulation.simulate_throughput` call with that seed.

    Returns one throughput per configuration, in input order.
    """
    if not configurations:
        return []
    lane_seeds = list(seeds) if seeds is not None else [seed] * len(configurations)
    base = configurations[0].rrg
    fingerprint = _cache.rrg_fingerprint(base)
    for configuration in configurations:
        if configuration.rrg is not base and (
            _cache.rrg_fingerprint(configuration.rrg) != fingerprint
        ):
            raise ValueError(
                "simulate_configurations requires configurations of the same RRG"
            )
    vectors = [
        (configuration.token_vector(), configuration.buffer_vector())
        for configuration in configurations
    ]
    return simulate_vectors(
        base, vectors, cycles=cycles, warmup=warmup, seeds=lane_seeds, mode=mode
    )


def simulate_replicas(
    source: Source,
    replicas: int,
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    mode: str = "tgmg",
) -> np.ndarray:
    """Simulate ``replicas`` independent runs of one configuration.

    Returns the per-replica throughput estimates (useful for confidence
    intervals on the sampling noise).  Replica ``i`` runs with seed
    ``seed + i`` — the value a one-lane :func:`simulate_vectors` call with
    that seed returns — and every replica is unseeded when ``seed`` is None.
    """
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    rrg, token_vector, buffer_vector = source_vectors(source)
    seeds: List[Optional[int]] = (
        [None] * replicas if seed is None else [seed + i for i in range(replicas)]
    )
    return np.asarray(simulate_vectors(
        rrg, [(token_vector, buffer_vector)] * replicas, cycles=cycles,
        warmup=warmup, seeds=seeds, mode=mode,
    ))
