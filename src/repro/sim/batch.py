"""Batch simulation API on top of the compiled models.

Entry points:

* :func:`simulate_throughput_vector` — single-configuration throughput with
  template reuse and the throughput cache; this is what
  :func:`repro.gmg.simulation.simulate_throughput` and
  :func:`repro.elastic.simulator.simulate_elastic_throughput` call.
* :func:`simulate_configurations` — many configurations of the *same* RRG
  in one batch (lanes differ only in marking/latency vectors).  With the
  default shared seed each lane is bit-identical to a serial single run.
* :func:`simulate_replicas` — many independently-seeded replicas of one
  configuration, for variance estimation.

Every entry point simulates through :func:`run_models`, which runs a whole
batch as one call into the C kernel (lanes in parallel on the process's
CPUs) or, on the pure-python fallback, lane by lane through
:class:`ScalarSimulator`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.configuration import RRConfiguration
from repro.core.rrg import RRG
from repro.sim import cache as _cache
from repro.sim import kernels as _kernels
from repro.sim.engine import BatchRunResult, CompiledModel
from repro.sim.scalar import ScalarSimulator

Source = Union[RRG, RRConfiguration]


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


def default_warmup(cycles: int) -> int:
    """The warmup the wrappers use when none is given (reference default)."""
    return max(200, cycles // 10)


# Historical private name, kept for callers inside the package.
_default_warmup = default_warmup


def _resolve_vectors(
    source: Source,
    tokens: Optional[Dict[int, int]] = None,
    buffers: Optional[Dict[int, int]] = None,
) -> Tuple[RRG, Dict[int, int], Dict[int, int]]:
    if isinstance(source, RRConfiguration):
        rrg = source.rrg
        token_vector = source.token_vector()
        buffer_vector = source.buffer_vector()
    else:
        rrg = source
        token_vector = source.token_vector()
        buffer_vector = source.buffer_vector()
    if tokens is not None:
        token_vector.update({int(k): int(v) for k, v in tokens.items()})
    if buffers is not None:
        buffer_vector.update({int(k): int(v) for k, v in buffers.items()})
    return rrg, token_vector, buffer_vector


def simulate_throughput_vector(
    source: Source,
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    tokens: Optional[Dict[int, int]] = None,
    buffers: Optional[Dict[int, int]] = None,
    mode: str = "tgmg",
    use_cache: bool = True,
) -> float:
    """Estimate one configuration's throughput through the compiled engine."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if warmup is None:
        warmup = _default_warmup(cycles)
    # An unseeded run must stay an independent random sample; only seeded
    # (deterministic) results are cacheable.
    if seed is None:
        use_cache = False
    rrg, token_vector, buffer_vector = _resolve_vectors(source, tokens, buffers)
    fingerprint = _cache.rrg_fingerprint(rrg)
    key = _cache.throughput_key(
        fingerprint, mode, token_vector, buffer_vector, cycles, warmup, seed
    )
    if use_cache:
        hit = _cache.cached_throughput(key)
        if hit is not None:
            return hit
    template = _cache.compiled_template_for(rrg, mode=mode)
    model = template.instantiate(token_vector, buffer_vector)
    value = float(run_models([model], [seed], cycles, warmup).throughputs[0])
    if use_cache:
        _cache.store_throughput(key, value)
    return value


def simulate_configurations(
    configurations: Sequence[RRConfiguration],
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seed: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    mode: str = "tgmg",
    use_cache: bool = True,
) -> List[float]:
    """Simulate many configurations of the same RRG in one batched run.

    All configurations must share the base graph structure (same nodes,
    edges and probabilities); they may differ arbitrarily in token/buffer
    vectors.  Each lane runs with its own ``random.Random`` seeded by ``seed``
    (or ``seeds[i]``), so the returned values are bit-identical to serial
    :func:`simulate_throughput_vector` calls.

    Returns one throughput per configuration, in input order.
    """
    if not configurations:
        return []
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if warmup is None:
        warmup = _default_warmup(cycles)
    lane_seeds = list(seeds) if seeds is not None else [seed] * len(configurations)
    if len(lane_seeds) != len(configurations):
        raise ValueError("need one seed per configuration")

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
        base,
        vectors,
        cycles=cycles,
        warmup=warmup,
        seeds=lane_seeds,
        mode=mode,
        use_cache=use_cache,
    )


def simulate_vectors(
    rrg: RRG,
    vectors: Sequence[Tuple[Dict[int, int], Dict[int, int]]],
    cycles: int = 10000,
    warmup: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    mode: str = "tgmg",
    use_cache: bool = True,
) -> List[float]:
    """Simulate many (token, buffer) markings of one RRG in one batched run.

    The marking-level core of :func:`simulate_configurations`, exposed for
    callers (the optimization service) whose lanes are described by raw
    vectors rather than :class:`RRConfiguration` objects.  Each lane runs
    with its own ``random.Random``, so results are bit-identical to serial
    :func:`simulate_throughput_vector` calls with the same vectors.
    """
    if not vectors:
        return []
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    if warmup is None:
        warmup = _default_warmup(cycles)
    lane_seeds = list(seeds) if seeds is not None else [None] * len(vectors)
    if len(lane_seeds) != len(vectors):
        raise ValueError("need one seed per lane")

    fingerprint = _cache.rrg_fingerprint(rrg)
    results: List[Optional[float]] = [None] * len(vectors)
    misses: List[int] = []
    keys: List[Tuple] = []
    for index, (token_vector, buffer_vector) in enumerate(vectors):
        key = _cache.throughput_key(
            fingerprint,
            mode,
            token_vector,
            buffer_vector,
            cycles,
            warmup,
            lane_seeds[index],
        )
        keys.append(key)
        # Unseeded lanes are independent random samples — never cached.
        cacheable = use_cache and lane_seeds[index] is not None
        hit = _cache.cached_throughput(key) if cacheable else None
        if hit is not None:
            results[index] = hit
        else:
            misses.append(index)

    if misses:
        template = _cache.compiled_template_for(rrg, mode=mode)
        models = [
            template.instantiate(vectors[i][0], vectors[i][1])
            for i in misses
        ]
        throughputs = run_models(
            models, [lane_seeds[i] for i in misses], cycles, warmup
        ).throughputs
        for lane, index in enumerate(misses):
            value = float(throughputs[lane])
            results[index] = value
            if use_cache and lane_seeds[index] is not None:
                _cache.store_throughput(keys[index], value)

    return [float(value) for value in results]  # type: ignore[arg-type]


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
    ``seed + i`` — the value a serial :func:`simulate_throughput_vector`
    call with that seed returns — and every replica is unseeded when
    ``seed`` is None.
    """
    if replicas <= 0:
        raise ValueError("replicas must be positive")
    if warmup is None:
        warmup = _default_warmup(cycles)
    rrg, token_vector, buffer_vector = _resolve_vectors(source)
    template = _cache.compiled_template_for(rrg, mode=mode)
    model = template.instantiate(token_vector, buffer_vector)
    seeds: List[Optional[int]] = (
        [None] * replicas if seed is None else [seed + i for i in range(replicas)]
    )
    return run_models([model] * replicas, seeds, cycles, warmup).throughputs
