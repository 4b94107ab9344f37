"""Compiled simulation engine.

Compiles TGMGs / elastic circuits into flat index arrays once per graph and
simulates configurations and replicas as lanes, firing-for-firing
compatible with the pure-Python reference simulators under a shared seed.
Each lane runs on the generated-C kernel of :mod:`repro.sim.kernels` when a
C compiler is available, else on the pure-python :class:`ScalarSimulator`;
both are bit-identical, and ``kernel_backend()`` reports which one is
active.  See ``docs/performance.md``.
"""

from repro.sim.batch import (
    simulate_configurations,
    simulate_replicas,
    simulate_vectors,
)
from repro.sim.cache import cache_stats, clear_caches, compiled_template_for
from repro.sim.kernels import kernel_backend, kernel_info, use_backend
from repro.sim.engine import (
    BatchRunResult,
    CompiledModel,
    CompiledStructure,
    CompiledTemplate,
    compile_elastic_template,
    compile_template,
    compile_tgmg,
)
from repro.sim.scalar import ScalarSimulator

__all__ = [
    "BatchRunResult",
    "CompiledModel",
    "CompiledStructure",
    "CompiledTemplate",
    "ScalarSimulator",
    "cache_stats",
    "clear_caches",
    "compile_elastic_template",
    "compile_template",
    "compile_tgmg",
    "compiled_template_for",
    "kernel_backend",
    "kernel_info",
    "simulate_configurations",
    "simulate_replicas",
    "simulate_vectors",
    "use_backend",
]
