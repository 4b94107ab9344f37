"""Scenario registry: every workload generator as a named, parameterized spec.

The pipeline (:mod:`repro.pipeline`) never ships builder callables across
process boundaries — a job references its workload as ``(scenario name,
parameter dict)`` and each shard rebuilds the RRG from this registry.  That
keeps jobs picklable, makes every experiment a declarative spec, and gives
the artifact store a canonical description of what was built.

Three kinds of entries:

* **hand-built examples** (:mod:`repro.workloads.examples`) — the
  motivational figures, pipelines, rings and the fork/join ablation graph;
* **ISCAS-like benchmarks** (:mod:`repro.workloads.iscas_like`) — one
  scenario per Table 2 circuit plus the generic ``iscas`` spec taking the
  circuit name as a parameter;
* **random families** (:mod:`repro.workloads.random_rrg`) — parameterized
  generators that, combined with :func:`expand_grid`, enumerate hundreds of
  circuits for scale sweeps.

Scenario builders must be deterministic functions of their parameters (seeded
generators take an explicit ``seed`` parameter), so a scenario instance
``(name, params)`` identifies one graph, reproducibly, on any shard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.rrg import RRG
from repro.workloads.examples import (
    figure1a_rrg,
    figure1b_rrg,
    figure2_rrg,
    linear_pipeline,
    ring_rrg,
    unbalanced_fork_join,
)
from repro.workloads.iscas_like import (
    SPEC_BY_NAME,
    TABLE2_SPECS,
    iscas_like_rrg,
    scaled_spec,
)
from repro.workloads.random_rrg import large_random_rrg, random_rrg


class ScenarioError(Exception):
    """Raised for unknown scenarios or invalid scenario parameters."""


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, parameterized workload generator.

    Attributes:
        name: Registry key (unique).
        description: One-line human description for ``list-scenarios``.
        builder: Callable building one RRG from keyword parameters.
        defaults: Default parameter values; calls may override any subset.
        family: Coarse grouping ("example", "iscas", "random", "ablation").
        tags: Free-form labels (e.g. "motivational", "table2").
    """

    name: str
    description: str
    builder: Callable[..., RRG]
    defaults: Mapping[str, object] = field(default_factory=dict)
    family: str = "example"
    tags: Tuple[str, ...] = ()

    def normalize(self, overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Defaults merged with ``overrides``, validated but not built.

        This is the canonical parameter set of one scenario instance: the
        service validates remote requests with it (rejecting unknown
        parameters before anything is queued) and uses the result for
        request keys, so an explicitly-passed default and an omitted one
        key identically.
        """
        params = dict(self.defaults)
        overrides = dict(overrides or {})
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} has no parameters {sorted(unknown)}; "
                f"available: {sorted(self.defaults)}"
            )
        params.update(overrides)
        return params

    def build(self, **overrides: object) -> RRG:
        """Build the RRG with ``defaults`` overridden by ``overrides``."""
        return self.builder(**self.normalize(overrides))


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the registry; raises on duplicate names."""
    if spec.name in _REGISTRY:
        raise ScenarioError(f"duplicate scenario name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ScenarioError(
            f"unknown scenario {name!r}; see list_scenarios()"
        ) from exc


def has_scenario(name: str) -> bool:
    return name in _REGISTRY


def list_scenarios(
    family: Optional[str] = None, tag: Optional[str] = None
) -> List[ScenarioSpec]:
    """All registered scenarios, optionally filtered, sorted by name."""
    specs = [
        spec
        for spec in _REGISTRY.values()
        if (family is None or spec.family == family)
        and (tag is None or tag in spec.tags)
    ]
    return sorted(specs, key=lambda s: s.name)


def build_scenario(name: str, params: Optional[Mapping[str, object]] = None) -> RRG:
    """Build one scenario instance (the workers' entry point)."""
    return scenario(name).build(**dict(params or {}))


def resolve_scenario(
    name: str, params: Optional[Mapping[str, object]] = None
) -> Tuple[ScenarioSpec, Dict[str, object]]:
    """Spec-by-name resolution for remote requests.

    Returns the spec and the fully-normalized parameter dict; raises
    :class:`ScenarioError` for unknown names or parameters, so a service can
    turn bad input into a 400 without building anything.
    """
    spec = scenario(name)
    return spec, spec.normalize(params)


def expand_grid(**axes: Sequence[object]) -> List[Dict[str, object]]:
    """Cartesian product of parameter axes as a list of parameter dicts.

    ``expand_grid(alpha=(0.5, 0.9), seed=range(3))`` yields six dicts; combine
    with a scenario name to enumerate a parametric family of circuits.
    """
    names = sorted(axes)
    combos = itertools.product(*(list(axes[name]) for name in names))
    return [dict(zip(names, combo)) for combo in combos]


def scenario_grid(
    name: str, **axes: Sequence[object]
) -> List[Tuple[str, Dict[str, object]]]:
    """A parametric family: one ``(scenario, params)`` instance per grid point.

    The scenario must exist; parameters are validated lazily at build time.
    """
    scenario(name)  # validate the name eagerly
    return [(name, params) for params in expand_grid(**axes)]


# -- registrations ----------------------------------------------------------

def _register_examples() -> None:
    register_scenario(ScenarioSpec(
        name="figure1a",
        description="Motivational Figure 1(a): tau 3, throughput 1",
        builder=figure1a_rrg,
        defaults={"alpha": 0.5},
        tags=("motivational",),
    ))
    register_scenario(ScenarioSpec(
        name="figure1b",
        description="Motivational Figure 1(b): retimed + two bubbles",
        builder=figure1b_rrg,
        defaults={"alpha": 0.5},
        tags=("motivational",),
    ))
    register_scenario(ScenarioSpec(
        name="figure2",
        description="Motivational Figure 2: optimal, Theta = 1/(3 - 2 alpha)",
        builder=figure2_rrg,
        defaults={"alpha": 0.5},
        tags=("motivational",),
    ))
    register_scenario(ScenarioSpec(
        name="pipeline",
        description="Closed linear pipeline of increasing stage delays",
        builder=linear_pipeline,
        defaults={"stages": 4, "tokens_per_stage": 1},
    ))
    register_scenario(ScenarioSpec(
        name="ring",
        description="Token-constrained ring of identical unit blocks",
        builder=ring_rrg,
        defaults={"length": 5, "total_tokens": 2, "delay": 1.0},
    ))
    register_scenario(ScenarioSpec(
        name="fork-join-early",
        description="Unbalanced fork/join with an early-evaluation join",
        builder=lambda alpha, long_branch_delay: unbalanced_fork_join(
            alpha=alpha,
            long_branch_delay=long_branch_delay,
            name="fork-join-early",
        ),
        defaults={"alpha": 0.85, "long_branch_delay": 8.0},
        family="ablation",
        tags=("ablation",),
    ))
    register_scenario(ScenarioSpec(
        name="fork-join-late",
        description="The same fork/join with every node evaluating late",
        builder=lambda alpha, long_branch_delay: unbalanced_fork_join(
            alpha=alpha,
            long_branch_delay=long_branch_delay,
            name="fork-join-early",
        ).as_late_evaluation("fork-join-late"),
        defaults={"alpha": 0.85, "long_branch_delay": 8.0},
        family="ablation",
        tags=("ablation",),
    ))


def _register_iscas() -> None:
    def _build_iscas(name: str, scale: float, seed: int) -> RRG:
        spec = SPEC_BY_NAME.get(str(name))
        if spec is None:
            raise ScenarioError(f"unknown ISCAS circuit {name!r}")
        return iscas_like_rrg(
            scaled_spec(spec, float(scale)), seed=int(seed), name=spec.name
        )

    register_scenario(ScenarioSpec(
        name="iscas",
        description="ISCAS89-like benchmark by circuit name (Table 2 sizes)",
        builder=_build_iscas,
        defaults={"name": "s27", "scale": 1.0, "seed": 2009},
        family="iscas",
        tags=("table2",),
    ))
    for offset, spec in enumerate(TABLE2_SPECS):
        register_scenario(ScenarioSpec(
            name=f"iscas-{spec.name}",
            description=(
                f"{spec.name}: |N1|={spec.simple_nodes}, "
                f"|N2|={spec.early_nodes}, |E|={spec.edges}"
            ),
            builder=_build_iscas,
            # The per-circuit default seed matches table2_benchmark_suite's
            # ``seed + row_index`` derivation at the default root seed 2009.
            defaults={"name": spec.name, "scale": 1.0, "seed": 2009 + offset},
            family="iscas",
            tags=("table2",),
        ))


def _register_random() -> None:
    def _build_random(num_nodes: int, num_edges: int, seed: int) -> RRG:
        return random_rrg(int(num_nodes), int(num_edges), seed=int(seed))

    register_scenario(ScenarioSpec(
        name="random",
        description="Random strongly connected RRG (Section 5 recipe)",
        builder=_build_random,
        defaults={"num_nodes": 20, "num_edges": 40, "seed": 0},
        family="random",
    ))

    def _build_large(
        num_nodes: int, edge_factor: float, early_fraction: float,
        token_probability: float, seed: int,
    ) -> RRG:
        return large_random_rrg(
            int(num_nodes),
            edge_factor=float(edge_factor),
            early_fraction=float(early_fraction),
            token_probability=float(token_probability),
            seed=int(seed),
        )

    register_scenario(ScenarioSpec(
        name="large-rrg",
        description="Large random RRG for heuristic search (500-5000 nodes)",
        builder=_build_large,
        defaults={
            "num_nodes": 500,
            "edge_factor": 2.0,
            "early_fraction": 0.2,
            "token_probability": 0.25,
            "seed": 1,
        },
        family="random",
        tags=("large", "search"),
    ))


_register_examples()
_register_iscas()
_register_random()


def random_sweep_family(
    sizes: Sequence[Tuple[int, int]] = ((10, 20), (20, 40), (40, 80), (80, 160)),
    seeds: Iterable[int] = range(8),
) -> List[Tuple[str, Dict[str, object]]]:
    """A size x seed grid of random circuits (a ready-made large sweep)."""
    instances: List[Tuple[str, Dict[str, object]]] = []
    for num_nodes, num_edges in sizes:
        instances.extend(scenario_grid(
            "random",
            num_nodes=(num_nodes,),
            num_edges=(num_edges,),
            seed=list(seeds),
        ))
    return instances


def iscas_scale_family(
    scales: Sequence[float] = (0.15, 0.25, 0.5),
    names: Optional[Sequence[str]] = None,
    seed: int = 2009,
) -> List[Tuple[str, Dict[str, object]]]:
    """Every Table 2 circuit at several scales (scenario x config sweep)."""
    instances: List[Tuple[str, Dict[str, object]]] = []
    for offset, spec in enumerate(TABLE2_SPECS):
        if names is not None and spec.name not in names:
            continue
        for scale in scales:
            instances.append((
                "iscas",
                {"name": spec.name, "scale": float(scale), "seed": seed + offset},
            ))
    return instances
