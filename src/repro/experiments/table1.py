"""Table 1: all non-dominated configurations of one benchmark.

For a single RRG the experiment runs MIN_EFF_CYC, and for every non-dominated
configuration reports the columns of Table 1:

* ``tau`` — cycle time,
* ``Theta_lp`` — LP throughput upper bound,
* ``Theta`` — simulated throughput,
* ``err%`` — relative error of the bound,
* ``xi_lp`` and ``xi`` — effective cycle times from the bound and from the
  simulation,
* ``Delta%`` — how much worse the bound-selected configuration (RC_lp_min) is
  compared with the simulation-selected one (RC_min).

The experiment is a single Optimize+Simulate pipeline job; ``run_table1`` is
the thin declaration over :mod:`repro.pipeline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.core.milp import MilpSettings
from repro.core.optimizer import OptimizationResult
from repro.core.rrg import RRG
from repro.pipeline.runner import run_jobs
from repro.pipeline.stages import (
    BuildSpec,
    Job,
    OptimizeParams,
    SimulateParams,
    optimization_from_payload,
)


@dataclass
class Table1Row:
    """One non-dominated configuration (one row of Table 1)."""

    cycle_time: float
    throughput_bound: float
    throughput: float

    @property
    def error_percent(self) -> float:
        """Relative difference between the bound and the simulated throughput."""
        if self.throughput <= 0:
            return math.nan
        return (self.throughput_bound - self.throughput) / self.throughput * 100.0

    @property
    def effective_cycle_time_bound(self) -> float:
        return self.cycle_time / self.throughput_bound

    @property
    def effective_cycle_time(self) -> float:
        return self.cycle_time / self.throughput


@dataclass
class Table1Result:
    """The full Table 1 for one benchmark.

    Attributes:
        name: Benchmark name.
        rows: One row per non-dominated configuration, by increasing cycle
            time.
        delta_percent: Relative gap between the effective cycle time of the
            bound-selected configuration and the simulation-selected one
            (the ``Delta%`` column; 0 when both coincide).
        optimization: The optimiser output with live configurations,
            reconstructed from the pipeline payload (None when the reducer
            was given no RRG to bind configurations to).
    """

    name: str
    rows: List[Table1Row]
    delta_percent: float
    optimization: Optional[OptimizationResult]

    @property
    def best_by_simulation(self) -> Table1Row:
        return min(self.rows, key=lambda r: r.effective_cycle_time)


def table1_job(
    build: BuildSpec,
    epsilon: float = 0.05,
    cycles: int = 5000,
    seed: int = 7,
    settings: Optional[MilpSettings] = None,
    k: int = 5,
    job_id: str = "table1",
) -> Job:
    """Declare the Table 1 pipeline job for one workload."""
    return Job(
        job_id=job_id,
        build=build,
        optimize=OptimizeParams.from_settings(settings, k=k, epsilon=epsilon),
        simulate=SimulateParams(cycles=cycles, seed=seed),
    )


def table1_from_payload(
    payload: Mapping[str, object], rrg: Optional[RRG] = None
) -> Table1Result:
    """Reduce one job payload to the public Table 1 result (Report stage)."""
    graph = payload["graph"]
    points = payload["optimize"]["points"]
    throughputs = payload["simulate"]["throughputs"]
    rows = [
        Table1Row(
            cycle_time=point["cycle_time"],
            throughput_bound=point["throughput_bound"],
            throughput=throughput,
        )
        for point, throughput in zip(points, throughputs)
    ]
    rows.sort(key=lambda r: r.cycle_time)

    best_bound = min(rows, key=lambda r: r.effective_cycle_time_bound)
    best_sim = min(rows, key=lambda r: r.effective_cycle_time)
    if best_sim.effective_cycle_time > 0:
        delta = (
            (best_bound.effective_cycle_time - best_sim.effective_cycle_time)
            / best_sim.effective_cycle_time
            * 100.0
        )
    else:
        delta = math.nan
    return Table1Result(
        name=graph["name"],
        rows=rows,
        delta_percent=delta,
        optimization=(
            optimization_from_payload(payload, rrg) if rrg is not None else None
        ),
    )


def run_table1(
    rrg: RRG,
    epsilon: float = 0.05,
    cycles: int = 5000,
    seed: int = 7,
    settings: Optional[MilpSettings] = None,
    k: int = 5,
) -> Table1Result:
    """Produce the Table 1 analysis for one benchmark RRG."""
    job = table1_job(
        BuildSpec.from_rrg(rrg),
        epsilon=epsilon,
        cycles=cycles,
        seed=seed,
        settings=settings,
        k=k,
        job_id=rrg.name,
    )
    payload = run_jobs([job])[0]
    return table1_from_payload(payload, rrg=rrg)


def table1_as_rows(result: Table1Result) -> List[Sequence[object]]:
    """Rows formatted like the paper's Table 1 (for printing)."""
    formatted: List[Sequence[object]] = []
    for row in result.rows:
        formatted.append(
            (
                result.name,
                round(row.cycle_time, 2),
                round(row.throughput_bound, 4),
                round(row.throughput, 4),
                round(row.error_percent, 2),
                round(row.effective_cycle_time_bound, 2),
                round(row.effective_cycle_time, 2),
            )
        )
    return formatted
