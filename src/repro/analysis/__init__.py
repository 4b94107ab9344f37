"""Static performance analysis of retiming-and-recycling graphs.

* :mod:`repro.analysis.cycle_time` — combinational-path / cycle-time analysis
  (Definitions 2.2 and 2.3 of the paper).
* :mod:`repro.analysis.performance` — effective cycle time and the bundle of
  metrics reported in the experiments.
* :mod:`repro.analysis.pareto` — dominance between configurations and Pareto
  fronts (Definition 4.1).
"""

from repro.analysis.cycle_time import (
    CombinationalCycleError,
    CriticalPath,
    cycle_time,
    critical_path,
    node_arrival_times,
)
from repro.analysis.performance import (
    PerformancePoint,
    effective_cycle_time,
    evaluate_configuration,
)
from repro.analysis.pareto import dominates, pareto_front

__all__ = [
    "CombinationalCycleError",
    "CriticalPath",
    "cycle_time",
    "critical_path",
    "node_arrival_times",
    "PerformancePoint",
    "effective_cycle_time",
    "evaluate_configuration",
    "dominates",
    "pareto_front",
]
