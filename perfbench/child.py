"""One measured operation of ``search-500`` or ``milp-sweep`` in a fresh process.

Usage (started by ``run.py``, with the environment from
``common.prepare_environment``)::

    python perfbench/child.py <search-500|milp-sweep> --out FILE [--trace]

The process imports the program, loads the simulation kernel and, when
tracing, installs the layer wrappers; then it prints ``ready`` so the parent
can time set-up, and probes the host speed (``calibrate.py``).  Then it
runs the operation once, with cold process caches
and no artifact store, probes again, and writes the wall time, the mean
probe time, the work done, the output to check, the kernel backend, its
peak RSS and (when tracing) the layer totals to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from calibrate import probe_s
from common import own_peak_rss_mb

#: search-500: the large-scale preset at --size small (500 nodes, 1000
#: edges), portfolio optimizer, root seed 2009.  Budget 10 is a fixed count
#: of 193 evaluations through the cost model, about 3 s, so a run holds
#: several searches and its median shrugs off a slow one.
SEARCH_OPTIONS = dict(size="small", optimizer="portfolio", time_budget=10.0, seed=2009)

#: milp-sweep: the Table 2 sweep, serial, pure LP backend, no time limit.
#: s526 is left out: alone it takes 15 s, five times the other five
#: circuits together, which would leave one or two sweeps per run.
SWEEP_NAMES = ["s27", "s208", "s420", "s382", "s400"]
SWEEP_OPTIONS = dict(scale=0.2, epsilon=0.05, cycles=2000, seed=2009, shards=1)


def run_search():
    from repro.experiments.presets import RunOptions, run_preset

    result = run_preset("large-scale", RunOptions(**SEARCH_OPTIONS))
    row = result["rows"][0]
    output = {"row": row, "incumbent_xi": result["summary"]["incumbent_xi"]}
    return output, int(row[-1])


def run_sweep():
    from repro.core.milp import MilpSettings
    from repro.experiments.table2 import run_table2

    rows = run_table2(
        names=SWEEP_NAMES,
        settings=MilpSettings(backend="pure", time_limit=None),
        **SWEEP_OPTIONS,
    )
    return [dataclasses.asdict(row) for row in rows], len(rows)


OPERATIONS = {"search-500": run_search, "milp-sweep": run_sweep}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(OPERATIONS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.experiments.presets  # noqa: F401  (set-up: imports)
    import repro.experiments.table2  # noqa: F401
    from repro.sim.kernels import kernel_backend

    backend = kernel_backend()
    tracer = None
    if args.trace:
        from layers import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)
    print("ready", flush=True)
    setup_probe = probe_s()
    started = time.perf_counter()
    output, work = OPERATIONS[args.workload]()
    wall = time.perf_counter() - started
    report = {
        "setup_probe_s": setup_probe,
        "wall_s": wall,
        "probe_s": (setup_probe + probe_s()) / 2,
        "work": work,
        "output": output,
        "kernel_backend": backend,
        "peak_rss_mb": own_peak_rss_mb(),
        "layers": tracer.snapshot() if tracer is not None else None,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
