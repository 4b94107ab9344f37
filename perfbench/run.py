"""The repository benchmark: one seeded workload per way the code is used.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload search-500 --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``search-500`` — the ``large-scale`` preset (500-node RRG, portfolio
  search, budget 10, root seed 2009), each search in a fresh process;
* ``milp-sweep`` — the Table 2 sweep over five circuits at scale 0.2 on the
  pure LP backend with no time limit, each sweep in a fresh process;
* ``service-mixed`` — a served simulate mix under closed-loop load (see
  ``service.py``).

The first two repeat the operation until ``--seconds`` have passed (at least
three times); the service is loaded for ``--seconds``.  With ``--trace 0``
the last output line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run with the layer wrappers installed
(``layers.py``).  Every
output is checked against ``reference.json``; ``failed`` counts mismatches,
failed requests and a kernel backend other than the recorded one.  The line
before the result (``detail: {...}``) holds sample counts, the backend, the
host probe times and the raw, unscaled figures.

End-to-end metrics, for every workload:

* ``setup_s`` — median seconds from starting the process that does the work
  to it being ready (imports, kernel load, wrappers; for the service, to the
  first answered simulate), over the run's three or more starts;
* ``work_per_s`` — evaluations per second (search-500, 500 nodes and 1000
  edges) or circuits per second (milp-sweep, five circuits), median over
  the run's operations; answered requests per second (service-mixed);
* ``op_p50_ms`` — median latency of one operation: a search, a sweep, or a
  service step (one request of each kind, submit to result, see
  ``service.py``);
* ``op_tail_ms`` — p95 of the same when at least ten samples lie beyond it,
  else the median (search and sweep runs hold a handful of operations);
* ``peak_rss_mb`` — peak RSS of the process doing the work (the server for
  service-mixed).

Times and rates are scaled to the reference host speed (``calibrate.py``),
except the service's figures under load (see ``service.py``).

``search-500`` and ``milp-sweep`` take no input from ``--seed``: their cost
varies by up to 70 % between generated instances, so they always run the
same recorded instance.  ``service-mixed`` draws its request seeds from it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from calibrate import probe_s
from common import (
    BENCH_DIR,
    ROOT,
    WORK_DIR,
    CheckoutError,
    load_reference,
    median,
    metric,
    prepare_environment,
    tail,
)

WORKLOADS = ("search-500", "milp-sweep", "service-mixed")
MIN_OPERATIONS = 3
CHILD_TIMEOUT = 150.0


def _matches(value, expected) -> bool:
    """Equal, with floats compared to 1e-9 relative (LP arithmetic may differ
    in the last bits between CPUs)."""
    if isinstance(expected, float) or isinstance(value, float):
        return (isinstance(value, (int, float)) and isinstance(expected, (int, float))
                and math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12))
    if isinstance(expected, dict):
        return (isinstance(value, dict) and value.keys() == expected.keys()
                and all(_matches(value[k], expected[k]) for k in expected))
    if isinstance(expected, list):
        return (isinstance(value, list) and len(value) == len(expected)
                and all(_matches(v, e) for v, e in zip(value, expected)))
    return value == expected


def _spawn_child(env: Dict[str, str], workload: str, trace: bool, out: Path):
    """Start one child; returns (set-up seconds, the host probe time just
    before it started, its report)."""
    command = [sys.executable, str(BENCH_DIR / "child.py"), workload,
               "--out", str(out)]
    if trace:
        command.append("--trace")
    probe = probe_s()
    started = time.perf_counter()
    process = subprocess.Popen(command, env=env, cwd=ROOT, text=True,
                               stdout=subprocess.PIPE)
    try:
        ready = process.stdout.readline().strip()
        setup = time.perf_counter() - started
        process.communicate(timeout=CHILD_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    if ready != "ready" or process.returncode != 0:
        raise RuntimeError(
            f"{workload} child exited with {process.returncode} "
            f"(first line {ready!r})"
        )
    return setup, probe, json.loads(out.read_text())


def run_operations(env: Dict[str, str], workload: str, seconds: float,
                   trace: bool, reference: Dict) -> Dict:
    """Repeat the workload's operation in fresh processes for ``seconds``."""
    from layers import BYPASSED, PER_LAYER, layer_metrics, merge, total_self_s

    out = WORK_DIR / f"{workload}-{os.getpid()}.json"
    setups: List[float] = []
    setup_probes: List[float] = []
    reports: List[Dict] = []
    failures: List[str] = []
    started = time.perf_counter()
    try:
        while (len(reports) < MIN_OPERATIONS
               or time.perf_counter() - started < seconds):
            setup, probe, report = _spawn_child(env, workload, trace, out)
            setups.append(setup)
            # Set-up is scaled by the probes just before and just after it.
            setup_probes.append((probe + report["setup_probe_s"]) / 2)
            reports.append(report)
    finally:
        out.unlink(missing_ok=True)

    for index, report in enumerate(reports):
        if not _matches(report["output"], reference[workload]):
            failures.append(f"operation {index}: output differs from reference")
        if report["kernel_backend"] != reference["kernel_backend"]:
            failures.append(
                f"operation {index}: kernel backend {report['kernel_backend']!r}, "
                f"expected {reference['kernel_backend']!r}"
            )

    ref_probe = reference["probe_s"]
    walls = [r["wall_s"] * ref_probe / r["probe_s"] for r in reports]
    rates = [r["work"] / wall for r, wall in zip(reports, walls)]
    end_to_end = {
        "setup_s": metric(median([s * ref_probe / p for s, p
                                  in zip(setups, setup_probes)]), "s"),
        "work_per_s": metric(median(rates), "1/s"),
        "op_p50_ms": metric(median(walls) * 1000, "ms"),
        "op_tail_ms": metric(tail(walls) * 1000, "ms"),
        "peak_rss_mb": metric(median([r["peak_rss_mb"] for r in reports]), "MB"),
    }

    per_layer = None
    if trace:
        totals: Dict[str, Dict[str, float]] = {}
        for report in reports:
            merge(totals, report["layers"])
        values = layer_metrics(totals, len(reports))
        values["trace.work_per_s"] = median(rates)
        values["trace.self_share"] = (
            total_self_s(totals) / sum(r["wall_s"] for r in reports))
        if values["trace.self_share"] > 1.0:
            failures.append("per-layer self times add up to more than the wall time")
        for name in BYPASSED[workload]:
            if values[name] != 0:
                failures.append(f"{name} = {values[name]} on a workload that bypasses it")
        per_layer = {name: metric(values[name], PER_LAYER[name][0])
                     for name in PER_LAYER}

    return {
        "attempted": len(reports),
        "failed": len(failures),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "detail": {
            "kernel_backend": reports[0]["kernel_backend"],
            "operations": len(reports),
            "work_per_operation": [r["work"] for r in reports],
            "raw_operation_s": [r["wall_s"] for r in reports],
            "probe_ms": [r["probe_s"] * 1000 for r in reports],
            "raw_setup_samples": setups,
            "failures": failures[:10],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env = prepare_environment()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = load_reference()
    # Compile (once per checkout) and load the simulation kernel before any
    # set-up is timed.
    from repro.sim.kernels import kernel_backend

    kernel_backend()

    if args.workload == "service-mixed":
        from service import run_service

        result = run_service(env, args.seed, args.seconds, bool(args.trace),
                             reference)
    else:
        result = run_operations(env, args.workload, args.seconds,
                                bool(args.trace), reference)

    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else result["end_to_end"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
