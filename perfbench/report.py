"""Print every benchmark metric of every workload, with its spread.

Usage, from the root of a source checkout::

    python3 perfbench/report.py [--runs 5] [--first-seed 1] [--workloads search-500 ...] [--save FILE]

For each workload this runs ``run.py`` ``--runs`` times untraced (seeds
``--first-seed`` onwards) and once traced, then prints each end-to-end
metric with its unit, median, spread (inter-quartile distance over the
median, as the regression bounds in ``BENCHMARK.json`` are read) and
sample count; each per-layer metric of
the traced run; the tracing overhead (traced ``work_per_s`` against the
untraced median); and the correctness verdict over all runs.  ``--save``
writes every raw result line to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List

from common import BENCH_DIR, ROOT, median, spread

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int, seconds: int) -> Dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, text=True, capture_output=True,
                               timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    detail = {}
    if len(lines) >= 2 and lines[-2].startswith("detail: "):
        detail = json.loads(lines[-2][len("detail: "):])
    return {"result": json.loads(lines[-1]), "detail": detail,
            "seed": seed, "trace": trace}


def report(workload: str, runs: List[Dict], traced: Dict) -> bool:
    print(f"\n== {workload}  ({len(runs)} untraced runs + 1 traced)")
    print(f"{'metric':40s} {'unit':>6s} {'median':>14s} {'spread':>8s} {'bound':>6s} {'n':>3s}")
    for entry in BENCHMARK["end_to_end"]:
        values = [run["result"]["metrics"][entry["name"]]["value"] for run in runs]
        print(f"{entry['name']:40s} {entry['unit']:>6s} {median(values):14.6g} "
              f"{spread(values):8.3f} {entry['bound']:6.2f} {len(values):3d}")
    layer = traced["result"]["metrics"]
    for entry in BENCHMARK["per_layer"]:
        value = layer[entry["name"]]["value"]
        print(f"{entry['name']:40s} {entry['unit']:>6s} {value:14.6g} {'':>8s} {'':>6s} {1:3d}")
    untraced = median([run["result"]["metrics"]["work_per_s"]["value"] for run in runs])
    overhead = 1.0 - layer["trace.work_per_s"]["value"] / untraced
    print(f"tracing overhead (work_per_s): {overhead:+.1%}")
    samples = {key: value for key, value in runs[0]["detail"].items()
               if key.endswith("samples") or key in ("operations", "requests",
                                                     "kernel_backend")}
    print(f"samples of the first run: {json.dumps(samples)}")
    everything = runs + [traced]
    correct = all(run["result"]["correct"] and run["result"]["failed"] == 0
                  for run in everything)
    attempted = sum(run["result"]["attempted"] for run in everything)
    failed = sum(run["result"]["failed"] for run in everything)
    print(f"correct: {correct}  (failed {failed} of {attempted} attempted)")
    return correct


def main() -> int:
    names = [entry["name"] for entry in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--save", default=None)
    args = parser.parse_args()

    raw = []
    verdict = True
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, 0, args.seconds) for seed in seeds]
        traced = run_once(workload, args.first_seed, 1, args.seconds)
        raw.extend({"workload": workload, **run} for run in runs + [traced])
        verdict = report(workload, runs, traced) and verdict
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(raw, handle, indent=1)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
