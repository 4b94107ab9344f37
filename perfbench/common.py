"""Paths, environment and statistics shared by the benchmark's processes.

The benchmark runs from the root of a source checkout: the program under
test is imported from ``src/`` and everything the benchmark writes (the
compiled simulation kernel, artifact stores, scratch files) goes under
``.bench_build/perfbench`` in that checkout.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
KERNEL_CACHE = WORK_DIR / "kernels"
REFERENCE_PATH = BENCH_DIR / "reference.json"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no program to measure."""


def prepare_environment() -> Dict[str, str]:
    """Make ``src/`` importable here and return the environment for children.

    Children inherit a kernel cache owned by the benchmark, so whether the
    machine's temp directory already holds a compiled kernel never shows in
    ``setup_s``, and a temp directory inside the checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no program sources under {SRC}")
    KERNEL_CACHE.mkdir(parents=True, exist_ok=True)
    scratch = WORK_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_SIM_KERNEL_CACHE"] = str(KERNEL_CACHE)
    os.environ["TMPDIR"] = str(scratch)
    # The kernel backend is chosen as for any user ("auto"); run.py checks
    # the chosen one against the recorded backend.
    os.environ.pop("REPRO_SIM_KERNEL", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def load_reference() -> Dict:
    return json.loads(REFERENCE_PATH.read_text())


def own_peak_rss_mb() -> float:
    """Peak resident set of the calling process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation between samples."""
    ordered: List[float] = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail(values: Sequence[float]) -> float:
    """p95, if at least ten samples lie beyond it (200 or more samples);
    otherwise the median, as no higher percentile has ten samples beyond."""
    if len(values) >= 200:
        return percentile(values, 0.95)
    return median(values)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
