"""Record ``reference.json``: the outputs every benchmark run is checked against.

Usage, from the root of a source checkout whose outputs are trusted::

    python3 perfbench/record.py

Runs the ``search-500`` and ``milp-sweep`` operations once each and stores
their outputs together with the simulation kernel backend of this host and
its host probe time (``calibrate.py``), the speed all reported times are
scaled to; an existing probe time is kept.
``service-mixed`` needs no recorded output: each answer is checked against a
direct ``simulate_vectors`` call in the run itself.
"""

from __future__ import annotations

import json
import statistics
import sys

from calibrate import probe_s
from common import REFERENCE_PATH, WORK_DIR, prepare_environment
from run import _spawn_child


def main() -> int:
    env = prepare_environment()
    from repro.sim.kernels import kernel_backend

    # The probe time sets the unit of every reported time: keep the
    # recorded one, or old and new results stop being comparable.
    probe = (json.loads(REFERENCE_PATH.read_text())["probe_s"]
             if REFERENCE_PATH.exists()
             else statistics.median(probe_s() for _ in range(5)))
    reference = {"kernel_backend": kernel_backend(), "probe_s": probe}
    out = WORK_DIR / "record.json"
    try:
        for workload in ("search-500", "milp-sweep"):
            _, _, report = _spawn_child(env, workload, False, out)
            reference[workload] = report["output"]
    finally:
        out.unlink(missing_ok=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
