"""Host speed probe: the median time of a fixed slice of interpreter work.

The benchmark shares a 2-vCPU host with other tenants, and the speed of a
CPU there drifts in regimes lasting minutes: over twelve minutes the same
``milp-sweep`` operation took 3.1 to 5.9 s, and this probe 6.6 to 12.3 ms,
moving with it (correlation 0.75; 0.86 for ``search-500``).  Medians of
seven operations then spread 21 % (IQR over median) from run to run raw,
and 5 % once each operation's time is scaled by the probe measured around
it.  So every set-up time and every ``search-500`` and ``milp-sweep`` time
the benchmark reports is scaled to the reference probe time in
``reference.json`` (``service.py`` says why its load figures are not)::

    reported time = measured time * reference probe / probe around it

A change that makes the program faster reads faster, as the probe runs no
program code; a slower host does not.  The raw figures and the probe times
are printed in the ``detail`` line.
"""

from __future__ import annotations

import statistics
import time

#: Seconds of probing per measurement (each side of an operation).
WINDOW_S = 0.3


def _slice() -> int:
    total = 0
    table = {}
    for i in range(60_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def probe_s(window_s: float = WINDOW_S) -> float:
    """Median seconds of one probe slice over ``window_s`` of slices."""
    times = []
    end = time.perf_counter() + window_s
    while not times or time.perf_counter() < end:
        started = time.perf_counter()
        _slice()
        times.append(time.perf_counter() - started)
    return statistics.median(times)
