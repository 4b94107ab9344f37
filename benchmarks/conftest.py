"""Pytest configuration for the benchmark harness.

No ``testpaths`` is set, so a plain ``pytest`` collects these
``test_bench_*.py`` paper-shape checks together with ``tests/``: they run in
the with-scipy tier-1 leg.  The no-scipy leg runs ``pytest tests/`` only,
because on the pure LP backend these sweeps take many minutes.  Run the
harness alone with::

    pytest benchmarks/ --benchmark-only
"""

import os
import sys

# Make `from bench_utils import run_once` work regardless of the rootdir the
# harness is invoked from.
sys.path.insert(0, os.path.dirname(__file__))
