"""Test-session set-up: pin the BLAS thread pools before numpy loads.

The stacked solves call BLAS on small matrices, where an unpinned
thread pool only contends for the cores. Library callers of
``montecarlo.run_sweep`` must pin these variables themselves before
they import numpy (``mimodet.cli`` does it for the command line).
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_LOADED_FIRST = "numpy" in sys.modules
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

from hypothesis import Phase, settings  # noqa: E402  (after the pins: must not load numpy first)

# Property tests run the same examples every time and keep no example
# database; each test bounds its own max_examples. The explain phase is
# left out: on a property that fails in several ways it can run for
# minutes before the failure is reported.
settings.register_profile("mimodet", derandomize=True, deadline=None, database=None,
                          phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("mimodet")
