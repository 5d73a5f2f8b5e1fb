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
