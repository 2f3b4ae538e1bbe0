"""Pin BLAS and OpenMP to one thread for the test run, as the benchmark
does (``THREAD_VARS`` in ``perfbench/run.py``): the narrow banded solves of
the 2D projection run slower on several threads.  The variables are read
when numpy loads its BLAS, so this must run before anything imports numpy;
a value already set in the environment is kept."""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before the root conftest.py"
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
