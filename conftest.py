"""Test-session set-up, loaded by pytest before any test module imports numpy.

BLAS reads its thread count once, when numpy loads it, so the pin must come
first. One thread per process, as benchmark/run.py uses: solver timings in
the tests (criterion 7 compares PD against padm) then compare
single-threaded solves, and do not depend on how many cores are idle.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
