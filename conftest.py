"""Test-session set-up: one BLAS/OpenMP thread unless the caller sets more.

This file is the first repository code pytest imports, so the variables
are in place before anything loads numpy. A second BLAS thread doubles
the CPU time of the desk-scale tests for no gain in wall time.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
