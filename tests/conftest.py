"""One BLAS thread, set before numpy is imported, as bench/run.py does: tiny
complex matrix products sometimes run about 100x slower with two threads."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
