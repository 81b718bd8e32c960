"""Pin BLAS and OpenMP to one thread before numpy loads, so the numbers the
tests check do not depend on the host's core count (CI runs one thread too).
A value already set in the environment wins."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
