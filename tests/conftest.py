"""Tier-1 runs numpy's BLAS on one thread unless the environment names a count.  On a
small host OpenBLAS's default threads collapse while another process runs: a batch-32
big_mixed_ram forward took 54 ms on two threads against 1.1 ms on one.  pytest imports
this module before any test module, so before numpy loads; no test depends on the count."""

import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(name, "1")
