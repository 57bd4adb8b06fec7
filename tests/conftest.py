"""Shared test setup; runs before any test module imports numpy."""

import os

# One BLAS thread per process. The acceptance tests already run one worker
# process per CPU, and OpenBLAS's own threads on top of those oversubscribe
# the CPUs: on 2 CPUs the curiosity-model test takes about 270 s with the
# default threads and about 55 s with one, with the same results.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
