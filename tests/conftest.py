"""Shared test setup; runs before any test module imports numpy."""

import os

# One BLAS thread per process. The acceptance tests already run one worker
# process per CPU, and OpenBLAS's own threads on top of those oversubscribe
# the CPUs: on 2 CPUs the curiosity-model test takes about 270 s with the
# default threads and about 55 s with one, with the same results.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def pytest_collection_modifyitems(items):
    """Run the acceptance tests after the unit tests.

    On 2 CPUs they take 45 to 60 s together, the longest ([6]) about
    30 to 35 s of it, against about 25 s for all the unit modules together,
    so the unit suites report first. The sort is stable: each group keeps
    its own order.
    """
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")
