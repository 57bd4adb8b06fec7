"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was tuned on is a shared virtual machine whose
CPU speed swings by about 1.6x, for seconds to minutes at a time, in CPU
time as much as in wall time; raw times of the same work spread by 25-45%
between runs. A fixed probe is timed before and after each timed piece of
work. It shares no code with `planu` and mixes the three kinds of work
the planner does: string and dict handling (the environments), numpy on
small arrays (the quantile updates) and small matrix products (the
curiosity model). A time is reported as

    raw seconds x REFERENCE_S / (mean probe time around it)

that is, in seconds of a machine on which the probe takes REFERENCE_S.
In the machine's fast regime the factor is close to 1.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

# the probe's time on the reference machine in its fast regime (2-CPU Xeon
# virtual machine, numpy 2.4.6, Python 3.11)
REFERENCE_S = 0.0105

_RNG = np.random.default_rng(0)
_TAUS = np.linspace(0.0, 1.0, 51)
_BATCH = _RNG.standard_normal((64, 384))
_LAYERS = [_RNG.standard_normal(shape) for shape in ((384, 64), (64, 64), (64, 128))]


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    table = {}
    for i in range(2000):
        key = f"on(b{i % 7},b{i % 5}) clear(b{i % 3})"
        table[key] = table.get(key, 0) + zlib.crc32(key.encode()) % 7
        sorted(key.split())
    values = np.full(51, 0.5)
    for _ in range(400):
        grad = np.abs(_TAUS[:, None] - (values[:, None] > 0.3)).sum(axis=1)
        values = np.clip(values - 0.01 * grad, 0.0, 1.0)
    w1, w2, w3 = _LAYERS
    for _ in range(30):
        h1 = np.maximum(_BATCH @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        grad = (h2 @ w3) @ w3.T
        h1.T @ grad
        _BATCH.T @ ((grad @ w2.T) * (h1 > 0.0))
    return time.perf_counter() - t0


class Clock:
    """Times work in reference seconds; keeps the probes it ran."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        t = probe()
        self.probes.append(t)
        return t

    def timed(self, fn, *args, **kwargs):
        """(fn's result, its time in reference seconds)."""
        before = self.probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        after = self.probe()
        return result, elapsed * REFERENCE_S / ((before + after) / 2)

    def factor(self, since: int = 0) -> float:
        """Reference seconds per raw second, from the probes from index since on."""
        probes = self.probes[since:]
        return REFERENCE_S * len(probes) / sum(probes)
