"""Quantile-set return distributions and the quantile-regression update.

A return distribution is represented by n_q equally weighted quantile
values at the fixed midpoint fractions tau_i = (2i-1)/(2*n_q). Values are
not re-sorted after updates; quantile crossing is allowed.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from . import kernels


@cache
def midpoints(n_q: int) -> np.ndarray:
    """Quantile midpoint fractions tau_i = (2i-1)/(2*n_q), i = 1..n_q.

    One read-only array per n_q, shared by every caller.
    """
    taus = (2.0 * np.arange(1, n_q + 1) - 1.0) / (2.0 * n_q)
    taus.flags.writeable = False
    return taus


class QuantileDistribution:
    """An ordered set of n_q quantile values with uniform weights 1/n_q.

    The values are never changed in place: an update builds a new
    distribution, so the mean is computed once, at construction. It has
    the same bits as values.mean().
    """

    __slots__ = ("values", "mean")

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("quantile values must be a nonempty 1-d array")
        mean = float(arr.sum()) / arr.shape[0]
        # a finite sum implies finite values; finite values whose sum
        # overflows are rejected with NaN and inf
        if not math.isfinite(mean):
            raise ValueError("quantile values must be finite, and so must their sum")
        self.values = arr
        self.mean = mean

    def __repr__(self) -> str:
        return f"QuantileDistribution(values={self.values!r})"

    @property
    def n_q(self) -> int:
        return self.values.shape[0]

    @property
    def taus(self) -> np.ndarray:
        return midpoints(self.n_q)


def init_from_prior(prior: float, n_q: int) -> QuantileDistribution:
    """Distribution with every quantile value set to the action prior."""
    if not (0.0 <= prior <= 1.0):
        raise ValueError(f"prior must be in [0, 1], got {prior}")
    if n_q < 1:
        raise ValueError(f"n_q must be >= 1, got {n_q}")
    return QuantileDistribution(np.full(n_q, float(prior)))


def qr_update(d: QuantileDistribution, targets, step: float, kappa: float) -> QuantileDistribution:
    """One gradient-descent step on the quantile-Huber loss.

    Each quantile value is clamped to the hull of its old value and the
    target range, so a large step never overshoots past every target (the
    clamp is inactive for small steps and preserves the loss minimizers).
    """
    arr = np.asarray(targets, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("targets must be a nonempty 1-d sequence")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    grad = kernels.qr_gradient(d.values, d.taus, arr, kappa)
    lo = np.minimum(d.values, arr.min())
    hi = np.maximum(d.values, arr.max())
    # np.clip(values - step * grad, lo, hi), without np.clip's per-call overhead
    out = d.values - step * grad
    np.maximum(out, lo, out=out)
    return QuantileDistribution(np.minimum(out, hi, out=out))
