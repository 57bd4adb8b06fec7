"""Quantile-set return distributions and the quantile-regression update.

A return distribution is represented by n_q equally weighted quantile
values at the fixed midpoint fractions tau_i = (2i-1)/(2*n_q). Values are
not re-sorted after updates; quantile crossing is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


def midpoints(n_q: int) -> np.ndarray:
    """Quantile midpoint fractions tau_i = (2i-1)/(2*n_q), i = 1..n_q."""
    return (2.0 * np.arange(1, n_q + 1) - 1.0) / (2.0 * n_q)


@dataclass(frozen=True)
class QuantileDistribution:
    """An ordered set of n_q quantile values with uniform weights 1/n_q."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("quantile values must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("quantile values must be finite")
        object.__setattr__(self, "values", arr)

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


def mean(d: QuantileDistribution) -> float:
    return float(d.values.mean())


def _check_update_args(targets, step: float, kappa: float) -> np.ndarray:
    arr = np.asarray(targets, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("targets must be a nonempty 1-d sequence")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return arr


def qr_loss(d: QuantileDistribution, targets, kappa: float = 0.05) -> float:
    """Quantile-Huber loss of the distribution against target samples.

    L = (1/|targets|) * sum_i sum_j rho^kappa_{tau_i}(y_j - theta_i), with
    rho^kappa_tau(u) = |tau - 1{u<0}| * L_kappa(u) / kappa.
    """
    arr = _check_update_args(targets, 1.0, kappa)
    return kernels.qr_loss(d.values, d.taus, arr, kappa)


def qr_loss_gradient(d: QuantileDistribution, targets, kappa: float = 0.05) -> np.ndarray:
    """Analytic gradient dL/d(theta_i) of qr_loss."""
    arr = _check_update_args(targets, 1.0, kappa)
    return kernels.qr_gradient(d.values, d.taus, arr, kappa)


def qr_update(
    d: QuantileDistribution,
    targets,
    step: float = 0.5,
    kappa: float = 0.05,
) -> QuantileDistribution:
    """One gradient-descent step on the quantile-Huber loss.

    Each quantile value is clamped to the hull of its old value and the
    target range, so a large step never overshoots past every target (the
    clamp is inactive for small steps and preserves the loss minimizers).
    """
    arr = _check_update_args(targets, step, kappa)
    grad = kernels.qr_gradient(d.values, d.taus, arr, kappa)
    lo = np.minimum(d.values, arr.min())
    hi = np.maximum(d.values, arr.max())
    return QuantileDistribution(np.clip(d.values - step * grad, lo, hi))
