"""Quantile-regression kernels: the loss and its analytic gradient in numpy."""

from functools import lru_cache

import numpy as np


def qr_loss(values, taus, targets, kappa):
    """Quantile-Huber loss, averaged over targets and summed over quantiles.

    rho^k_tau(u) = |tau - 1{u<0}| * L_k(u) / k, with L_k the Huber function.
    """
    u = targets[None, :] - values[:, None]
    weight = np.abs(taus[:, None] - (u < 0.0))
    au = np.abs(u)
    huber = np.where(au <= kappa, 0.5 * u * u, kappa * (au - 0.5 * kappa))
    return float((weight * huber / kappa).sum() / targets.shape[0])


@lru_cache(maxsize=64)
def _tables(tau_bytes: bytes, dtype: np.dtype, m: int, kappa: float):
    """The read-only (n_q, m) tables of -|tau - 0| and -|tau - 1| (the negated
    quantile weight of a cell whose residual is >= 0 and < 0), -kappa and
    +kappa: an array bound clips faster than a float, to the same bytes."""
    taus = np.frombuffer(tau_bytes, dtype)[:, None]
    bound = np.full(taus.shape, kappa)
    columns = (-np.abs(taus - 0.0), -np.abs(taus - 1.0), -bound, bound)
    tables = tuple(np.repeat(column, m, axis=1) for column in columns)
    for table in tables:
        table.flags.writeable = False
    return tables


def qr_gradient(values, taus, targets, kappa):
    """Analytic d(loss)/d(values); same normalization as qr_loss.

    Each cell is (-|tau - 1{u<0}|) * clip(u, -kappa, kappa) / kappa, summed
    over targets and divided by their number, computed in place on one
    (n_q, m) buffer.
    """
    m = targets.shape[0]
    u = targets - values[:, None]
    head, tail, lo, hi = _tables(taus.tobytes(), taus.dtype, m, kappa)
    grad = head.copy()
    np.copyto(grad, tail, where=u < 0.0)
    np.maximum(u, lo, out=u)
    np.minimum(u, hi, out=u)
    grad *= u
    grad /= kappa
    out = np.add.reduce(grad, axis=1)
    out /= m
    return out
