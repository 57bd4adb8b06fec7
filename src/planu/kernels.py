"""Quantile-regression kernels: the loss and its analytic gradient in numpy."""

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


def qr_gradient(values, taus, targets, kappa):
    """Analytic d(loss)/d(values); same normalization as qr_loss."""
    u = targets[None, :] - values[:, None]
    weight = np.abs(taus[:, None] - (u < 0.0))
    grad = -weight * np.clip(u, -kappa, kappa) / kappa
    return grad.sum(axis=1) / targets.shape[0]
