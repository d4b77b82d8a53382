"""Projection, reconstruction and error accounting (paper Eq. 6-8)."""

from __future__ import annotations

import numpy as np

from repro.pod.basis import PODBasis
from repro.utils.validation import check_matrix

__all__ = [
    "project_coefficients",
    "reconstruct",
    "projection_error",
    "cumulative_energy",
    "modes_for_energy",
]


def project_coefficients(basis: PODBasis,
                         snapshots: np.ndarray) -> np.ndarray:
    """Coefficients ``A = psi^T q_hat`` of shape ``(N_r, n)`` (Eq. 6) of
    ``(N_h, n)`` raw snapshots, the basis mean removed first."""
    # center() validates its input: one finiteness pass, not two.
    return basis.modes.T @ basis.stats.center(snapshots)


def reconstruct(basis: PODBasis, coefficients: np.ndarray) -> np.ndarray:
    """Approximate snapshots ``psi A + mean`` of shape ``(N_h, n)`` (Eq. 7)."""
    coeff = check_matrix(coefficients, name="coefficients")
    if coeff.shape[0] != basis.n_modes:
        raise ValueError(
            f"coefficient rows {coeff.shape[0]} do not match basis size "
            f"{basis.n_modes}")
    fields = basis.modes @ coeff
    # In place on the fresh product: the same IEEE adds as
    # ``fields + mean[:, None]``, without a second (N_h, n) array.
    fields += basis.stats.mean[:, None]
    return fields


def projection_error(basis: PODBasis, snapshots: np.ndarray) -> float:
    """Relative L2 projection error of raw ``(N_h, n)`` snapshots.

    ``sum_i ||q_hat_i - q_tilde_i||^2 / sum_i ||q_hat_i||^2``. For the
    snapshots the basis was fit on, this equals the tail-energy ratio
    ``sum_{i>N_r} lambda_i / sum_i lambda_i`` (Eq. 8, with the eigenvalue
    power corrected — see :mod:`repro.pod.basis`).
    """
    centered = basis.stats.center(snapshots)
    coeff = basis.modes.T @ centered
    recon = basis.modes @ coeff
    denom = float(np.sum(centered ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum((centered - recon) ** 2)) / denom


def cumulative_energy(energies: np.ndarray) -> np.ndarray:
    """Cumulative energy fractions of a descending eigenvalue spectrum."""
    e = np.asarray(energies, dtype=np.float64)
    if e.ndim != 1:
        raise ValueError("energies must be 1-D")
    if np.any(e < 0):
        raise ValueError("energies must be non-negative")
    total = e.sum()
    if total == 0.0:
        return np.ones_like(e)
    return np.cumsum(e) / total


def modes_for_energy(energies: np.ndarray, fraction: float) -> int:
    """Smallest ``N_r`` capturing at least ``fraction`` of the energy.

    The paper fixes ``N_r = 5``, noting it captures ~92 % of the variance;
    this helper inverts that choice for new data sets.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    cum = cumulative_energy(energies)
    idx = int(np.searchsorted(cum, fraction - 1e-12))
    return min(idx + 1, cum.size)
