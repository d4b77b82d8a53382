"""POD basis construction (paper Eq. 3-5).

There is one fitting route, :func:`fit_pod`: the method of snapshots,
an eigendecomposition of the small ``N_s x N_s`` correlation matrix
``C = S^T S`` (the paper's route; efficient because ``N_s << N_h`` for
geophysical archives). :func:`pod_svd`, a thin SVD of ``S``, is the
algebraically equivalent reference the tests hold it (and
:class:`~repro.pod.IncrementalPOD`) to.

Notation: the eigenvalues of ``C`` equal the squared singular values of
``S``; the mode-``i`` "energy" is that eigenvalue. The paper's Eq. 8
writes the projection-error identity with ``lambda_i^2``; consistency with
``C = S^T S`` (its own Eq. 3) requires ``lambda_i`` to the first power,
which is what we implement and verify by property test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from repro.pod.snapshots import SnapshotStats, center_snapshots
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["PODBasis", "fit_pod", "pod_svd"]

#: Relative eigenvalue floor below which trailing modes are treated as
#: numerical noise and excluded from the basis.
_EIG_RTOL = 1e-12

#: Relative eigenvalue spread beyond which the method-of-snapshots modes
#: are re-orthonormalized. Forming ``C = S^T S`` squares the conditioning,
#: so an eigenvector with ``lambda_i <~ 1e-10 * lambda_max`` carries
#: ``O(eps * lambda_max / lambda_i)`` direction error — enough to break
#: column orthonormality past 1e-6 after the ``1/sqrt(lambda_i)`` scaling.
_POLISH_RTOL = 1e-8


@dataclass(frozen=True)
class PODBasis:
    """A truncated orthonormal POD basis.

    Attributes
    ----------
    modes:
        ``psi`` of shape ``(N_h, N_r)``; columns are orthonormal.
    energies:
        Full eigenvalue spectrum of ``C = S^T S`` (descending), length
        ``rank`` — kept whole so projection-error accounting (Eq. 8) can be
        evaluated for any truncation.
    stats:
        The removed temporal mean.
    """

    modes: np.ndarray
    energies: np.ndarray
    stats: SnapshotStats

    def __post_init__(self) -> None:
        if self.modes.ndim != 2:
            raise ValueError(f"modes must be 2-D, got {self.modes.ndim}-D")
        if self.energies.ndim != 1:
            raise ValueError("energies must be 1-D")
        if self.modes.shape[1] > self.energies.shape[0]:
            raise ValueError(
                f"{self.modes.shape[1]} modes but only "
                f"{self.energies.shape[0]} energies")

    @property
    def n_modes(self) -> int:
        """``N_r`` — the retained basis size."""
        return self.modes.shape[1]

    @property
    def state_dim(self) -> int:
        """``N_h`` — the flattened snapshot dimension."""
        return self.modes.shape[0]

    def truncate(self, n_modes: int) -> "PODBasis":
        """A copy retaining only the first ``n_modes`` columns."""
        n_modes = check_positive_int(n_modes, name="n_modes")
        if n_modes > self.n_modes:
            raise ValueError(
                f"cannot truncate to {n_modes} modes, basis has {self.n_modes}")
        return PODBasis(self.modes[:, :n_modes], self.energies, self.stats)

    def energy_fraction(self, n_modes: int | None = None) -> float:
        """Fraction of total fluctuation energy captured by the leading
        ``n_modes`` (default: all retained modes)."""
        k = self.n_modes if n_modes is None else n_modes
        total = float(self.energies.sum())
        if total <= 0.0:
            return 1.0
        return float(self.energies[:k].sum()) / total


def _truncation_rank(energies: np.ndarray, n_modes: int | None) -> int:
    """Clip the requested mode count to the numerical rank."""
    floor = energies[0] * _EIG_RTOL if energies.size else 0.0
    rank = int(np.count_nonzero(energies > floor))
    rank = max(rank, 1)
    if n_modes is None:
        return rank
    return min(check_positive_int(n_modes, name="n_modes"), rank)


def fit_pod(snapshots: np.ndarray, n_modes: int | None = None) -> PODBasis:
    """POD via the ``N_s x N_s`` correlation eigenproblem (paper Eq. 3-4).

    Orthonormal modes are obtained as ``psi_i = S w_i / sqrt(lambda_i)``.

    Parameters
    ----------
    snapshots:
        ``(N_h, N_s)`` snapshot matrix (not yet centered).
    n_modes:
        ``N_r``; ``None`` retains the full numerical rank.
    """
    snaps = check_matrix(snapshots, name="snapshots")
    centered, stats = center_snapshots(snaps)
    corr = centered.T @ centered
    # eigh returns ascending order; energies must be descending.
    eigvals, eigvecs = sla.eigh(corr)
    order = np.argsort(eigvals)[::-1]
    energies = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    n_r = _truncation_rank(energies, n_modes)
    if energies[0] <= 0.0:
        # Constant snapshots: the fluctuation space is trivial; return a
        # canonical unit vector so the basis stays orthonormal.
        modes = np.zeros((centered.shape[0], 1))
        modes[0, 0] = 1.0
        return PODBasis(modes=modes, energies=np.zeros(1), stats=stats)
    scale = 1.0 / np.sqrt(energies[:n_r])
    modes = (centered @ eigvecs[:, :n_r]) * scale[None, :]
    if energies[n_r - 1] < energies[0] * _POLISH_RTOL:
        # A QR polish restores orthonormality to machine precision while
        # preserving the span (R ~ I, so the sign fix keeps each column
        # aligned with its unpolished direction). Well-separated spectra
        # never take this path and stay bitwise unchanged.
        q, r = np.linalg.qr(modes)
        signs = np.where(np.diag(r) >= 0.0, 1.0, -1.0)
        modes = q * signs[None, :]
    return PODBasis(modes=np.ascontiguousarray(modes), energies=energies,
                    stats=stats)


def pod_svd(snapshots: np.ndarray, n_modes: int | None = None) -> PODBasis:
    """POD via thin SVD of the centered snapshot matrix (the reference
    :func:`fit_pod` is tested against)."""
    snaps = check_matrix(snapshots, name="snapshots")
    centered, stats = center_snapshots(snaps)
    u, s, _ = sla.svd(centered, full_matrices=False)
    energies = s ** 2
    n_r = _truncation_rank(energies, n_modes)
    return PODBasis(modes=np.ascontiguousarray(u[:, :n_r]),
                    energies=energies, stats=stats)
