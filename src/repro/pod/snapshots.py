"""Snapshot matrix preparation (paper Eq. 1-2).

The snapshot matrix collects flattened solution states column-wise; the
temporal mean is removed before the decomposition so the basis captures
fluctuations around the mean state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_matrix

__all__ = ["SnapshotStats", "center_snapshots"]


@dataclass(frozen=True)
class SnapshotStats:
    """Mean state retained for centring new snapshots."""

    mean: np.ndarray  # shape (N_h,)

    def center(self, snapshots: np.ndarray) -> np.ndarray:
        """Subtract the stored mean from ``(N_h, n)`` snapshot columns."""
        snaps = check_matrix(snapshots, name="snapshots")
        if snaps.shape[0] != self.mean.shape[0]:
            raise ValueError(
                f"snapshot dimension {snaps.shape[0]} does not match the "
                f"mean dimension {self.mean.shape[0]}")
        return snaps - self.mean[:, None]


def center_snapshots(snapshots: np.ndarray) -> tuple[np.ndarray, SnapshotStats]:
    """Remove the temporal mean from a snapshot matrix.

    Parameters
    ----------
    snapshots:
        ``S`` of shape ``(N_h, N_s)``, one flattened state per column.

    Returns
    -------
    centered, stats:
        The mean-removed matrix (paper's ``q_hat``) and the mean state for
        later reconstruction.
    """
    snaps = check_matrix(snapshots, name="snapshots")
    mean = snaps.mean(axis=1)
    return snaps - mean[:, None], SnapshotStats(mean=mean)
