"""Proper orthogonal decomposition (method of snapshots).

Implements Sec. II-B of the paper: snapshot matrix assembly with mean
removal (Eq. 1-2), the correlation-matrix eigenproblem (Eq. 3-4), reduced
basis truncation (Eq. 5), coefficient extraction (Eq. 6), reconstruction
(Eq. 7), and the projection-error identity (Eq. 8).
"""

from repro.pod.snapshots import SnapshotStats, center_snapshots
from repro.pod.basis import PODBasis, fit_pod, pod_svd
from repro.pod.incremental import IncrementalPOD
from repro.pod.projection import (
    cumulative_energy,
    modes_for_energy,
    project_coefficients,
    projection_error,
    reconstruct,
)

__all__ = [
    "SnapshotStats",
    "center_snapshots",
    "PODBasis",
    "IncrementalPOD",
    "fit_pod",
    "pod_svd",
    "cumulative_energy",
    "modes_for_energy",
    "project_coefficients",
    "projection_error",
    "reconstruct",
]
