"""Shared data pipeline: snapshots <-> scaled POD coefficients <-> windows.

One pipeline instance is fit on the training snapshot matrix and then
reused verbatim by every model — the NAS POD-LSTM, the manual LSTMs and
the classical NARX baselines — so Table II comparisons share identical
compression, scaling and windowing (as the paper's comparisons do).
"""

from __future__ import annotations

import numpy as np

from repro.data.windowing import WindowedExamples, make_windowed_examples
from repro.pod import PODBasis, fit_pod, project_coefficients, reconstruct
from repro.pod.snapshots import SnapshotStats
from repro.forecast.scaling import MinMaxScaler
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["PODCoefficientPipeline"]


class PODCoefficientPipeline:
    """POD + per-mode min-max scaling into (-0.85, 0.85) + stride-1
    windowing, fit on training snapshots.

    Parameters
    ----------
    n_modes:
        N_r — retained POD modes (paper: 5).
    window:
        K — input length and forecast length (paper: 8).
    """

    def __init__(self, n_modes: int = 5, window: int = 8) -> None:
        self.n_modes = check_positive_int(n_modes, name="n_modes")
        self.window = check_positive_int(window, name="window")
        self.basis: PODBasis | None = None
        # The LSTM forecast head is tanh-bounded, so training targets
        # must live inside (-1, 1) (see the scaling module).
        self.scaler = MinMaxScaler()

    # ------------------------------------------------------------------
    def fit(self, snapshots: np.ndarray, *,
            basis: PODBasis | None = None) -> "PODCoefficientPipeline":
        """Fit POD basis and coefficient scaler on ``(N_h, N_s)`` training
        snapshots.

        ``basis`` substitutes an externally-computed basis (e.g. a
        :class:`~repro.pod.IncrementalPOD` snapshot of a streaming
        archive) for the batch POD of ``snapshots``; the coefficient
        scaler is still fit on ``snapshots`` projected through it.
        """
        snaps = check_matrix(snapshots, name="snapshots")
        if basis is None:
            basis = fit_pod(snaps, self.n_modes)
        elif basis.n_modes != self.n_modes:
            raise ValueError(
                f"supplied basis has {basis.n_modes} modes, "
                f"pipeline expects {self.n_modes}")
        # The basis is kept only once the scaler fits: a fitted pipeline
        # always has both.
        self.scaler.fit(project_coefficients(basis, snaps))
        self.basis = basis
        return self

    def _require_fit(self) -> PODBasis:
        if self.basis is None:
            raise RuntimeError("pipeline used before fit")
        return self.basis

    # ------------------------------------------------------------------
    def transform(self, snapshots: np.ndarray) -> np.ndarray:
        """Raw snapshots -> scaled coefficients ``(n_modes, n)``."""
        basis = self._require_fit()
        return self.scaler.transform(project_coefficients(basis, snapshots))

    def coefficients(self, snapshots: np.ndarray) -> np.ndarray:
        """Raw snapshots -> unscaled coefficients (paper Fig. 5 plots)."""
        return project_coefficients(self._require_fit(), snapshots)

    def inverse(self, scaled: np.ndarray) -> np.ndarray:
        """Scaled coefficients -> unscaled coefficients."""
        self._require_fit()
        return self.scaler.inverse_transform(scaled)

    def reconstruct(self, scaled: np.ndarray) -> np.ndarray:
        """Scaled coefficients -> physical snapshot columns (with mean)."""
        basis = self._require_fit()
        return reconstruct(basis, self.scaler.inverse_transform(scaled))

    # ------------------------------------------------------------------
    def windows(self, scaled_coefficients: np.ndarray) -> WindowedExamples:
        """Window a scaled ``(n_modes, n_time)`` series into K-in/K-out
        sequence-to-sequence examples, one per start step."""
        return make_windowed_examples(scaled_coefficients, self.window)

    def windows_from_snapshots(self, snapshots: np.ndarray
                               ) -> WindowedExamples:
        """Convenience: snapshots -> scaled coefficients -> windows."""
        return self.windows(self.transform(snapshots))

    @property
    def energy_fraction(self) -> float:
        """Variance captured by the retained modes (paper: ~0.92)."""
        return self._require_fit().energy_fraction()

    # ------------------------------------------------------------------
    # Fitted-state capture (the substrate of repro.serve bundles)
    # ------------------------------------------------------------------
    def fitted_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The complete fitted state as ``(config, arrays)``.

        ``config`` is JSON-compatible geometry plus the scaler class and
        its limit; ``arrays`` holds the POD basis (modes, energies,
        removed mean) and the scaler's fitted vectors. Together they
        reconstruct the pipeline **exactly** — every transform / inverse
        / window of the restored pipeline is bitwise identical
        (round-trip tested in tests/test_forecast_pipeline.py).
        """
        basis = self._require_fit()
        scaler = self.scaler
        config = {"n_modes": self.n_modes, "window": self.window,
                  "scaler": {"class": "MinMaxScaler", "limit": scaler.limit}}
        arrays = {"pod_modes": basis.modes, "pod_energies": basis.energies,
                  "pod_mean": basis.stats.mean,
                  "scaler_center": scaler.center_,
                  "scaler_halfrange": scaler.halfrange_}
        return config, arrays

    @classmethod
    def from_fitted_state(cls, config: dict,
                          arrays) -> "PODCoefficientPipeline":
        """Rebuild a fitted pipeline from :meth:`fitted_state` output.

        ``arrays`` is any mapping of the array names to arrays (a dict or
        an open ``npz`` archive). A scaler other than ``MinMaxScaler`` is
        refused with ``ValueError``.
        """
        kind = config["scaler"].get("class")
        if kind != "MinMaxScaler":
            raise ValueError(f"unknown scaler class {kind!r}; "
                             "expected 'MinMaxScaler'")
        pipeline = cls(n_modes=int(config["n_modes"]),
                       window=int(config["window"]))
        scaler = pipeline.scaler = MinMaxScaler(
            limit=float(config["scaler"]["limit"]))
        scaler.center_ = np.asarray(arrays["scaler_center"],
                                    dtype=np.float64).copy()
        scaler.halfrange_ = np.asarray(arrays["scaler_halfrange"],
                                       dtype=np.float64).copy()
        modes = np.asarray(arrays["pod_modes"], dtype=np.float64).copy()
        energies = np.asarray(arrays["pod_energies"],
                              dtype=np.float64).copy()
        mean = np.asarray(arrays["pod_mean"], dtype=np.float64).copy()
        pipeline.basis = PODBasis(modes=modes, energies=energies,
                                  stats=SnapshotStats(mean=mean))
        return pipeline
