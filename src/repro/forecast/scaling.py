"""Per-mode min-max scaling of POD coefficients into (-0.85, 0.85).

POD coefficient magnitudes span orders of magnitude across modes (the
leading seasonal mode dwarfs the stochastic tail); scaling each mode
before training keeps the MSE loss — and the R^2 metric — from being
dominated by mode 1 alone, and keeps every training target inside the
tanh-bounded range of the LSTM forecast head.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix

__all__ = ["MinMaxScaler"]


class MinMaxScaler:
    """Row-wise (per-mode) min-max scaling to ``[-limit, limit]``.

    The forecast head is an LSTM whose outputs are tanh-bounded to
    (-1, 1); min-max scaling with ``limit < 1`` keeps every training
    target representable (a standardized seasonal mode would exceed the
    head's reachable range). Out-of-distribution test excursions saturate
    gracefully instead of exploding — the same behaviour the paper's
    Keras LSTMs exhibit on the warming test period.
    """

    def __init__(self, limit: float = 0.85) -> None:
        if not 0.0 < limit <= 1.0:
            raise ValueError(f"limit must be in (0, 1], got {limit}")
        self.limit = float(limit)
        self.center_: np.ndarray | None = None
        self.halfrange_: np.ndarray | None = None

    def fit(self, coefficients: np.ndarray) -> "MinMaxScaler":
        coeff = check_matrix(coefficients, name="coefficients")
        lo = coeff.min(axis=1)
        hi = coeff.max(axis=1)
        self.center_ = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        self.halfrange_ = np.where(half > 0.0, half, 1.0) / self.limit
        return self

    def _check(self, coefficients: np.ndarray) -> np.ndarray:
        if self.center_ is None:
            raise RuntimeError("scaler used before fit")
        coeff = check_matrix(coefficients, name="coefficients")
        if coeff.shape[0] != self.center_.shape[0]:
            raise ValueError(
                f"expected {self.center_.shape[0]} modes, got {coeff.shape[0]}")
        return coeff

    def transform(self, coefficients: np.ndarray) -> np.ndarray:
        coeff = self._check(coefficients)
        return (coeff - self.center_[:, None]) / self.halfrange_[:, None]

    def inverse_transform(self, scaled: np.ndarray) -> np.ndarray:
        coeff = self._check(scaled)
        return coeff * self.halfrange_[:, None] + self.center_[:, None]
