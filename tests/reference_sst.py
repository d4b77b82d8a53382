"""Reference SST synthesis: the oracle of the SST differential suite.

:class:`ReferenceSST` is :class:`repro.data.sst.SyntheticSST` with the
per-week synthesis path the production generator replaced: a ``fields``
loop that builds one week at a time (deterministic sum, one smoothed
noise field per missing lag, a 25-lag moving average per week) and the
Lorenz-63 weather index integrated with RK4 on three-element arrays.
Patterns, the ENSO oscillator and the drift scenarios are inherited, so
the two classes differ only in how they evaluate the same arithmetic.

The production generator is held to it **byte for byte**
(tests/test_sst_differential.py), including which noise fields each
read draws and which lags each call leaves cached. Every expression
below must stay exactly as written: the oracle is what "the same bits"
means.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.data.sst import WEEKS_PER_YEAR, SyntheticSST


class ReferenceSST(SyntheticSST):
    """The per-week generator (see the module docstring)."""

    def _ensure_weather(self, t_max: int) -> None:
        need = t_max - self._enso_origin + 1
        if need <= self._weather_series.shape[0]:
            return
        n = max(need, 2 * self._weather_series.shape[0], 2048)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x3A)))
        state = np.array([1.0, 1.0, 25.0]) + rng.normal(0.0, 1.0, size=3)

        def deriv(s: np.ndarray) -> np.ndarray:
            x, y, z = s
            return np.array([10.0 * (y - x),
                             x * (28.0 - z) - y,
                             x * y - (8.0 / 3.0) * z])

        dt = 0.01
        # Warm onto the attractor before recording.
        for _ in range(2000):
            k1 = deriv(state)
            k2 = deriv(state + 0.5 * dt * k1)
            k3 = deriv(state + 0.5 * dt * k2)
            k4 = deriv(state + dt * k3)
            state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        per_week = max(1, int(round(self.config.weather_week_units / dt)))
        series = np.empty((n, 2))
        for i in range(n):
            series[i, 0] = state[0]
            series[i, 1] = state[2]
            for _ in range(per_week):
                k1 = deriv(state)
                k2 = deriv(state + 0.5 * dt * k1)
                k3 = deriv(state + 0.5 * dt * k2)
                k4 = deriv(state + dt * k3)
                state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        # Standardize with the long-run Lorenz-63 statistics
        # (x: mean 0, std ~7.9; z: mean ~23.5, std ~8.6).
        series[:, 0] /= 7.9
        series[:, 1] = (series[:, 1] - 23.5) / 8.6
        self._weather_series = series

    def _noise_field(self, t: int) -> np.ndarray:
        """White-in-time, spatially smoothed unit-variance noise for week t."""
        # SeedSequence requires non-negative entropy; the AR warm-up reaches
        # back `eddy_truncation` weeks before t=0, so offset the key.
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 1, t + (1 << 20))))
        white = rng.standard_normal(self.grid.shape)
        smooth = ndimage.gaussian_filter(
            white, sigma=self.config.eddy_smooth_cells, mode=("nearest", "wrap"))
        std = smooth.std()
        return smooth / std if std > 0 else smooth

    def _eddy_field(self, t: int, cache: dict[int, np.ndarray]
                    ) -> np.ndarray:
        """AR(1) eddy field via truncated moving-average representation.

        ``e_t = sqrt(1-rho^2) * sum_k rho^k n_{t-k}`` truncated at
        ``eddy_truncation`` lags — random access with bounded cost.
        Noise fields are looked up in, and added to, ``cache``.
        """
        cfg = self.config
        acc = np.zeros(self.grid.shape)
        coeff = np.sqrt(1.0 - cfg.eddy_rho ** 2)
        for k in range(cfg.eddy_truncation + 1):
            tk = t - k
            if tk < -cfg.eddy_truncation:
                break
            if tk not in cache:
                cache[tk] = self._noise_field(tk)
            acc += (cfg.eddy_rho ** k) * cache[tk]
        return cfg.eddy_amplitude * self._eddy_modulation * coeff * acc

    def fields(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        out = np.empty((idx.size,) + self.grid.shape, dtype=np.float64)
        noise_cache = self._noise_cache
        max_cache = self.config.eddy_truncation + 2
        for row, t in enumerate(idx):
            t = int(t)
            phase = self._annual_phase(np.float64(t))
            deterministic = (
                self._climatology
                + self._seasonal_pattern * np.cos(phase)
                + self._seasonal_lag_pattern * np.sin(phase)
                + self._semiannual_pattern * np.cos(2.0 * phase + 0.7)
                + self._enso_pattern * self.enso_index(t)
                + self._enso_lag_pattern * self.enso_index(t - 26)
                + self._enso_sq_pattern * (self.enso_index(t) ** 2 - 0.5)
                + self._dipole_pattern * self.dipole_index(t)
                + self._weather_pattern * self.weather_index(t)
                + self._drift_pattern * (t / (37.0 * WEEKS_PER_YEAR))
                + self._trend_pattern * (self.config.trend_per_year
                                         * t / WEEKS_PER_YEAR))
            if self.config.scenario != "none":
                deterministic = deterministic + self._scenario_term(t)
            out[row] = deterministic + self._eddy_field(t, noise_cache)
            # Bound the cache: keep the lags nearest the week just made.
            if len(noise_cache) > 2 * max_cache:
                for key in sorted(noise_cache,
                                  key=lambda k: abs(k - t))[max_cache:]:
                    del noise_cache[key]
        if idx.size:
            # Keep only the lags a read continuing at the next week reuses.
            last = int(idx[-1])
            reused = range(last - self.config.eddy_truncation + 1, last + 1)
            for key in [k for k in noise_cache if k not in reused]:
                del noise_cache[key]
        out[:, ~self.ocean_mask] = np.nan
        return out
