"""Simulated CESM large-ensemble forecast.

CESM properties the paper measures (Sec. IV-B, Table I, Figs. 5-7):

* initialized once, decades before the assessment window, so its
  interannual variability (ENSO phase, weather) is **uncorrelated** with
  the observed trajectory — "the POD coefficients of the CESM forecasts
  tend to pick up trends in the large-scale features (modes 1 and 2)
  appropriately but show distinct misalignment with increasing modes";
* it does capture climatology (seasonal cycle) and the secular trend;
* it runs on a finer ocean grid and is cubic-interpolated onto the NOAA
  grid, with its own systematic bias; Eastern-Pacific weekly RMSE
  ~1.83-1.88 C, flat in lead time (the forecast never re-initializes).

The simulator realizes exactly that: the truth generator's deterministic
*climatology + seasonal + trend* components, plus CESM-internal ENSO/
weather/eddy variability drawn from an independent seed (its own climate
trajectory), a small systematic bias, and a regrid round trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comparators.regrid import regrid_roundtrip
from repro.data.sst import SSTConfig, SyntheticSST
from repro.utils.validation import check_positive_int

__all__ = ["SimulatedCESM"]


@dataclass
class SimulatedCESM:
    """CESM-like long-horizon climate forecast aligned to a truth archive.

    Parameters
    ----------
    truth:
        The observed (synthetic NOAA) archive being forecast.
    member_seed:
        Which internal-variability trajectory this ensemble member rolls
        (independent of the truth seed by construction).
    bias:
        Systematic surface bias in degrees C (coupled models are rarely
        unbiased; the paper suspects interpolation/bias artifacts).
    regrid_factor:
        Ocean-grid refinement factor for the interpolation round trip.
    """

    truth: SyntheticSST
    member_seed: int = 1
    bias: float = 0.35
    regrid_factor: int = 2
    smooth_sigma: float = 1.2
    #: Fraction of interannual/eddy variance the coupled model carries —
    #: the simulated model under-disperses relative to observations (a
    #: common coupled-model deficiency), which keeps the mismatch RMSE
    #: near the paper's ~1.85 C instead of double-counting two
    #: independent full-variance ENSO trajectories.
    interannual_fraction: float = 0.3
    _internal: SyntheticSST = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.regrid_factor, name="regrid_factor")
        if self.member_seed == self.truth.seed:
            raise ValueError(
                "member_seed must differ from the truth seed — CESM's "
                "internal variability is uncorrelated with observations")
        if not 0.0 <= self.interannual_fraction <= 1.0:
            raise ValueError("interannual_fraction must be in [0, 1]")
        # The member's own climate trajectory: same climatology/seasonal/
        # trend physics, damped internal variability, different
        # realization of ENSO / weather / eddies.
        cfg = self.truth.config
        frac = self.interannual_fraction
        member_cfg = SSTConfig(
            seasonal_amplitude=cfg.seasonal_amplitude,
            seasonal_lag_fraction=cfg.seasonal_lag_fraction,
            semiannual_amplitude=cfg.semiannual_amplitude,
            enso_amplitude=frac * cfg.enso_amplitude,
            enso_lag_amplitude=frac * cfg.enso_lag_amplitude,
            enso_sq_amplitude=frac * cfg.enso_sq_amplitude,
            enso_growth_per_37y=cfg.enso_growth_per_37y,
            dipole_amplitude=frac * cfg.dipole_amplitude,
            weather_amplitude=frac * cfg.weather_amplitude,
            weather_week_units=cfg.weather_week_units,
            trend_per_year=cfg.trend_per_year,
            seasonal_drift=cfg.seasonal_drift,
            eddy_amplitude=frac * cfg.eddy_amplitude,
            eddy_rho=cfg.eddy_rho,
            eddy_smooth_cells=cfg.eddy_smooth_cells,
            eddy_truncation=cfg.eddy_truncation)
        self._internal = SyntheticSST(grid=self.truth.grid,
                                      seed=self.member_seed,
                                      config=member_cfg)

    def field(self, t: int) -> np.ndarray:
        """CESM forecast field for week ``t`` on the NOAA grid (land NaN)."""
        return self.fields([t])[0]

    def fields(self, indices) -> np.ndarray:
        """Stack of forecasts, shape ``(len(indices), n_lat, n_lon)``."""
        idx = np.asarray(indices, dtype=np.int64)
        member = self._internal.fields(idx)
        out = np.empty_like(member)
        for row in range(idx.size):
            frame = regrid_roundtrip(member[row] + self.bias,
                                     self.regrid_factor,
                                     smooth_sigma=self.smooth_sigma)
            frame[~self.truth.ocean_mask] = np.nan
            out[row] = frame
        return out

    def snapshots(self, indices) -> np.ndarray:
        """Flattened ocean-only forecast columns ``(N_h, n)``."""
        stack = self.fields(indices)
        return np.ascontiguousarray(stack[:, self.truth.ocean_mask].T)
