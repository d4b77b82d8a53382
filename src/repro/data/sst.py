"""Procedural sea-surface-temperature field generator.

Substitutes for the NOAA Optimum Interpolation SST V2 archive (offline
environment — see DESIGN.md). The generated field is a sum of physically
motivated components chosen so the proper-orthogonal-decomposition
spectrum matches the regime the paper reports (Nr = 5 modes capture
roughly 92 % of the mean-removed variance; modes 1-3 quasi-periodic,
modes 4+ increasingly stochastic):

``T(x, t) = climatology(x) + seasonal(x, t) + enso(x, t)
            + trend(x, t) + eddies(x, t)``

* climatology — zonally dominated mean state with an equatorial warm pool;
* seasonal — annual harmonic, hemispherically anti-phased, mid-latitude
  amplified (the dominant POD pair), plus a weaker semi-annual harmonic
  with a distinct spatial pattern (modes 3-4 content);
* enso — an irregular 3-7 year oscillation confined to an Eastern
  equatorial Pacific blob;
* trend — slow warming, amplified in the northern hemisphere (this is what
  defeats the tree/linear baselines on the 1990-2018 test split);
* eddies — spatially correlated AR(1) noise (small-scale stochasticity).

Snapshots are randomly accessible and bit-reproducible: the eddy AR(1)
process is expressed as a truncated moving average over per-timestep noise
fields keyed by ``(seed, t)``, so ``field(t)`` never depends on what else
was generated.

Synthesis runs in blocks of consecutive weeks (``fields``): the scalars
of each week (phase cosines, oscillator indices, drift factors, the
scenario term) are computed one week at a time, and the sums over grid
cells run once per block, as IEEE ``+`` and ``*`` in the order a
week-at-a-time loop uses. The result is that loop's bytes, which the
differential suite checks against the loop itself
(tests/reference_sst.py).

Drift scenarios (``SSTConfig.scenario``) superimpose a structural change
on the archive after a configurable onset week, for exercising
continuous-learning promotion decisions (docs/PIPELINE.md):

* ``"enso_shift"`` — an ENSO regime shift: the Eastern-Pacific ENSO arm
  intensifies (a variance change in the retained modes) and a standing
  warm anomaly builds over the Nino region (a mean change), ramping in
  over ``scenario_ramp_weeks``;
* ``"trend_acceleration"`` — the secular warming *rate* itself grows
  after onset, so the trend offset departs quadratically from the
  pre-onset extrapolation.

``scenario="none"`` (the default) leaves the generator's numerics
untouched — the scenario term is never evaluated, so the no-drift
archive stays bitwise identical to pre-scenario releases (golden
digests in tests/test_sst_generator.py pin both this and the drifted
fields).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.data.grid import LatLonGrid
from repro.data.mask import synthetic_land_mask

__all__ = ["DRIFT_SCENARIOS", "SSTConfig", "SyntheticSST"]

#: Structural-drift scenarios the generator can superimpose after
#: ``scenario_onset_week`` (``"none"`` disables the machinery entirely).
DRIFT_SCENARIOS = ("none", "enso_shift", "trend_acceleration")

#: Mean tropical year expressed in weeks — the seasonal angular frequency.
WEEKS_PER_YEAR = 365.2425 / 7.0

#: Grid cells per synthesis block: ``fields`` makes consecutive weeks
#: ``max(1, _BLOCK_CELLS // grid.n_cells)`` at a time (8 at 4 degrees, 1
#: at 1 degree), so one NumPy call covers a block while a block-sized
#: array (256 kB) still sits in cache.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class SSTConfig:
    """Amplitudes and scales of the synthetic SST components (degrees C)."""

    # Defaults calibrated (on the 4-degree grid, training period) so the
    # leading 5 POD modes capture ~92 % of the fluctuation variance —
    # the paper's reported figure for NOAA OI SST with Nr = 5.
    seasonal_amplitude: float = 5.0
    seasonal_lag_fraction: float = 0.55  # quadrature annual pattern (mode pair)
    semiannual_amplitude: float = 2.0
    enso_amplitude: float = 1.2
    enso_lag_amplitude: float = 0.8      # westward-shifted lagged ENSO arm
    enso_sq_amplitude: float = 0.6       # quadratic ENSO response (skewness)
    enso_growth_per_37y: float = 0.0     # secular ENSO intensification
    enso_time_scale: float = 0.15         # FHN model-time units per week
    enso_epsilon: float = 0.1           # FHN recovery rate (sets period)
    enso_forcing: float = 0.5            # FHN constant forcing current
    enso_noise: float = 0.1             # stochastic forcing / sqrt(week)
    dipole_amplitude: float = 1.6        # southern chaotic weather arm
    weather_amplitude: float = 2.2       # northern chaotic weather arm
    weather_week_units: float = 0.06     # Lorenz-63 time units per week
    trend_per_year: float = 0.012
    seasonal_drift: float = 0.25         # secular drift of the seasonal-
    #                                      cycle patterns (mild covariate
    #                                      shift of the retained modes)
    eddy_amplitude: float = 1.1
    eddy_rho: float = 0.65          # AR(1) memory of the eddy field
    eddy_smooth_cells: float = 2.0  # spatial correlation length (grid cells)
    eddy_truncation: int = 24       # MA truncation: rho^24 ~ 3e-5
    # Structural drift (see module docstring / DRIFT_SCENARIOS). The
    # scenario term is additive and strictly gated: with "none" the
    # generator's arithmetic is exactly the historical no-drift path.
    scenario: str = "none"
    scenario_onset_week: int = 430       # first drifting week
    scenario_ramp_weeks: int = 104       # enso_shift ramp-in length
    scenario_strength: float = 1.0       # overall drift amplitude scale

    def __post_init__(self) -> None:
        if not 0.0 <= self.eddy_rho < 1.0:
            raise ValueError(f"eddy_rho must be in [0, 1), got {self.eddy_rho}")
        if self.eddy_truncation < 1:
            raise ValueError("eddy_truncation must be >= 1")
        if self.scenario not in DRIFT_SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"expected one of {DRIFT_SCENARIOS}")
        if self.scenario_onset_week < 0:
            raise ValueError("scenario_onset_week must be >= 0, "
                             f"got {self.scenario_onset_week}")
        if self.scenario_ramp_weeks < 1:
            raise ValueError("scenario_ramp_weeks must be >= 1, "
                             f"got {self.scenario_ramp_weeks}")


@dataclass
class SyntheticSST:
    """Deterministic synthetic SST archive on a lat/lon grid.

    Parameters
    ----------
    grid:
        Target grid (1 degree reproduces the NOAA layout; coarser grids
        preserve the large-scale statistics at lower memory cost).
    seed:
        Base seed. Two instances with the same ``(grid, seed, config)``
        produce identical fields for every index.
    config:
        Component amplitudes.
    """

    grid: LatLonGrid = field(default_factory=LatLonGrid)
    seed: int = 0
    config: SSTConfig = field(default_factory=SSTConfig)

    def __post_init__(self) -> None:
        self.ocean_mask = synthetic_land_mask(self.grid)
        self._lat2d, self._lon2d = self.grid.mesh()
        self._climatology = self._build_climatology()
        (self._seasonal_pattern, self._seasonal_lag_pattern,
         self._semiannual_pattern) = self._build_seasonal_patterns()
        self._enso_pattern = self._build_enso_pattern()
        self._enso_lag_pattern = self._build_enso_lag_pattern()
        self._enso_sq_pattern = self._build_enso_sq_pattern()
        self._dipole_pattern = self._build_dipole_pattern()
        self._weather_pattern = self._build_weather_pattern()
        self._weather_series = np.empty((0, 2))
        # Climate-change drift of the seasonal/ENSO patterns themselves
        # ("seasonal cycle amplification"): a slow DC offset *inside* the
        # retained POD subspace. Training windows are pure oscillation, so
        # the window-mean direction has near-zero training variance — the
        # 1990-2018 drift along it is the covariate shift that collapses
        # the extrapolating baselines in Table II while the saturating
        # LSTMs degrade gracefully.
        self._drift_pattern = self.config.seasonal_drift * (
            0.5 * self._seasonal_lag_pattern
            + 0.4 * self._semiannual_pattern
            + 0.5 * self._enso_pattern)
        self._eddy_modulation = self._build_eddy_modulation()
        self._trend_pattern = self._build_trend_pattern()
        self._enso_origin = -(self.config.eddy_truncation + 64)
        self._enso_series = np.empty(0)
        self._ensure_enso(2048)
        # Eddy noise fields by week, as (stack, row), kept across fields()
        # calls so a read that continues the previous one redraws none of
        # its lags.
        self._noise_cache: dict[int, tuple[np.ndarray, int]] = {}

    # ------------------------------------------------------------------
    # Spatial patterns
    # ------------------------------------------------------------------
    def _build_climatology(self) -> np.ndarray:
        lat_rad = np.deg2rad(self._lat2d)
        base = -1.8 + 29.5 * np.cos(lat_rad) ** 2
        # Western-Pacific warm pool: a broad equatorial bump near 150E.
        dlon = (self._lon2d - 150.0 + 180.0) % 360.0 - 180.0
        warm_pool = 1.5 * np.exp(-(self._lat2d / 12.0) ** 2
                                 - (dlon / 50.0) ** 2)
        return (base + warm_pool).astype(np.float64)

    def _build_seasonal_patterns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        alat = np.minimum(np.abs(self._lat2d), 65.0)
        amp = self.config.seasonal_amplitude * np.sin(alat / 65.0 * np.pi / 2.0)
        hemi = np.tanh(self._lat2d / 8.0)
        annual_cos = amp * hemi
        # Quadrature (thermally lagged) annual pattern with distinct zonal
        # structure — turns the annual cycle into a POD mode *pair*, as in
        # the real SST field where ocean basins lag the insolation.
        annual_sin = (self.config.seasonal_lag_fraction * amp * hemi
                      * np.cos(np.deg2rad(self._lon2d - 40.0)))
        # Semi-annual harmonic with zonal structure (distinct POD content).
        semi = (self.config.semiannual_amplitude
                * np.cos(np.deg2rad(2.0 * self._lon2d))
                * np.exp(-((np.abs(self._lat2d) - 35.0) / 25.0) ** 2))
        return annual_cos, annual_sin, semi

    def _build_enso_pattern(self) -> np.ndarray:
        dlon = (self._lon2d - 235.0 + 180.0) % 360.0 - 180.0
        return self.config.enso_amplitude * np.exp(
            -(self._lat2d / 12.0) ** 2 - (dlon / 60.0) ** 2)

    def _build_enso_lag_pattern(self) -> np.ndarray:
        """Westward-shifted arm excited by the lagged ENSO index —
        a propagating interannual structure (distinct POD mode)."""
        dlon = (self._lon2d - 185.0 + 180.0) % 360.0 - 180.0
        return self.config.enso_lag_amplitude * np.exp(
            -(self._lat2d / 13.0) ** 2 - (dlon / 45.0) ** 2)

    def _build_enso_sq_pattern(self) -> np.ndarray:
        """Quadratic ENSO response (El Nino events run warmer than La Nina
        events run cold — ENSO skewness). Genuinely *nonlinear* dynamics:
        forecasting this content requires squaring an observable state,
        which separates the LSTMs from the linear baseline in Table II."""
        dlon = (self._lon2d - 258.0 + 180.0) % 360.0 - 180.0
        return self.config.enso_sq_amplitude * np.exp(
            -(self._lat2d / 10.0) ** 2 - (dlon / 30.0) ** 2)

    def _build_dipole_pattern(self) -> np.ndarray:
        """Southern-midlatitude zonal wavenumber-3 pattern excited by the
        second chaotic weather index — more nonlinear content for the
        trailing retained modes."""
        return (self.config.dipole_amplitude
                * np.cos(np.deg2rad(3.0 * self._lon2d + 40.0))
                * np.exp(-((self._lat2d + 42.0) / 16.0) ** 2))

    def _build_weather_pattern(self) -> np.ndarray:
        """Northern storm-track pattern excited by the chaotic
        intraseasonal index — the deterministic-but-nonlinear content that
        separates LSTMs from linear forecasters (paper Table II)."""
        return (self.config.weather_amplitude
                * np.cos(np.deg2rad(2.0 * self._lon2d - 30.0))
                * np.exp(-((self._lat2d - 45.0) / 14.0) ** 2))

    def _build_eddy_modulation(self) -> np.ndarray:
        """Latitude modulation of eddy amplitude: small-scale SST
        variability peaks in the midlatitude storm tracks and is weak in
        the tropics — which is also what keeps the paper's Eastern-Pacific
        forecast RMSE (Table I) well below the global eddy level."""
        lat_rad = np.deg2rad(self._lat2d)
        return 0.45 + 0.85 * np.sin(2.0 * lat_rad) ** 2

    def _build_trend_pattern(self) -> np.ndarray:
        # Warming amplified in the northern hemisphere, damped at the poles.
        north = 1.0 + 0.6 * np.tanh(self._lat2d / 30.0)
        polar_damp = np.cos(np.deg2rad(self._lat2d)) ** 0.5
        return north * polar_damp

    # ------------------------------------------------------------------
    # Temporal series
    # ------------------------------------------------------------------
    @staticmethod
    def _annual_phase(t: np.ndarray) -> np.ndarray:
        return 2.0 * np.pi * (t - 10.0) / WEEKS_PER_YEAR

    def _ensure_enso(self, t_max: int) -> None:
        """Extend the precomputed ENSO oscillator series through ``t_max``.

        The index is a stochastically forced **FitzHugh-Nagumo relaxation
        oscillator** — slow recharge, fast discharge — a standard cartoon
        of ENSO's slow build-up and rapid El Nino bursts. The fast
        transitions make 8-week-ahead prediction a genuinely *nonlinear*
        problem (burst timing depends on the full (v, w) state), which is
        the content class that separates LSTMs from the linear baseline
        (Table II). Amplitude intensifies secularly by
        ``enso_growth_per_37y``. Integrated once from a seeded stream, so
        every ``enso_index(t)`` is reproducible and random-access.
        """
        need = t_max - self._enso_origin + 1
        if need <= self._enso_series.size:
            return
        cfg = self.config
        n = max(need, 2 * self._enso_series.size, 2048)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xE5)))
        substeps = 4
        dt = cfg.enso_time_scale / substeps
        sqrt_dt = np.sqrt(dt)
        v = -1.0 + 0.6 * rng.standard_normal()
        w = 0.3 * rng.standard_normal()
        # Seeded warm-up randomizes the limit-cycle phase so different
        # seeds (e.g. CESM ensemble members vs the observed trajectory)
        # produce decorrelated ENSO histories.
        # Slow Ornstein-Uhlenbeck modulation of the recovery rate makes the
        # oscillation period wander (real ENSO recurs every 2-7 years, not
        # on a clock) — this is also what decorrelates independently seeded
        # trajectories (CESM ensemble members vs the observed record).
        tau = 25.0        # OU relaxation, model-time units (~3 years)
        ou_sigma = 0.30   # stationary std of log-period modulation
        ou = ou_sigma * rng.standard_normal()

        def step() -> None:
            nonlocal v, w, ou
            v += ((v - v ** 3 / 3.0 - w + cfg.enso_forcing) * dt
                  + cfg.enso_noise * sqrt_dt * rng.standard_normal())
            eps = cfg.enso_epsilon * np.exp(ou)
            w += eps * (v + 0.7 - 0.8 * w) * dt
            ou += (-ou / tau) * dt \
                + ou_sigma * np.sqrt(2.0 * dt / tau) * rng.standard_normal()

        for _ in range(int(rng.integers(0, 500)) * substeps):
            step()
        series = np.empty(n)
        for i in range(n):
            t = self._enso_origin + i
            years = max(t, 0) / WEEKS_PER_YEAR
            growth = 1.0 + cfg.enso_growth_per_37y * years / 37.0
            series[i] = v * growth
            for _ in range(substeps):
                step()
        self._enso_series = series

    def enso_index(self, t: int) -> float:
        """ENSO-like index at week ``t`` (see :meth:`_ensure_enso`)."""
        if t < self._enso_origin:
            raise ValueError(
                f"enso_index defined for t >= {self._enso_origin}, got {t}")
        self._ensure_enso(t)
        return float(self._enso_series[t - self._enso_origin])

    def _ensure_weather(self, t_max: int) -> None:
        """Extend the chaotic intraseasonal index through ``t_max``.

        The index is the (standardized) x-coordinate of a Lorenz-63
        trajectory sampled every ``weather_week_units`` model-time units —
        fast deterministic chaos: strongly predictable a few weeks ahead
        *by a nonlinear model*, nearly unpredictable linearly, and fading
        toward the end of the 8-week forecast window. Integrated once with
        RK4 from a seeded initial condition (reproducible random access),
        on Python floats: each operation is the IEEE one the three-element
        array form performed, in the same order, so the series keeps its
        bits (tests/reference_sst.py holds the array form).
        """
        need = t_max - self._enso_origin + 1
        if need <= self._weather_series.shape[0]:
            return
        n = max(need, 2 * self._weather_series.shape[0], 2048)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x3A)))
        state = (np.array([1.0, 1.0, 25.0])
                 + rng.normal(0.0, 1.0, size=3)).tolist()

        def deriv(x: float, y: float, z: float) -> tuple[float, float, float]:
            return (10.0 * (y - x),
                    x * (28.0 - z) - y,
                    x * y - (8.0 / 3.0) * z)

        dt = 0.01
        half, sixth = 0.5 * dt, dt / 6.0

        def step(x: float, y: float, z: float) -> tuple[float, float, float]:
            a1, b1, c1 = deriv(x, y, z)
            a2, b2, c2 = deriv(x + half * a1, y + half * b1, z + half * c1)
            a3, b3, c3 = deriv(x + half * a2, y + half * b2, z + half * c2)
            a4, b4, c4 = deriv(x + dt * a3, y + dt * b3, z + dt * c3)
            return (x + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
                    y + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
                    z + sixth * (c1 + 2 * c2 + 2 * c3 + c4))

        # Warm onto the attractor before recording.
        for _ in range(2000):
            state = step(*state)
        per_week = max(1, int(round(self.config.weather_week_units / dt)))
        series = np.empty((n, 2))
        for i in range(n):
            series[i] = state[0], state[2]
            for _ in range(per_week):
                state = step(*state)
        # Standardize with the long-run Lorenz-63 statistics
        # (x: mean 0, std ~7.9; z: mean ~23.5, std ~8.6).
        series[:, 0] /= 7.9
        series[:, 1] = (series[:, 1] - 23.5) / 8.6
        self._weather_series = series

    def weather_index(self, t: int) -> float:
        """Northern chaotic intraseasonal index (Lorenz-63 x) at week ``t``."""
        if t < self._enso_origin:
            raise ValueError(
                f"weather_index defined for t >= {self._enso_origin}, got {t}")
        self._ensure_weather(t)
        return float(self._weather_series[t - self._enso_origin, 0])

    def dipole_index(self, t: int) -> float:
        """Southern chaotic weather index (Lorenz-63 z) at week ``t`` —
        nonlinearly coupled to :meth:`weather_index` through the shared
        attractor."""
        if t < self._enso_origin:
            raise ValueError(
                f"dipole_index defined for t >= {self._enso_origin}, got {t}")
        self._ensure_weather(t)
        return float(self._weather_series[t - self._enso_origin, 1])

    # ------------------------------------------------------------------
    # Structural drift scenarios
    # ------------------------------------------------------------------
    def _scenario_term(self, t: int) -> np.ndarray | float:
        """Additive drift field at week ``t`` (0.0 before onset).

        Only called when ``config.scenario != "none"`` — the no-drift
        path never evaluates this, keeping the historical archive
        bitwise unchanged.
        """
        cfg = self.config
        dt = t - cfg.scenario_onset_week
        if dt <= 0:
            return 0.0
        s = cfg.scenario_strength
        if cfg.scenario == "enso_shift":
            # Regime shift: the ENSO arm intensifies (its index couples
            # harder into the pattern — a covariance change of the
            # retained modes) while a standing warm anomaly builds over
            # the Nino region (a mean change), with the lagged western
            # arm strengthening in step. Ramps in over
            # scenario_ramp_weeks, then holds.
            ramp = min(dt / cfg.scenario_ramp_weeks, 1.0)
            return s * ramp * (
                self._enso_pattern * (0.75 * self.enso_index(t) + 0.8)
                + 0.5 * self._enso_lag_pattern * self.enso_index(t - 26))
        # trend_acceleration: the warming *rate* grows linearly after
        # onset, so the accumulated offset departs quadratically from the
        # pre-onset trend line (8x the base rate gained per year at
        # strength 1).
        years = dt / WEEKS_PER_YEAR
        accel = 8.0 * cfg.trend_per_year
        return s * 0.5 * accel * years ** 2 * self._trend_pattern

    # ------------------------------------------------------------------
    # Eddy (stochastic) component
    # ------------------------------------------------------------------
    def _white_noise(self, t: int, out: np.ndarray) -> None:
        """Draw week ``t``'s white noise into ``out`` from its own stream."""
        # SeedSequence requires non-negative entropy; the AR warm-up reaches
        # back `eddy_truncation` weeks before t=0, so offset the key.
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 1, t + (1 << 20))))
        rng.standard_normal(out=out)

    def _noise_fields(self, weeks: list[int]) -> np.ndarray:
        """Spatially smoothed unit-variance noise of ``weeks``, one per row.

        White in time: each week's field depends on ``(seed, week)`` only.
        One filter call smooths the whole stack (no smoothing across rows);
        each field is then normalized by its own standard deviation.
        """
        noise = np.empty((len(weeks),) + self.grid.shape)
        for row, t in enumerate(weeks):
            self._white_noise(t, noise[row])
        s = self.config.eddy_smooth_cells
        # In place: the filter buffers each line before writing it back.
        ndimage.gaussian_filter(noise, sigma=(0, s, s), output=noise,
                                mode=("nearest", "nearest", "wrap"))
        for week_noise in noise:
            std = week_noise.std()
            if std > 0:
                week_noise /= std
        return noise

    def _eddies(self, weeks: range) -> np.ndarray:
        """AR(1) eddy fields of consecutive ``weeks``, ``(n, n_lat, n_lon)``.

        ``e_t = sqrt(1-rho^2) * sum_k rho^k n_{t-k}`` truncated at
        ``eddy_truncation`` lags — random access with bounded cost.

        Noise fields come from, and go to, the instance's noise cache
        (week -> ``(stack, row)``). Its weeks are walked week by week, as a
        week-at-a-time read would: each week's missing lags are noted in
        lag order, and the weeks held are cut back to those nearest that
        week once there are more than ``2 * (eddy_truncation + 2)``. The
        noted weeks are then drawn and smoothed together, and each lag
        ``k`` is added to every week of the block at once, in ``k`` order.
        """
        cfg = self.config
        trunc = cfg.eddy_truncation
        max_cache = trunc + 2
        held = dict.fromkeys(self._noise_cache)  # the cache's weeks, in order
        fresh: list[int] = []  # weeks to draw, in draw order
        for t in weeks:
            for k in range(trunc + 1):
                tk = t - k
                if tk < -trunc:
                    break
                if tk not in held:
                    held[tk] = None
                    fresh.append(tk)
            # Bound the cache: keep the lags nearest the week just made.
            if len(held) > 2 * max_cache:
                for key in sorted(held, key=lambda k: abs(k - t))[max_cache:]:
                    del held[key]
        lags = dict(self._noise_cache)
        if fresh:
            noise = self._noise_fields(fresh)
            lags.update((tk, (noise, row)) for row, tk in enumerate(fresh))
        self._noise_cache = {tk: lags[tk] for tk in held}
        t0, n = weeks[0], len(weeks)
        # Runs of lag weeks held on consecutive rows of one stack, as
        # [first week, stop week, stack, row of the first week]: a lag
        # reaches every week of the block through one slice per run.
        runs: list[list] = []
        for week in range(max(t0 - trunc, -trunc), t0 + n):
            stack, row = lags[week]
            if (runs and runs[-1][2] is stack
                    and runs[-1][3] + week - runs[-1][0] == row):
                runs[-1][1] = week + 1
            else:
                runs.append([week, week + 1, stack, row])
        stops = [run[1] for run in runs]
        acc = np.zeros((n,) + self.grid.shape)
        term = np.empty_like(acc)
        for k in range(trunc + 1):
            # Week t0 + r reads lag week t0 + r - k; none precedes -trunc.
            lo, hi = max(t0 - k, -trunc), t0 + n - k
            if lo >= hi:
                break
            # The runs holding weeks lo..hi-1 start at the one holding lo.
            for first, stop, stack, row in runs[bisect_right(stops, lo):]:
                if first >= hi:
                    break
                a, b = max(first, lo), min(stop, hi)
                rows = slice(a - t0 + k, b - t0 + k)
                np.multiply(stack[row + a - first:row + b - first],
                            cfg.eddy_rho ** k, out=term[rows])
                acc[rows] += term[rows]
        scale = (cfg.eddy_amplitude * self._eddy_modulation
                 * np.sqrt(1.0 - cfg.eddy_rho ** 2))
        return np.multiply(scale, acc, out=acc)

    def _deterministic(self, weeks: range, out: np.ndarray) -> None:
        """Write the deterministic component of consecutive ``weeks``.

        Each week's coefficients are scalars, computed one week at a time;
        the sum then runs once per block, term by term in a fixed order.
        """
        coefficients = []
        for t in weeks:
            phase = self._annual_phase(np.float64(t))
            enso = self.enso_index(t)
            coefficients.append((
                np.cos(phase), np.sin(phase), np.cos(2.0 * phase + 0.7),
                enso, self.enso_index(t - 26), enso ** 2 - 0.5,
                self.dipole_index(t), self.weather_index(t),
                t / (37.0 * WEEKS_PER_YEAR),
                self.config.trend_per_year * t / WEEKS_PER_YEAR))
        columns = np.array(coefficients).T[:, :, None, None]
        patterns = (self._seasonal_pattern, self._seasonal_lag_pattern,
                    self._semiannual_pattern, self._enso_pattern,
                    self._enso_lag_pattern, self._enso_sq_pattern,
                    self._dipole_pattern, self._weather_pattern,
                    self._drift_pattern, self._trend_pattern)
        term = np.empty_like(out)
        np.add(self._climatology,
               np.multiply(patterns[0], columns[0], out=term), out=out)
        for pattern, column in zip(patterns[1:], columns[1:]):
            out += np.multiply(pattern, column, out=term)
        if self.config.scenario != "none":
            for row, t in enumerate(weeks):
                out[row] += self._scenario_term(t)

    # ------------------------------------------------------------------
    # Public field access
    # ------------------------------------------------------------------
    def field(self, t: int) -> np.ndarray:
        """SST field at week ``t``; land cells are NaN. Shape ``grid.shape``."""
        return self.fields(np.asarray([t]))[0]

    def fields(self, indices) -> np.ndarray:
        """Stack of SST fields, shape ``(len(indices), n_lat, n_lon)``.

        Each run of consecutive ascending weeks is made in blocks of
        ``max(1, _BLOCK_CELLS // grid.n_cells)`` weeks: one NumPy call per
        term and per eddy lag covers a block, and every block draws and
        smooths its new noise fields together. The bits are those of a
        week-at-a-time loop (tests/reference_sst.py): per-week scalars
        are computed one week at a time and the block arithmetic is IEEE
        ``+`` and ``*`` in that loop's order.

        Noise fields are reused across steps, so sequential generation
        costs ~1 smoothing per snapshot. The reuse spans calls on one
        instance: each call keeps the ``eddy_truncation`` lags that a read
        starting at the week after its last one needs, so reading a stream
        in consecutive chunks costs the same as one read. Noise depends on
        ``(seed, week)`` alone, so no value depends on how reads are
        chunked. Like the lazily extended ENSO and weather series, this
        cache makes an instance unsafe to share between threads.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        out = np.empty((idx.size,) + self.grid.shape, dtype=np.float64)
        block = max(1, _BLOCK_CELLS // self.grid.n_cells)
        bounds = [0, *(np.flatnonzero(np.diff(idx) != 1) + 1).tolist(),
                  idx.size]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            for row in range(start, stop, block):
                first = int(idx[row])
                weeks = range(first, first + min(block, stop - row))
                view = out[row:row + len(weeks)]
                self._deterministic(weeks, out=view)
                view += self._eddies(weeks)
        if idx.size:
            # Keep only the lags a read continuing at the next week reuses.
            last = int(idx[-1])
            reused = range(last - self.config.eddy_truncation + 1, last + 1)
            for key in [k for k in self._noise_cache if k not in reused]:
                del self._noise_cache[key]
        out[:, ~self.ocean_mask] = np.nan
        return out

    def snapshots(self, indices) -> np.ndarray:
        """Flattened ocean-only snapshots, shape ``(N_h, len(indices))``.

        This is the column-per-snapshot layout the POD snapshot matrix
        expects (paper Eq. 1).
        """
        stack = self.fields(indices)
        return np.ascontiguousarray(stack[:, self.ocean_mask].T)

    def unflatten(self, vector: np.ndarray) -> np.ndarray:
        """Expand an ``N_h`` ocean vector back onto the grid (land = NaN)."""
        vector = np.asarray(vector, dtype=np.float64)
        n_ocean = int(self.ocean_mask.sum())
        if vector.shape != (n_ocean,):
            raise ValueError(
                f"expected vector of shape ({n_ocean},), got {vector.shape}")
        out = np.full(self.grid.shape, np.nan)
        out[self.ocean_mask] = vector
        return out

    @property
    def n_ocean(self) -> int:
        """Number of ocean cells ``N_h`` (the snapshot dimension)."""
        return int(self.ocean_mask.sum())
