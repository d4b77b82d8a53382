import hashlib

import numpy as np
import pytest

from repro.data.grid import LatLonGrid
from repro.data.sst import SSTConfig, SyntheticSST, WEEKS_PER_YEAR


class TestDeterminism:
    def test_same_seed_same_field(self, coarse_grid):
        a = SyntheticSST(grid=coarse_grid, seed=5).field(10)
        b = SyntheticSST(grid=coarse_grid, seed=5).field(10)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self, coarse_grid):
        a = SyntheticSST(grid=coarse_grid, seed=5).field(10)
        b = SyntheticSST(grid=coarse_grid, seed=6).field(10)
        assert not np.allclose(a, b, equal_nan=True)

    def test_random_access_matches_sequential(self, generator):
        sequential = generator.fields(np.arange(5, 9))
        direct = generator.field(7)
        np.testing.assert_array_equal(sequential[2], direct)

    def test_nonconsecutive_indices(self, generator):
        fields = generator.fields([3, 50, 7])
        np.testing.assert_array_equal(fields[0], generator.field(3))
        np.testing.assert_array_equal(fields[1], generator.field(50))


class TestChunkedReads:
    """Eddy-noise lags carry across ``fields`` calls on one instance.

    Every read pattern yields the bytes of a single read on a fresh
    instance, and draws no more noise fields than the same reads did
    when each call started from an empty cache."""

    # name -> (reads, noise fields drawn, drawn with a per-call cache);
    # 12-degree grid, seed 0. Sequential batches draw each week once.
    PATTERNS = {
        "batches": ([np.arange(4 * b, 4 * b + 4) for b in range(30)],
                    120 + SSTConfig().eddy_truncation, 840),
        "one-read": ([np.arange(120)], 144, 144),
        "backward-window": ([np.arange(100, 120), np.arange(20, 116)],
                            164, 164),
        "scattered": ([[3, 50, 7]], 54, 54),
        "jump-back": ([[479], np.arange(8)], 57, 57),
    }

    @staticmethod
    def _generator() -> SyntheticSST:
        return SyntheticSST(grid=LatLonGrid(degrees=12.0), seed=0)

    @pytest.fixture(scope="class")
    def reference(self) -> np.ndarray:
        return self._generator().snapshots(np.arange(480))

    @pytest.mark.parametrize("pattern", list(PATTERNS))
    def test_reads_match_one_read_bytewise(self, pattern, reference):
        reads, noise, per_call_noise = self.PATTERNS[pattern]
        gen = self._generator()
        drawn = []
        white_noise = gen._white_noise
        gen._white_noise = lambda t, out: drawn.append(t) or white_noise(t, out)
        for weeks in reads:
            snaps = gen.snapshots(weeks)
            assert snaps.tobytes() == np.ascontiguousarray(
                reference[:, weeks]).tobytes()
            assert len(gen._noise_cache) <= gen.config.eddy_truncation
        assert len(drawn) == noise <= per_call_noise


class TestGoldenArchive:
    """Pinned digests of the synthetic archive: any change to the
    generator's numerics (patterns, oscillators, eddy seeding) shows up
    here as a cross-run reproducibility break, not as silent drift of
    every downstream science result."""

    # SHA-256 of the first 4 snapshots at 4 degrees, values rounded to
    # 1e-6 degC (absorbs last-bit FP noise, pins everything physical).
    GOLDEN = {
        0: "a1fcfefd0de8bc1432f3e8120aea76ce"
           "00160c6ec139cbee83b7c9d0963bb2ec",
        123: "76413223354e0ddb4902c568fa9484f6"
             "44ccc32e469d9a37c2c454b0809388d8",
    }

    @staticmethod
    def _digest(seed: int) -> str:
        gen = SyntheticSST(grid=LatLonGrid(degrees=4.0), seed=seed)
        fields = gen.fields(np.arange(4))
        return hashlib.sha256(np.round(fields, 6).tobytes()).hexdigest()

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_archive_digest_is_pinned(self, seed):
        assert self._digest(seed) == self.GOLDEN[seed]

    def test_digests_distinguish_seeds(self):
        assert len(set(self.GOLDEN.values())) == len(self.GOLDEN)


class TestGoldenDriftScenarios:
    """Pinned digests of the drift scenarios, plus the regression that
    matters most: `scenario="none"` (and any scenario before its onset)
    is bitwise identical to the historical archive — drift support must
    never perturb the baseline goldens above."""

    # Same digest recipe as TestGoldenArchive (4 degrees, seed 0, weeks
    # 0-3, 1e-6 rounding); onset week 1 / ramp 2 so the drift is live
    # inside the digested window.
    GOLDEN = {
        "enso_shift": "eb3828d9f1979d4dc32ac722cab60c6f"
                      "c6b776aa9ba738cc3236d482a3e30d24",
        "trend_acceleration": "45967aa70f62a784ddb836db4bc6e850"
                              "33905519d73c1db7f4fb51525bad2943",
    }

    @staticmethod
    def _generator(scenario: str, onset: int = 1) -> SyntheticSST:
        config = SSTConfig(scenario=scenario, scenario_onset_week=onset,
                           scenario_ramp_weeks=2)
        return SyntheticSST(grid=LatLonGrid(degrees=4.0), seed=0,
                            config=config)

    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_scenario_digest_is_pinned(self, scenario):
        fields = self._generator(scenario).fields(np.arange(4))
        digest = hashlib.sha256(np.round(fields, 6).tobytes()).hexdigest()
        assert digest == self.GOLDEN[scenario]

    def test_scenarios_distinct_from_baseline_and_each_other(self):
        digests = set(self.GOLDEN.values()) | set(
            TestGoldenArchive.GOLDEN.values())
        assert len(digests) == len(self.GOLDEN) \
            + len(TestGoldenArchive.GOLDEN)

    def test_none_scenario_bitwise_baseline(self):
        """Explicit `scenario="none"` config == default config, bitwise."""
        explicit = SyntheticSST(
            grid=LatLonGrid(degrees=4.0), seed=0,
            config=SSTConfig(scenario="none"))
        default = SyntheticSST(grid=LatLonGrid(degrees=4.0), seed=0)
        np.testing.assert_array_equal(explicit.fields(np.arange(4)),
                                      default.fields(np.arange(4)))

    @pytest.mark.parametrize("scenario",
                             ["enso_shift", "trend_acceleration"])
    def test_before_onset_bitwise_baseline(self, scenario):
        """Weeks at or before the onset are untouched by the scenario."""
        drifted = self._generator(scenario, onset=3).fields(np.arange(4))
        baseline = SyntheticSST(
            grid=LatLonGrid(degrees=4.0), seed=0).fields(np.arange(4))
        np.testing.assert_array_equal(drifted, baseline)

    @pytest.mark.parametrize("scenario",
                             ["enso_shift", "trend_acceleration"])
    def test_after_onset_differs(self, scenario):
        gen = self._generator(scenario, onset=1)
        baseline = SyntheticSST(grid=LatLonGrid(degrees=4.0), seed=0)
        a, b = gen.field(3), baseline.field(3)
        assert not np.allclose(a, b, equal_nan=True)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario"):
            SSTConfig(scenario="meteor_strike")

    def test_invalid_ramp_rejected(self):
        with pytest.raises(ValueError):
            SSTConfig(scenario="enso_shift", scenario_ramp_weeks=0)


class TestFieldStructure:
    def test_land_is_nan(self, generator):
        field = generator.field(0)
        assert np.isnan(field[~generator.ocean_mask]).all()
        assert np.isfinite(field[generator.ocean_mask]).all()

    def test_physically_plausible_range(self, generator):
        field = generator.field(100)
        ocean = field[generator.ocean_mask]
        assert ocean.min() > -15.0
        assert ocean.max() < 45.0

    def test_tropics_warmer_than_poles(self, generator):
        field = generator.field(0)
        grid = generator.grid
        lat2d, _ = grid.mesh()
        tropics = generator.ocean_mask & (np.abs(lat2d) < 15)
        polar = generator.ocean_mask & (np.abs(lat2d) > 60)
        assert np.nanmean(field[tropics]) > np.nanmean(field[polar]) + 10.0

    def test_seasonal_cycle_present(self, generator):
        # Northern midlatitude point: summer warmer than winter.
        i, j = generator.grid.nearest_index(42.0, 180.0)
        # one annual cycle sampled at 13-week intervals
        year = [generator.field(t)[i, j] for t in range(0, 53, 13)]
        assert max(year) - min(year) > 2.0

    def test_hemispheres_antiphased(self, generator):
        grid = generator.grid
        i_n, j_n = grid.nearest_index(42.0, 180.0)
        i_s, j_s = grid.nearest_index(-42.0, 180.0)
        series_n, series_s = [], []
        for t in range(0, 105, 4):
            f = generator.field(t)
            series_n.append(f[i_n, j_n])
            series_s.append(f[i_s, j_s])
        corr = np.corrcoef(series_n, series_s)[0, 1]
        assert corr < -0.3

    def test_warming_trend(self, coarse_grid):
        cfg = SSTConfig(trend_per_year=0.05)
        gen = SyntheticSST(grid=coarse_grid, seed=0, config=cfg)
        early = np.nanmean(gen.fields(np.arange(0, 52, 13)))
        late_start = int(30 * WEEKS_PER_YEAR)
        late = np.nanmean(gen.fields(np.arange(late_start,
                                               late_start + 52, 13)))
        assert late > early + 0.5


class TestIndices:
    def test_enso_reproducible(self, generator):
        assert generator.enso_index(100) == generator.enso_index(100)

    def test_enso_bounded(self, generator):
        values = [generator.enso_index(t) for t in range(0, 1914, 13)]
        assert max(np.abs(values)) < 6.0

    def test_enso_oscillates(self, generator):
        values = np.array([generator.enso_index(t) for t in range(1914)])
        sign_changes = np.sum(np.diff(np.sign(values - values.mean())) != 0)
        # Period ~170 weeks across 1914 weeks -> ~20+ crossings.
        assert sign_changes >= 10

    def test_enso_negative_time_supported(self, generator):
        # Eddy warm-up reaches before t=0.
        assert np.isfinite(generator.enso_index(-10))

    def test_enso_too_early_rejected(self, generator):
        with pytest.raises(ValueError):
            generator.enso_index(-10_000)

    def test_weather_indices_standardized(self, generator):
        x = np.array([generator.weather_index(t) for t in range(1000)])
        z = np.array([generator.dipole_index(t) for t in range(1000)])
        assert 0.5 < x.std() < 2.0
        assert 0.5 < z.std() < 2.0

    def test_weather_chaotic_decorrelation(self, generator):
        x = np.array([generator.weather_index(t) for t in range(1200)])
        ac1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        ac30 = np.corrcoef(x[:-30], x[30:])[0, 1]
        assert ac1 > 0.6          # smooth at one week
        assert abs(ac30) < 0.55   # decorrelates within a season

    def test_series_extension(self, coarse_grid):
        gen = SyntheticSST(grid=coarse_grid, seed=9)
        early = gen.enso_index(10)
        gen.enso_index(3000)  # force extension beyond initial block
        assert gen.enso_index(10) == early


class TestSnapshots:
    def test_snapshot_shape(self, generator):
        snaps = generator.snapshots([0, 1, 2])
        assert snaps.shape == (generator.n_ocean, 3)

    def test_snapshots_finite(self, generator):
        assert np.isfinite(generator.snapshots([5, 6])).all()

    def test_unflatten_roundtrip(self, generator):
        field = generator.field(3)
        vec = field[generator.ocean_mask]
        np.testing.assert_allclose(generator.unflatten(vec), field,
                                   equal_nan=True)

    def test_unflatten_wrong_size(self, generator):
        with pytest.raises(ValueError):
            generator.unflatten(np.zeros(3))

    def test_indices_must_be_1d(self, generator):
        with pytest.raises(ValueError):
            generator.fields(np.zeros((2, 2), dtype=int))


class TestConfigValidation:
    def test_bad_rho(self):
        with pytest.raises(ValueError):
            SSTConfig(eddy_rho=1.0)

    def test_bad_truncation(self):
        with pytest.raises(ValueError):
            SSTConfig(eddy_truncation=0)

    def test_eddy_has_memory(self, coarse_grid):
        gen = SyntheticSST(grid=coarse_grid, seed=4)
        e0, e1 = gen._eddies(range(100, 102))
        mask = gen.ocean_mask
        corr = np.corrcoef(e0[mask], e1[mask])[0, 1]
        assert corr > 0.4  # AR(1) rho = 0.65
