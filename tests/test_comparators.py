import numpy as np
import pytest

from repro.comparators import (
    SimulatedCESM,
    SimulatedHYCOM,
    coarsen_field,
    refine_field,
    regional_rmse,
    regrid_roundtrip,
    weekly_rmse_breakdown,
)
from repro.comparators.regrid import fill_nan_nearest
from repro.data.grid import EASTERN_PACIFIC, Region


class TestRegrid:
    def test_refine_shape(self, generator):
        fine = refine_field(generator.field(0), 3)
        assert fine.shape == (generator.grid.n_lat * 3,
                              generator.grid.n_lon * 3)

    def test_refine_preserves_land(self, generator):
        field = generator.field(0)
        fine = refine_field(field, 2)
        frac_coarse = np.isnan(field).mean()
        frac_fine = np.isnan(fine).mean()
        assert frac_fine == pytest.approx(frac_coarse, abs=0.02)

    def test_roundtrip_close_to_original(self, generator):
        field = generator.field(0)
        back = regrid_roundtrip(field, 2)
        ocean = generator.ocean_mask
        err = np.sqrt(np.nanmean((back[ocean] - field[ocean]) ** 2))
        assert err < 0.5  # representation error is small but nonzero

    def test_roundtrip_not_exact(self, generator):
        """Cubic interpolation must introduce *some* representation
        error — the artifact the paper attributes to regridding."""
        field = generator.field(0)
        back = regrid_roundtrip(field, 2, smooth_sigma=1.0)
        ocean = generator.ocean_mask
        assert not np.allclose(back[ocean], field[ocean])

    def test_coarsen_divisibility(self):
        with pytest.raises(ValueError):
            coarsen_field(np.ones((10, 10)), 3)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            refine_field(np.ones((4, 4)), 0)

    def test_fill_nan_nearest(self):
        field = np.array([[1.0, np.nan], [np.nan, 4.0]])
        filled = fill_nan_nearest(field)
        assert np.isfinite(filled).all()
        assert filled[0, 0] == 1.0 and filled[1, 1] == 4.0

    def test_fill_all_nan_rejected(self):
        with pytest.raises(ValueError):
            fill_nan_nearest(np.full((3, 3), np.nan))


class TestSimulatedCESM:
    def test_field_shape_and_mask(self, generator):
        cesm = SimulatedCESM(generator)
        field = cesm.field(100)
        assert field.shape == generator.grid.shape
        assert np.isnan(field[~generator.ocean_mask]).all()

    def test_field_is_a_row_of_fields(self, generator):
        """One week and a stack of weeks give the same bits."""
        stack = SimulatedCESM(generator).fields([3, 100, 9])
        np.testing.assert_array_equal(SimulatedCESM(generator).field(100),
                                      stack[1])

    def test_climatology_tracked(self, generator):
        """CESM follows the seasonal cycle: correlation with truth over a
        year is high at a strongly seasonal point."""
        cesm = SimulatedCESM(generator)
        i, j = generator.grid.nearest_index(42.0, 180.0)
        weeks = np.arange(0, 104, 4)
        truth = generator.fields(weeks)[:, i, j]
        model = cesm.fields(weeks)[:, i, j]
        assert np.corrcoef(truth, model)[0, 1] > 0.8

    def test_interannual_uncorrelated(self, generator):
        """CESM's ENSO trajectory is independent of the observed one."""
        cesm = SimulatedCESM(generator)
        truth_e = [generator.enso_index(t) for t in range(0, 1900, 10)]
        model_e = [cesm._internal.enso_index(t) for t in range(0, 1900, 10)]
        assert abs(np.corrcoef(truth_e, model_e)[0, 1]) < 0.5

    def test_member_seed_must_differ(self, generator):
        with pytest.raises(ValueError):
            SimulatedCESM(generator, member_seed=generator.seed)

    def test_snapshots_layout(self, generator):
        cesm = SimulatedCESM(generator)
        snaps = cesm.snapshots([0, 1])
        assert snaps.shape == (generator.n_ocean, 2)
        assert np.isfinite(snaps).all()

    def test_bias_applied(self, generator):
        biased = SimulatedCESM(generator, bias=2.0)
        unbiased = SimulatedCESM(generator, bias=0.0)
        f_b = biased.field(50)
        f_u = unbiased.field(50)
        ocean = generator.ocean_mask
        assert np.nanmean(f_b[ocean] - f_u[ocean]) == pytest.approx(2.0,
                                                                    abs=0.3)


class TestSimulatedHYCOM:
    def test_tracks_truth_closely(self, generator):
        hycom = SimulatedHYCOM(generator)
        idx = np.arange(100, 120)
        truth = generator.fields(idx)
        model = hycom.fields(idx)
        rmse = regional_rmse(truth, model, generator.grid,
                             EASTERN_PACIFIC, generator.ocean_mask)
        assert rmse < 1.6

    def test_better_than_cesm(self, generator):
        idx = np.arange(200, 230)
        truth = generator.fields(idx)
        hycom_rmse = regional_rmse(truth, SimulatedHYCOM(generator).fields(idx),
                                   generator.grid, EASTERN_PACIFIC,
                                   generator.ocean_mask)
        cesm_rmse = regional_rmse(truth, SimulatedCESM(generator).fields(idx),
                                  generator.grid, EASTERN_PACIFIC,
                                  generator.ocean_mask)
        assert hycom_rmse < cesm_rmse

    def test_deterministic(self, generator):
        a = SimulatedHYCOM(generator).field(77)
        b = SimulatedHYCOM(generator).field(77)
        np.testing.assert_allclose(a, b, equal_nan=True)

    def test_damping_validation(self, generator):
        with pytest.raises(ValueError):
            SimulatedHYCOM(generator, anomaly_damping=1.5)

    def test_error_std_validation(self, generator):
        with pytest.raises(ValueError):
            SimulatedHYCOM(generator, error_std=-0.1)


class TestRegionalMetrics:
    def test_regional_rmse_zero_for_identical(self, generator):
        fields = generator.fields([0, 1])
        assert regional_rmse(fields, fields, generator.grid,
                             EASTERN_PACIFIC, generator.ocean_mask) == 0.0

    def test_regional_rmse_known_offset(self, generator):
        fields = generator.fields([0])
        shifted = fields + 2.0
        assert regional_rmse(fields, shifted, generator.grid,
                             EASTERN_PACIFIC, generator.ocean_mask) == \
            pytest.approx(2.0)

    def test_shape_mismatch(self, generator):
        f = generator.fields([0, 1])
        with pytest.raises(ValueError):
            regional_rmse(f, f[:1], generator.grid, EASTERN_PACIFIC,
                          generator.ocean_mask)

    def test_land_region_rejected(self, generator):
        land_region = Region(lat_min=-89, lat_max=-80, lon_min=10,
                             lon_max=60, name="antarctica")
        f = generator.fields([0])
        with pytest.raises(ValueError, match="no ocean"):
            regional_rmse(f, f, generator.grid, land_region,
                          generator.ocean_mask)

    def test_weekly_breakdown(self, generator):
        f = generator.fields([0, 1])
        truth = {1: f, 2: f}
        forecast = {1: f + 1.0, 2: f + 2.0}
        out = weekly_rmse_breakdown(truth, forecast, generator.grid,
                                    EASTERN_PACIFIC, generator.ocean_mask)
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(2.0)

    def test_weekly_breakdown_key_mismatch(self, generator):
        f = generator.fields([0])
        with pytest.raises(ValueError):
            weekly_rmse_breakdown({1: f}, {2: f}, generator.grid,
                                  EASTERN_PACIFIC, generator.ocean_mask)
