import datetime as dt

import numpy as np
import pytest

from repro.experiments.assessment import (
    ASSESSMENT_END,
    ASSESSMENT_START,
    assessment_indices,
    podlstm_field_forecasts,
)
from repro.experiments.context import ExperimentPreset, ReproductionContext


@pytest.fixture(scope="module")
def mini_ctx():
    preset = ExperimentPreset(name="mini-assess", degrees=12.0, seed=4,
                              posttrain_epochs=2, search_evaluations=60,
                              wall_seconds=600.0)
    return ReproductionContext(preset)


class TestAssessmentWindow:
    def test_paper_dates(self):
        assert ASSESSMENT_START == dt.date(2015, 4, 5)
        assert ASSESSMENT_END == dt.date(2018, 6, 24)

    def test_indices_inside_test_period(self, mini_ctx):
        idx = assessment_indices(mini_ctx)
        assert idx.min() >= mini_ctx.dataset.test_indices.start
        assert idx.max() < mini_ctx.dataset.calendar.n_snapshots
        assert 160 <= idx.size <= 172

    def test_max_targets_thins_by_one_stride(self, mini_ctx):
        full = assessment_indices(mini_ctx)
        for max_targets in (80, 84, 10):
            idx = assessment_indices(mini_ctx, max_targets)
            step = int(np.ceil(full.size / max_targets))
            np.testing.assert_array_equal(idx, full[::step])
            assert idx.size <= max_targets
        np.testing.assert_array_equal(
            assessment_indices(mini_ctx, full.size), full)

    def test_dates_round_trip(self, mini_ctx):
        idx = assessment_indices(mini_ctx)
        cal = mini_ctx.dataset.calendar
        assert cal.date_of(int(idx[0])) >= ASSESSMENT_START
        assert cal.date_of(int(idx[-1])) <= ASSESSMENT_END


class TestFieldForecasts:
    def test_shapes_and_masks(self, mini_ctx):
        targets = assessment_indices(mini_ctx)[:5]
        fields = podlstm_field_forecasts(mini_ctx, 1, targets)
        generator = mini_ctx.dataset.generator
        assert fields.shape == (5,) + generator.grid.shape
        assert np.isnan(fields[:, ~generator.ocean_mask]).all()
        assert np.isfinite(fields[:, generator.ocean_mask]).all()

    def test_every_horizon_supported(self, mini_ctx):
        targets = assessment_indices(mini_ctx)[:3]
        k = mini_ctx.emulator().pipeline.window
        for horizon in (1, k // 2, k):
            fields = podlstm_field_forecasts(mini_ctx, horizon, targets)
            assert fields.shape[0] == targets.size

    def test_early_target_rejected(self, mini_ctx):
        with pytest.raises(ValueError, match="before index 0"):
            podlstm_field_forecasts(mini_ctx, 1, np.asarray([2]))
