import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.windowing import (
    WindowedExamples,
    make_windowed_examples,
    train_validation_split,
)


def _ramp_series(n_modes: int = 2, n_time: int = 30) -> np.ndarray:
    """coefficients[m, t] = 100*m + t — easy to check window contents."""
    return (100.0 * np.arange(n_modes)[:, None]
            + np.arange(n_time)[None, :]).astype(np.float64)


class TestMakeWindowedExamples:
    def test_count_stride_one(self):
        ex = make_windowed_examples(_ramp_series(n_time=30), window=4)
        assert ex.n_examples == 30 - 8 + 1

    def test_paper_count(self):
        # Paper geometry: Ns=427, K=8, stride 1 -> 412 raw examples.
        coeff = np.zeros((5, 427))
        coeff[0] = np.arange(427)
        ex = make_windowed_examples(coeff, window=8)
        assert ex.n_examples == 412

    def test_window_contents(self):
        ex = make_windowed_examples(_ramp_series(), window=3)
        # first example: inputs times 0..2, outputs times 3..5 for mode 0
        np.testing.assert_allclose(ex.inputs[0, :, 0], [0, 1, 2])
        np.testing.assert_allclose(ex.outputs[0, :, 0], [3, 4, 5])
        # mode 1 offsets by 100
        np.testing.assert_allclose(ex.inputs[0, :, 1], [100, 101, 102])

    def test_outputs_follow_inputs(self):
        ex = make_windowed_examples(_ramp_series(), window=4)
        # output window of example s starts where input window ends
        np.testing.assert_allclose(ex.outputs[:, 0, 0],
                                   ex.inputs[:, -1, 0] + 1.0)

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="at least"):
            make_windowed_examples(_ramp_series(n_time=7), window=4)

    def test_exactly_one_window(self):
        ex = make_windowed_examples(_ramp_series(n_time=8), window=4)
        assert ex.n_examples == 1


class TestWindowedExamples:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            WindowedExamples(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)))

    def test_ndim_enforced(self):
        with pytest.raises(ValueError, match="3-D"):
            WindowedExamples(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_subset(self):
        ex = make_windowed_examples(_ramp_series(), window=3)
        sub = ex.subset([0, 2])
        assert sub.n_examples == 2
        np.testing.assert_allclose(sub.inputs[1], ex.inputs[2])

    def test_properties(self):
        ex = make_windowed_examples(_ramp_series(n_modes=3), window=5)
        assert ex.window == 5
        assert ex.n_features == 3


class TestTrainValidationSplit:
    def test_sizes(self):
        ex = make_windowed_examples(_ramp_series(n_time=50), window=4)
        tr, va = train_validation_split(ex, train_fraction=0.8, rng=0)
        assert tr.n_examples + va.n_examples == ex.n_examples
        assert abs(tr.n_examples - round(0.8 * ex.n_examples)) <= 1

    def test_disjoint_and_complete(self):
        ex = make_windowed_examples(_ramp_series(n_time=40), window=4)
        tr, va = train_validation_split(ex, rng=0)
        starts = np.concatenate([tr.inputs[:, 0, 0], va.inputs[:, 0, 0]])
        np.testing.assert_allclose(np.sort(starts),
                                   np.sort(ex.inputs[:, 0, 0]))

    def test_reproducible(self):
        ex = make_windowed_examples(_ramp_series(n_time=40), window=4)
        tr1, _ = train_validation_split(ex, rng=5)
        tr2, _ = train_validation_split(ex, rng=5)
        np.testing.assert_allclose(tr1.inputs, tr2.inputs)

    def test_validation_never_empty(self):
        ex = make_windowed_examples(_ramp_series(n_time=9), window=4)
        tr, va = train_validation_split(ex, train_fraction=0.99, rng=0)
        assert va.n_examples >= 1

    def test_bad_fraction(self):
        ex = make_windowed_examples(_ramp_series(), window=3)
        with pytest.raises(ValueError):
            train_validation_split(ex, train_fraction=1.0)

    def test_single_example_rejected(self):
        """Regression: n_examples == 1 used to return an *empty* train
        set silently; it must raise a clear error instead."""
        ex = make_windowed_examples(_ramp_series(n_time=8), window=4)
        assert ex.n_examples == 1
        with pytest.raises(ValueError, match="at least 2 examples"):
            train_validation_split(ex, rng=0)

    def test_two_examples_split_one_one(self):
        ex = make_windowed_examples(_ramp_series(n_time=9), window=4)
        assert ex.n_examples == 2
        tr, va = train_validation_split(ex, rng=0)
        assert tr.n_examples == 1 and va.n_examples == 1


class TestWindowingProperties:
    @settings(max_examples=25, deadline=None)
    @given(n_time=st.integers(16, 60), window=st.integers(1, 8))
    def test_reconstruction_property(self, n_time, window):
        """Every input/output window is an exact slice of the series,
        one per start step."""
        if n_time < 2 * window:
            return
        series = _ramp_series(n_modes=1, n_time=n_time)
        ex = make_windowed_examples(series, window=window)
        assert ex.n_examples == n_time - 2 * window + 1
        for k in range(ex.n_examples):
            s = int(ex.inputs[k, 0, 0])
            assert s == k
            np.testing.assert_allclose(ex.inputs[k, :, 0],
                                       np.arange(s, s + window))
            np.testing.assert_allclose(ex.outputs[k, :, 0],
                                       np.arange(s + window, s + 2 * window))
