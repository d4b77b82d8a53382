import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.forecast.scaling import MinMaxScaler

coeff_matrices = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(3, 20)),
    elements=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)


class TestMinMaxScaler:
    def test_training_data_within_limit(self, rng):
        coeff = rng.standard_normal((3, 40)) * 100.0
        scaler = MinMaxScaler(limit=0.85).fit(coeff)
        scaled = scaler.transform(coeff)
        assert np.abs(scaled).max() <= 0.85 + 1e-12

    def test_extremes_hit_limit(self, rng):
        coeff = rng.standard_normal((2, 40))
        scaler = MinMaxScaler(limit=0.85).fit(coeff)
        scaled = scaler.transform(coeff)
        for m in range(2):
            assert scaled[m].max() == pytest.approx(0.85)
            assert scaled[m].min() == pytest.approx(-0.85)

    def test_roundtrip(self, rng):
        coeff = rng.standard_normal((4, 25)) * 7.0 + 3.0
        scaler = MinMaxScaler().fit(coeff)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(coeff)), coeff,
            atol=1e-10)

    def test_out_of_range_values_exceed_limit(self, rng):
        """Test-period excursions map beyond the limit (where the LSTM
        head saturates) — by design, not clipped by the scaler."""
        coeff = rng.standard_normal((1, 20))
        scaler = MinMaxScaler(limit=0.5).fit(coeff)
        extreme = np.array([[coeff.max() * 3.0]])
        assert scaler.transform(extreme)[0, 0] > 0.5

    def test_constant_mode(self):
        coeff = np.vstack([np.full(10, 2.0), np.arange(10.0)])
        scaler = MinMaxScaler().fit(coeff)
        np.testing.assert_allclose(scaler.transform(coeff)[0], 0.0)

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            MinMaxScaler(limit=0.0)
        with pytest.raises(ValueError):
            MinMaxScaler(limit=1.5)

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(coeff=coeff_matrices)
    def test_roundtrip_property(self, coeff):
        scaler = MinMaxScaler().fit(coeff)
        back = scaler.inverse_transform(scaler.transform(coeff))
        scale = max(1.0, np.abs(coeff).max())
        np.testing.assert_allclose(back, coeff, atol=1e-8 * scale)
