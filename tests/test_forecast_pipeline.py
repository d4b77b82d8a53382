import numpy as np
import pytest

from repro.forecast import PODCoefficientPipeline


class TestPipeline:
    @pytest.fixture(scope="class")
    def fitted(self, train_snapshots):
        return PODCoefficientPipeline(n_modes=4, window=6).fit(
            train_snapshots)

    def test_transform_shape(self, fitted, train_snapshots):
        scaled = fitted.transform(train_snapshots)
        assert scaled.shape == (4, train_snapshots.shape[1])

    def test_training_data_scaled_into_head_range(self, fitted,
                                                  train_snapshots):
        scaled = fitted.transform(train_snapshots)
        assert np.abs(scaled).max() <= 0.85 + 1e-9

    def test_inverse_roundtrip(self, fitted, train_snapshots):
        scaled = fitted.transform(train_snapshots)
        raw = fitted.coefficients(train_snapshots)
        np.testing.assert_allclose(fitted.inverse(scaled), raw, atol=1e-8)

    def test_reconstruct_approximates_snapshots(self, fitted,
                                                train_snapshots):
        scaled = fitted.transform(train_snapshots)
        recon = fitted.reconstruct(scaled)
        rel = (np.linalg.norm(recon - train_snapshots)
               / np.linalg.norm(train_snapshots))
        assert rel < 0.1

    def test_windows_geometry(self, fitted, train_snapshots):
        examples = fitted.windows_from_snapshots(train_snapshots)
        assert examples.window == 6
        assert examples.n_features == 4
        assert examples.n_examples == train_snapshots.shape[1] - 12 + 1

    def test_energy_fraction(self, fitted):
        assert 0.5 < fitted.energy_fraction <= 1.0

    def test_use_before_fit(self, train_snapshots):
        pipe = PODCoefficientPipeline()
        with pytest.raises(RuntimeError):
            pipe.transform(train_snapshots)

    def test_consistent_across_fits(self, train_snapshots):
        a = PODCoefficientPipeline(n_modes=3).fit(train_snapshots)
        b = PODCoefficientPipeline(n_modes=3).fit(train_snapshots)
        np.testing.assert_allclose(a.transform(train_snapshots),
                                   b.transform(train_snapshots))


class TestFittedState:
    """fitted_state()/from_fitted_state() — the bundle serialization
    contract: a restored pipeline is *exactly* the fitted one."""

    @pytest.fixture(scope="class")
    def fitted(self, train_snapshots):
        return PODCoefficientPipeline(n_modes=4, window=6).fit(
            train_snapshots)

    def test_round_trip_exact(self, fitted, train_snapshots):
        config, arrays = fitted.fitted_state()
        restored = PODCoefficientPipeline.from_fitted_state(config, arrays)
        assert restored.n_modes == fitted.n_modes
        assert restored.window == fitted.window
        np.testing.assert_array_equal(restored.basis.modes,
                                      fitted.basis.modes)
        np.testing.assert_array_equal(restored.basis.energies,
                                      fitted.basis.energies)
        np.testing.assert_array_equal(restored.transform(train_snapshots),
                                      fitted.transform(train_snapshots))
        windows_a = restored.windows_from_snapshots(train_snapshots)
        windows_b = fitted.windows_from_snapshots(train_snapshots)
        np.testing.assert_array_equal(windows_a.inputs, windows_b.inputs)

    def test_inverse_and_reconstruct_exact(self, fitted, train_snapshots):
        config, arrays = fitted.fitted_state()
        restored = PODCoefficientPipeline.from_fitted_state(config, arrays)
        scaled = fitted.transform(train_snapshots)
        np.testing.assert_array_equal(restored.inverse(scaled),
                                      fitted.inverse(scaled))
        np.testing.assert_array_equal(restored.reconstruct(scaled),
                                      fitted.reconstruct(scaled))

    def test_state_is_decoupled_copy(self, fitted, train_snapshots):
        config, arrays = fitted.fitted_state()
        restored = PODCoefficientPipeline.from_fitted_state(config, arrays)
        restored.basis.modes[:] = 0.0  # mutating the copy...
        assert fitted.basis.modes.any()  # ...leaves the original intact

    def test_unfit_pipeline_rejected(self):
        with pytest.raises(RuntimeError, match="before fit"):
            PODCoefficientPipeline().fitted_state()

    def test_unknown_scaler_class_rejected(self, fitted):
        config, arrays = fitted.fitted_state()
        config["scaler"] = {"class": "MysteryScaler"}
        with pytest.raises(ValueError, match="unknown scaler"):
            PODCoefficientPipeline.from_fitted_state(config, arrays)
