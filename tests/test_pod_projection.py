import numpy as np
import pytest

from repro.pod import (
    cumulative_energy,
    fit_pod,
    modes_for_energy,
    project_coefficients,
    projection_error,
    reconstruct,
)
from repro.utils import validation


@pytest.fixture()
def snapshots(rng):
    t = np.linspace(0, 4 * np.pi, 30)
    u1, u2, u3 = (rng.standard_normal(50) for _ in range(3))
    return (np.outer(u1, 4 * np.sin(t)) + np.outer(u2, np.cos(2 * t))
            + np.outer(u3, 0.2 * np.sin(5 * t)) + 1.5)


class TestProjectReconstruct:
    def test_coefficient_shape(self, snapshots):
        basis = fit_pod(snapshots, 3)
        coeff = project_coefficients(basis, snapshots)
        assert coeff.shape == (3, 30)

    def test_full_rank_reconstruction_exact(self, snapshots):
        basis = fit_pod(snapshots)
        coeff = project_coefficients(basis, snapshots)
        np.testing.assert_allclose(reconstruct(basis, coeff), snapshots,
                                   atol=1e-8)

    def test_coefficient_rows_mismatch(self, snapshots):
        basis = fit_pod(snapshots, 2)
        with pytest.raises(ValueError):
            reconstruct(basis, np.zeros((3, 5)))

    def test_snapshots_validated_once(self, snapshots, monkeypatch):
        """One finiteness pass per projection, same coefficients."""
        basis = fit_pod(snapshots, 2)
        expected = basis.modes.T @ (snapshots - basis.stats.mean[:, None])
        checked = []
        check_array = validation.check_array
        monkeypatch.setattr(
            validation, "check_array",
            lambda x, **kw: checked.append(kw["name"]) or check_array(x, **kw))
        coeff = project_coefficients(basis, snapshots)
        assert checked == ["snapshots"]
        assert coeff.tobytes() == expected.tobytes()
        checked.clear()
        projection_error(basis, snapshots)
        assert checked == ["snapshots"]

    def test_non_finite_snapshots_refused(self, snapshots):
        basis = fit_pod(snapshots, 2)
        snapshots[3, 4] = np.nan
        with pytest.raises(ValueError,
                           match="^snapshots contains non-finite values$"):
            project_coefficients(basis, snapshots)

    def test_projection_is_idempotent(self, snapshots):
        basis = fit_pod(snapshots, 2)
        coeff = project_coefficients(basis, snapshots)
        recon = reconstruct(basis, coeff)
        coeff2 = project_coefficients(basis, recon)
        np.testing.assert_allclose(coeff, coeff2, atol=1e-8)


class TestProjectionError:
    def test_eq8_identity(self, snapshots):
        """Paper Eq. 8 (with corrected eigenvalue power): the projection
        error on the training snapshots equals the tail energy ratio."""
        full = fit_pod(snapshots)
        for n_r in (1, 2, 3):
            basis = full.truncate(n_r)
            err = projection_error(basis, snapshots)
            tail = full.energies[n_r:].sum() / full.energies.sum()
            assert err == pytest.approx(tail, rel=1e-6, abs=1e-10)

    def test_error_decreases_with_modes(self, snapshots):
        full = fit_pod(snapshots)
        errors = [projection_error(full.truncate(k), snapshots)
                  for k in (1, 2, 3)]
        assert errors[0] >= errors[1] >= errors[2]

    def test_full_rank_error_zero(self, snapshots):
        basis = fit_pod(snapshots)
        assert projection_error(basis, snapshots) == pytest.approx(0.0,
                                                                   abs=1e-10)

    def test_zero_snapshots(self):
        basis = fit_pod(np.random.default_rng(0).standard_normal((10, 5)), 2)
        constant = np.tile(basis.stats.mean[:, None], (1, 4))
        assert projection_error(basis, constant) == 0.0


class TestEnergyHelpers:
    def test_cumulative_energy(self):
        np.testing.assert_allclose(cumulative_energy([3.0, 1.0]),
                                   [0.75, 1.0])

    def test_cumulative_energy_zero_total(self):
        np.testing.assert_allclose(cumulative_energy([0.0, 0.0]), [1.0, 1.0])

    def test_cumulative_rejects_negative(self):
        with pytest.raises(ValueError):
            cumulative_energy([-1.0, 2.0])

    def test_modes_for_energy(self):
        energies = [50.0, 30.0, 15.0, 5.0]
        assert modes_for_energy(energies, 0.5) == 1
        assert modes_for_energy(energies, 0.8) == 2
        assert modes_for_energy(energies, 0.95) == 3
        assert modes_for_energy(energies, 1.0) == 4

    def test_modes_for_energy_invalid(self):
        with pytest.raises(ValueError):
            modes_for_energy([1.0], 0.0)


class TestPaperCalibration:
    def test_five_modes_capture_about_92_percent(self, train_snapshots):
        """The synthetic archive is calibrated to the paper's figure."""
        basis = fit_pod(train_snapshots, 10)
        frac = basis.energy_fraction(5)
        assert 0.85 < frac < 0.97
