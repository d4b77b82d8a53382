import numpy as np
import pytest

from repro.pod import fit_pod, pod_svd


@pytest.fixture()
def snapshots(rng):
    """Low-rank + noise snapshot matrix, 60 dof x 25 times."""
    t = np.linspace(0, 4 * np.pi, 25)
    u1 = rng.standard_normal(60)
    u2 = rng.standard_normal(60)
    field = (np.outer(u1, 3.0 * np.sin(t)) + np.outer(u2, np.cos(2 * t))
             + 0.01 * rng.standard_normal((60, 25)))
    return field + 2.0


class TestOrthonormality:
    def test_method_of_snapshots(self, snapshots):
        basis = fit_pod(snapshots, 5)
        gram = basis.modes.T @ basis.modes
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_svd(self, snapshots):
        basis = pod_svd(snapshots, 5)
        gram = basis.modes.T @ basis.modes
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-10)


class TestEquivalence:
    def test_methods_agree_up_to_sign(self, snapshots):
        a = fit_pod(snapshots, 4)
        b = pod_svd(snapshots, 4)
        np.testing.assert_allclose(a.energies[:4], b.energies[:4],
                                   rtol=1e-8)
        for k in range(4):
            dot = abs(a.modes[:, k] @ b.modes[:, k])
            assert dot == pytest.approx(1.0, abs=1e-6)

    def test_energies_descending(self, snapshots):
        basis = fit_pod(snapshots)
        assert np.all(np.diff(basis.energies) <= 1e-9)

    def test_energies_nonnegative(self, snapshots):
        assert np.all(fit_pod(snapshots).energies >= 0.0)


class TestTruncation:
    def test_requested_modes(self, snapshots):
        assert fit_pod(snapshots, 3).n_modes == 3

    def test_rank_clipping(self, rng):
        # Rank-2 data cannot produce more than 2 meaningful modes.
        u = rng.standard_normal((30, 2))
        c = rng.standard_normal((2, 10))
        basis = fit_pod(u @ c, 8)
        assert basis.n_modes <= 3

    def test_truncate_method(self, snapshots):
        basis = fit_pod(snapshots, 5)
        small = basis.truncate(2)
        assert small.n_modes == 2
        np.testing.assert_allclose(small.modes, basis.modes[:, :2])

    def test_truncate_too_large(self, snapshots):
        with pytest.raises(ValueError):
            fit_pod(snapshots, 3).truncate(4)

    def test_energy_fraction_monotone(self, snapshots):
        basis = fit_pod(snapshots, 5)
        fracs = [basis.energy_fraction(k) for k in range(1, 6)]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] <= 1.0 + 1e-12


class TestDispatchAndValidation:
    def test_nan_rejected(self):
        bad = np.ones((5, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            fit_pod(bad)

    def test_mean_is_captured(self, snapshots):
        basis = fit_pod(snapshots, 2)
        np.testing.assert_allclose(basis.stats.mean,
                                   snapshots.mean(axis=1))

    def test_dominant_mode_energy(self, snapshots):
        # The sin component has ~9x the variance of the cos one.
        basis = fit_pod(snapshots, 2)
        assert basis.energies[0] > 3.0 * basis.energies[1]
