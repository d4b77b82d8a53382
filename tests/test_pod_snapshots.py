import numpy as np
import pytest

from repro.pod.snapshots import SnapshotStats, center_snapshots


class TestCenterSnapshots:
    def test_mean_removed(self, rng):
        snaps = rng.standard_normal((20, 7)) + 5.0
        centered, stats = center_snapshots(snaps)
        np.testing.assert_allclose(centered.mean(axis=1), 0.0, atol=1e-12)

    def test_mean_stored(self, rng):
        snaps = rng.standard_normal((20, 7))
        _, stats = center_snapshots(snaps)
        np.testing.assert_allclose(stats.mean, snaps.mean(axis=1))

    def test_roundtrip(self, rng):
        snaps = rng.standard_normal((10, 5))
        centered, stats = center_snapshots(snaps)
        np.testing.assert_array_equal(centered,
                                      snaps - stats.mean[:, None])
        np.testing.assert_array_equal(stats.center(snaps), centered)

    def test_original_untouched(self, rng):
        snaps = rng.standard_normal((10, 5))
        copy = snaps.copy()
        center_snapshots(snaps)
        np.testing.assert_array_equal(snaps, copy)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            center_snapshots(np.ones(5))

    def test_rejects_nan(self):
        snaps = np.ones((4, 3))
        snaps[0, 0] = np.nan
        with pytest.raises(ValueError):
            center_snapshots(snaps)


class TestSnapshotStats:
    def test_center_new_data(self, rng):
        snaps = rng.standard_normal((10, 5))
        _, stats = center_snapshots(snaps)
        other = rng.standard_normal((10, 3))
        np.testing.assert_allclose(stats.center(other),
                                   other - snaps.mean(axis=1)[:, None])

    def test_center_dim_mismatch(self, rng):
        _, stats = center_snapshots(rng.standard_normal((10, 5)))
        with pytest.raises(ValueError, match="dimension"):
            stats.center(np.ones((9, 2)))
