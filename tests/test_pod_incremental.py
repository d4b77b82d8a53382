import numpy as np
import pytest

from repro.pod import fit_pod, pod_svd
from repro.pod.incremental import IncrementalPOD


@pytest.fixture()
def snapshots(rng):
    t = np.linspace(0, 6 * np.pi, 90)
    u1, u2, u3 = (rng.standard_normal(70) for _ in range(3))
    return (np.outer(u1, 5 * np.sin(t)) + np.outer(u2, 2 * np.cos(2 * t))
            + np.outer(u3, 0.5 * np.sin(5 * t))
            + 0.02 * rng.standard_normal((70, 90)) + 3.0)


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle (radians) between column spaces."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


class TestIncrementalPOD:
    def test_single_block_matches_batch(self, snapshots):
        inc = IncrementalPOD(n_modes=4).partial_fit(snapshots)
        batch = pod_svd(snapshots, 4)
        np.testing.assert_allclose(inc.mean_, batch.stats.mean, atol=1e-10)
        assert subspace_angle(inc.basis().modes, batch.modes) < 1e-6

    def test_blockwise_converges_to_batch(self, snapshots):
        inc = IncrementalPOD(n_modes=8)
        for start in range(0, 90, 15):
            inc.partial_fit(snapshots[:, start:start + 15])
        batch = pod_svd(snapshots, 3)
        assert inc.n_seen == 90
        np.testing.assert_allclose(inc.mean_, batch.stats.mean, atol=1e-8)
        # The retained subspace contains the batch-leading 3 modes.
        angle = subspace_angle(batch.modes, inc.basis().modes[:, :8])
        assert angle < 0.05

    def test_energies_close_to_batch(self, snapshots):
        inc = IncrementalPOD(n_modes=8)
        for start in range(0, 90, 30):
            inc.partial_fit(snapshots[:, start:start + 30])
        batch = pod_svd(snapshots, 8)
        np.testing.assert_allclose(inc.energies[:3], batch.energies[:3],
                                   rtol=0.02)

    def test_block_order_insensitive_subspace(self, snapshots):
        a = IncrementalPOD(n_modes=8)
        b = IncrementalPOD(n_modes=8)
        blocks = [snapshots[:, i:i + 30] for i in range(0, 90, 30)]
        for blk in blocks:
            a.partial_fit(blk)
        for blk in reversed(blocks):
            b.partial_fit(blk)
        assert subspace_angle(a.basis().modes[:, :3],
                              b.basis().modes[:, :3]) < 0.1

    def test_basis_orthonormal(self, snapshots):
        inc = IncrementalPOD(n_modes=5)
        for start in range(0, 90, 18):
            inc.partial_fit(snapshots[:, start:start + 18])
        modes = inc.basis().modes
        np.testing.assert_allclose(modes.T @ modes,
                                   np.eye(modes.shape[1]), atol=1e-10)

    def test_truncated_basis_request(self, snapshots):
        inc = IncrementalPOD(n_modes=6).partial_fit(snapshots)
        assert inc.basis(2).n_modes == 2
        with pytest.raises(ValueError):
            inc.basis(10)

    def test_dimension_mismatch(self, snapshots, rng):
        inc = IncrementalPOD(n_modes=3).partial_fit(snapshots)
        with pytest.raises(ValueError):
            inc.partial_fit(rng.standard_normal((30, 5)))

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            IncrementalPOD(n_modes=2).basis()

    def test_projection_quality_matches_batch(self, snapshots):
        """Reconstruction through the streamed basis is as good as batch."""
        from repro.pod import projection_error
        inc = IncrementalPOD(n_modes=8)
        for start in range(0, 90, 10):
            inc.partial_fit(snapshots[:, start:start + 10])
        stream_err = projection_error(inc.basis(3), snapshots)
        batch_err = projection_error(fit_pod(snapshots, 3), snapshots)
        assert stream_err < batch_err + 0.01


class TestStateRoundTrip:
    """The exact-capture contract of the continuous pipeline
    (docs/PIPELINE.md): state()/from_state round-trips bitwise and a
    restored instance continues the identical update sequence."""

    def test_round_trip_bitwise(self, snapshots):
        inc = IncrementalPOD(n_modes=5)
        for start in range(0, 90, 18):
            inc.partial_fit(snapshots[:, start:start + 18])
        config, arrays = inc.state()
        restored = IncrementalPOD.from_state(config, arrays)
        np.testing.assert_array_equal(restored.mean_, inc.mean_)
        np.testing.assert_array_equal(restored._modes, inc._modes)
        np.testing.assert_array_equal(restored._singular, inc._singular)
        assert restored.n_seen == inc.n_seen
        assert restored.basis_version == inc.basis_version
        assert restored._weight == inc._weight
        assert restored.forgetting == inc.forgetting

    def test_restored_continues_identically(self, snapshots):
        """restore(state()).partial_fit(block) == self.partial_fit(block),
        bit for bit — the resume guarantee of repro.pipeline."""
        a = IncrementalPOD(n_modes=5)
        for start in range(0, 60, 20):
            a.partial_fit(snapshots[:, start:start + 20])
        b = IncrementalPOD.from_state(*a.state())
        tail = snapshots[:, 60:90]
        a.partial_fit(tail)
        b.partial_fit(tail)
        np.testing.assert_array_equal(a.mean_, b.mean_)
        np.testing.assert_array_equal(a._modes, b._modes)
        np.testing.assert_array_equal(a._singular, b._singular)
        assert a.basis_version == b.basis_version

    def test_empty_state_round_trips(self):
        inc = IncrementalPOD(n_modes=3, forgetting=0.9)
        restored = IncrementalPOD.from_state(*inc.state())
        assert restored.n_seen == 0
        assert restored.basis_version == 0
        assert restored.forgetting == 0.9

    def test_basis_version_counts_updates(self, snapshots):
        inc = IncrementalPOD(n_modes=4)
        assert inc.basis_version == 0
        for i, start in enumerate(range(0, 90, 30)):
            inc.partial_fit(snapshots[:, start:start + 30])
            assert inc.basis_version == i + 1


class TestForgetting:
    def test_forgetting_validated(self):
        with pytest.raises(ValueError):
            IncrementalPOD(n_modes=3, forgetting=0.0)
        with pytest.raises(ValueError):
            IncrementalPOD(n_modes=3, forgetting=1.5)

    def test_forgetting_one_is_exact_historical_behaviour(self, snapshots):
        """forgetting=1.0 must be bitwise identical to the default."""
        a = IncrementalPOD(n_modes=6)
        b = IncrementalPOD(n_modes=6, forgetting=1.0)
        for start in range(0, 90, 30):
            a.partial_fit(snapshots[:, start:start + 30])
            b.partial_fit(snapshots[:, start:start + 30])
        np.testing.assert_array_equal(a.mean_, b.mean_)
        np.testing.assert_array_equal(a._modes, b._modes)
        np.testing.assert_array_equal(a._singular, b._singular)

    def test_forgetting_tracks_regime_change(self, rng):
        """After a subspace switch, a forgetful basis captures the new
        regime better than the equal-weight one."""
        t = np.linspace(0, 6 * np.pi, 60)
        u_old = rng.standard_normal(70)
        u_new = rng.standard_normal(70)
        old = np.outer(u_old, 5 * np.sin(t)) \
            + 0.01 * rng.standard_normal((70, 60))
        new = np.outer(u_new, 5 * np.sin(t)) \
            + 0.01 * rng.standard_normal((70, 60))
        equal = IncrementalPOD(n_modes=2)
        forget = IncrementalPOD(n_modes=2, forgetting=0.3)
        for block in (old[:, :30], old[:, 30:], new[:, :30], new[:, 30:]):
            equal.partial_fit(block)
            forget.partial_fit(block)
        target = (u_new / np.linalg.norm(u_new))[:, None]
        angle_equal = subspace_angle(target, equal.basis(1).modes)
        angle_forget = subspace_angle(target, forget.basis(1).modes)
        assert angle_forget < angle_equal

    def test_forgetting_reduces_effective_weight(self, snapshots):
        inc = IncrementalPOD(n_modes=4, forgetting=0.5)
        for start in range(0, 90, 30):
            inc.partial_fit(snapshots[:, start:start + 30])
        assert inc.n_seen == 90
        # weight = ((30*0.5)+30)*0.5 + 30 = 52.5 < 90
        assert inc._weight == pytest.approx(52.5)
