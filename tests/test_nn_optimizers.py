import numpy as np
import pytest

from repro.nn.optimizers import Adam, clip_gradients


def quadratic_descent(optimizer, start, steps=200):
    """Minimize f(x) = ||x||^2 / 2 (gradient = x)."""
    x = np.array(start, dtype=np.float64)
    for _ in range(steps):
        optimizer.step([(x, x.copy())])
    return x


class TestAdam:
    def test_descends_quadratic(self):
        x = quadratic_descent(Adam(learning_rate=0.1), [5.0, -3.0],
                              steps=500)
        assert np.abs(x).max() < 1e-3

    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step is ~lr regardless of
        gradient magnitude."""
        for g in (0.001, 1.0, 1000.0):
            x = np.array([0.0])
            Adam(learning_rate=0.1).step([(x, np.array([g]))])
            assert x[0] == pytest.approx(-0.1, rel=1e-4)

    def test_state_is_per_parameter(self):
        opt = Adam(learning_rate=0.1)
        a, b = np.array([1.0]), np.array([1.0])
        opt.step([(a, np.array([1.0]))])
        opt.step([(a, np.array([1.0])), (b, np.array([1.0]))])
        # b took one step, a took two: they must differ.
        assert a[0] != b[0]

    def test_in_place_update(self):
        x = np.array([1.0])
        ref = x
        Adam(learning_rate=0.5).step([(x, np.array([1.0]))])
        assert ref is x
        assert x[0] == pytest.approx(0.5)

    def test_invalid_lr(self):
        for lr in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError):
                Adam(learning_rate=lr)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(beta1=1.0)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            Adam(epsilon=0.0)


class TestClipGradients:
    def test_noop_when_below(self):
        g = [np.array([1.0, 0.0])]
        norm = clip_gradients(g, max_norm=5.0)
        assert norm == pytest.approx(1.0)
        np.testing.assert_allclose(g[0], [1.0, 0.0])

    def test_scales_to_max_norm(self):
        g = [np.array([3.0, 4.0])]
        clip_gradients(g, max_norm=1.0)
        assert np.linalg.norm(g[0]) == pytest.approx(1.0)

    def test_global_norm_across_arrays(self):
        g = [np.array([3.0]), np.array([4.0])]
        norm = clip_gradients(g, max_norm=2.5)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float(np.sum(x * x)) for x in g))
        assert total == pytest.approx(2.5)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_gradients([np.ones(2)], 0.0)
