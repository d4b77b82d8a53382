import numpy as np
import pytest

from repro.nn.layers import (
    AddLayer,
    DenseLayer,
    IdentityLayer,
    LSTMLayer,
)
from repro.nn.layers.elementwise import ActivationLayer


class TestDenseLayer:
    def test_output_shape(self, rng):
        layer = DenseLayer(7)
        layer.build([3], rng=0)
        y = layer.forward([rng.standard_normal((2, 5, 3))])
        assert y.shape == (2, 5, 7)

    def test_timestep_independent(self, rng):
        """Dense is applied per timestep: permuting time permutes output."""
        layer = DenseLayer(4)
        layer.build([3], rng=0)
        x = rng.standard_normal((1, 6, 3))
        y = layer.forward([x])
        perm = rng.permutation(6)
        y_perm = layer.forward([x[:, perm]])
        np.testing.assert_allclose(y_perm, y[:, perm])

    def test_linear_by_default(self, rng):
        layer = DenseLayer(4)
        layer.build([3], rng=0)
        x = rng.standard_normal((2, 3, 3))
        y1 = layer.forward([x])
        y2 = layer.forward([2.0 * x])
        b = layer.params["b"]
        np.testing.assert_allclose(y2 - b, 2.0 * (y1 - b), atol=1e-12)

    def test_param_count(self):
        layer = DenseLayer(7)
        layer.build([3], rng=0)
        assert layer.n_parameters == 3 * 7 + 7

    def test_rejects_multiple_inputs(self):
        with pytest.raises(ValueError):
            DenseLayer(2).build([3, 3], rng=0)

    def test_backward_before_forward(self):
        layer = DenseLayer(2)
        layer.build([2], rng=0)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 2)))


class TestLSTMLayer:
    def test_output_shape(self, rng):
        layer = LSTMLayer(6)
        layer.build([4], rng=0)
        y = layer.forward([rng.standard_normal((3, 5, 4))])
        assert y.shape == (3, 5, 6)

    def test_output_bounded(self, rng):
        """h = o * tanh(c) lies strictly inside (-1, 1)."""
        layer = LSTMLayer(4)
        layer.build([2], rng=0)
        y = layer.forward([10.0 * rng.standard_normal((2, 20, 2))])
        assert np.abs(y).max() < 1.0

    def test_causality(self, rng):
        """Output at time t must not depend on inputs after t."""
        layer = LSTMLayer(5)
        layer.build([3], rng=0)
        x = rng.standard_normal((1, 8, 3))
        y = layer.forward([x])
        x2 = x.copy()
        x2[0, 5:] += 100.0  # perturb the future
        y2 = layer.forward([x2])
        np.testing.assert_allclose(y2[0, :5], y[0, :5], atol=1e-12)
        assert not np.allclose(y2[0, 5:], y[0, 5:])

    def test_state_propagates_forward(self, rng):
        """Early inputs influence later outputs (recurrence)."""
        layer = LSTMLayer(5)
        layer.build([3], rng=0)
        x = rng.standard_normal((1, 8, 3))
        y = layer.forward([x])
        x2 = x.copy()
        x2[0, 0] += 1.0
        y2 = layer.forward([x2])
        assert not np.allclose(y2[0, -1], y[0, -1])

    def test_keras_param_count(self):
        # 4 * ((input + units) * units + units)
        layer = LSTMLayer(80)
        layer.build([5], rng=0)
        assert layer.n_parameters == 4 * ((5 + 80) * 80 + 80)

    def test_forget_bias_init(self):
        layer = LSTMLayer(4)
        layer.build([2], rng=0)
        b = layer.params["b"]
        np.testing.assert_allclose(b[4:8], 1.0)   # forget gate
        np.testing.assert_allclose(b[:4], 0.0)    # input gate

    def test_batch_independence(self, rng):
        layer = LSTMLayer(4)
        layer.build([2], rng=0)
        x = rng.standard_normal((3, 6, 2))
        y_all = layer.forward([x])
        y_one = layer.forward([x[1:2]])
        np.testing.assert_allclose(y_all[1:2], y_one, atol=1e-12)


class TestAddLayer:
    def test_sum_with_relu(self, rng):
        layer = AddLayer("relu")
        layer.build([3, 3], rng=0)
        a = rng.standard_normal((2, 4, 3))
        b = rng.standard_normal((2, 4, 3))
        np.testing.assert_allclose(layer.forward([a, b]),
                                   np.maximum(a + b, 0.0))

    def test_identity_activation(self, rng):
        layer = AddLayer(None)
        layer.build([2, 2, 2], rng=0)
        parts = [rng.standard_normal((1, 3, 2)) for _ in range(3)]
        np.testing.assert_allclose(layer.forward(parts), sum(parts))

    def test_dim_mismatch_at_build(self):
        with pytest.raises(ValueError, match="share"):
            AddLayer().build([2, 3], rng=0)

    def test_input_count_mismatch_at_forward(self, rng):
        layer = AddLayer()
        layer.build([2, 2], rng=0)
        with pytest.raises(ValueError, match="built for 2"):
            layer.forward([rng.standard_normal((1, 2, 2))])

    def test_shape_mismatch_at_forward(self, rng):
        layer = AddLayer()
        layer.build([2, 2], rng=0)
        with pytest.raises(ValueError, match="match shapes"):
            layer.forward([rng.standard_normal((1, 2, 2)),
                           rng.standard_normal((1, 3, 2))])

    def test_backward_fanout(self, rng):
        layer = AddLayer(None)
        layer.build([2, 2], rng=0)
        a, b = rng.standard_normal((2, 1, 3, 2))
        layer.forward([a, b], training=True)
        grads = layer.backward(np.ones((1, 3, 2)))
        assert len(grads) == 2
        np.testing.assert_allclose(grads[0], grads[1])
        # Gradients must not alias each other.
        grads[0][...] = 7.0
        assert not np.allclose(grads[1], 7.0)

    def test_no_parameters(self):
        layer = AddLayer()
        layer.build([2, 2], rng=0)
        assert layer.n_parameters == 0


class TestIdentityAndActivationLayers:
    def test_identity_passthrough(self, rng):
        layer = IdentityLayer()
        layer.build([3], rng=0)
        x = rng.standard_normal((2, 4, 3))
        assert layer.forward([x]) is x
        g = rng.standard_normal((2, 4, 3))
        assert layer.backward(g)[0] is g

    def test_activation_layer(self, rng):
        layer = ActivationLayer("tanh")
        layer.build([2], rng=0)
        x = rng.standard_normal((1, 3, 2))
        np.testing.assert_allclose(layer.forward([x]), np.tanh(x))

    def test_output_dim_requires_build(self):
        with pytest.raises(RuntimeError):
            IdentityLayer().output_dim
