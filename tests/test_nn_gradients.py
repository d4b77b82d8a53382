"""Numerical gradient verification for every layer and for full DAGs.

These are the load-bearing tests of the NN substrate: exact BPTT is what
makes the from-scratch framework equivalent to the paper's TF/Keras runs.
"""

import contextlib

import numpy as np
import pytest

from repro.nas.space.ops import default_operations, hybrid_operations
from repro.nn import AddLayer, DenseLayer, LSTMLayer, Network
from repro.nn.layers import GRULayer, IdentityLayer, SimpleRNNLayer
from repro.nn.losses import MeanSquaredError
from tests.reference_cells import reference_path

LOSS = MeanSquaredError()


def numeric_param_grads(layer, inputs, grad_out, eps=1e-6):
    """Central-difference gradient of sum(forward * grad_out) wrt params."""
    numeric = {}
    for name, param in layer.params.items():
        g = np.zeros_like(param)
        flat = param.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(np.sum(layer.forward(inputs) * grad_out))
            flat[i] = orig - eps
            down = float(np.sum(layer.forward(inputs) * grad_out))
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        numeric[name] = g
    return numeric


def check_layer_gradients(layer, inputs, rng, atol=1e-6):
    out = layer.forward(inputs)
    grad_out = rng.standard_normal(out.shape)
    layer.zero_grads()
    layer.forward(inputs, training=True)
    input_grads = layer.backward(grad_out)

    numeric = numeric_param_grads(layer, inputs, grad_out)
    for name in layer.params:
        np.testing.assert_allclose(layer.grads[name], numeric[name],
                                   atol=atol, rtol=1e-4,
                                   err_msg=f"param {name}")

    eps = 1e-6
    for k, x in enumerate(inputs):
        g = np.zeros_like(x)
        flat, gflat = x.ravel(), g.ravel()
        for i in range(0, flat.size, max(1, flat.size // 40)):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(np.sum(layer.forward(inputs) * grad_out))
            flat[i] = orig - eps
            down = float(np.sum(layer.forward(inputs) * grad_out))
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
            assert input_grads[k].ravel()[i] == pytest.approx(
                gflat[i], abs=atol, rel=1e-4), f"input {k} element {i}"


class TestLayerGradients:
    def test_dense(self, rng):
        layer = DenseLayer(3, activation="tanh")
        layer.build([4], rng=0)
        check_layer_gradients(layer, [rng.standard_normal((2, 3, 4))], rng)

    def test_dense_linear(self, rng):
        layer = DenseLayer(2)
        layer.build([3], rng=1)
        check_layer_gradients(layer, [rng.standard_normal((3, 2, 3))], rng)

    def test_lstm(self, rng):
        layer = LSTMLayer(3)
        layer.build([2], rng=0)
        check_layer_gradients(layer, [rng.standard_normal((2, 4, 2))], rng,
                              atol=2e-6)

    def test_lstm_longer_sequence(self, rng):
        layer = LSTMLayer(2)
        layer.build([2], rng=3)
        check_layer_gradients(layer, [rng.standard_normal((1, 8, 2))], rng,
                              atol=2e-6)

    def test_add_relu(self, rng):
        layer = AddLayer("relu")
        layer.build([3, 3], rng=0)
        inputs = [rng.standard_normal((2, 3, 3)) + 0.1,
                  rng.standard_normal((2, 3, 3))]
        check_layer_gradients(layer, inputs, rng)


class TestNetworkGradients:
    def _check_network(self, net, x, y, rng, n_probes=60):
        pred = net.forward(x, training=True)
        net.zero_grads()
        input_grad = net.backward(LOSS.gradient(pred, y))

        def loss():
            return LOSS.value(net.forward(x, training=True), y)

        eps = 1e-6
        params = [(p, g) for p, g in net.parameters_and_gradients()]
        probe_rng = np.random.default_rng(0)
        for p, g in params:
            flat, gflat = p.ravel(), g.ravel()
            for _ in range(max(2, n_probes // len(params))):
                i = int(probe_rng.integers(flat.size))
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                down = loss()
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                assert gflat[i] == pytest.approx(numeric, abs=5e-7,
                                                 rel=1e-4)
        # input gradient probes
        flat, gflat = x.ravel(), input_grad.ravel()
        for _ in range(10):
            i = int(probe_rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            assert gflat[i] == pytest.approx(numeric, abs=5e-7, rel=1e-4)

    def test_stacked_lstm(self, rng):
        net = Network(input_dim=3, rng=0)
        net.add_node("l1", LSTMLayer(4), ["input"])
        net.add_node("l2", LSTMLayer(2), ["l1"])
        x = rng.standard_normal((3, 5, 3))
        y = rng.standard_normal((3, 5, 2))
        self._check_network(net, x, y, rng)

    def test_skip_connection_dag(self, rng):
        """The paper's skip pattern: dense projection + add + ReLU."""
        net = Network(input_dim=3, rng=1)
        net.add_node("l1", LSTMLayer(4), ["input"])
        net.add_node("proj", DenseLayer(4), ["input"])
        net.add_node("merge", AddLayer("relu"), ["l1", "proj"])
        net.add_node("l2", LSTMLayer(2), ["merge"])
        x = rng.standard_normal((2, 4, 3))
        y = rng.standard_normal((2, 4, 2))
        self._check_network(net, x, y, rng)

    def test_multi_fanout(self, rng):
        """One node feeding several consumers accumulates gradients."""
        net = Network(input_dim=2, rng=2)
        net.add_node("l1", LSTMLayer(3), ["input"])
        net.add_node("p1", DenseLayer(3), ["l1"])
        net.add_node("p2", DenseLayer(3), ["l1"])
        net.add_node("merge", AddLayer("relu"), ["p1", "p2", "l1"])
        net.add_node("out", LSTMLayer(2), ["merge"])
        x = rng.standard_normal((2, 3, 2))
        y = rng.standard_normal((2, 3, 2))
        self._check_network(net, x, y, rng)

    def test_hybrid_cell_skip_dag(self, rng):
        """Skip connections through GRU/SimpleRNN nodes (hybrid catalog)."""
        net = Network(input_dim=3, rng=4)
        net.add_node("g1", GRULayer(4), ["input"])
        net.add_node("proj", DenseLayer(4), ["input"])
        net.add_node("merge", AddLayer("relu"), ["g1", "proj"])
        net.add_node("r1", SimpleRNNLayer(3), ["merge"])
        net.add_node("out", LSTMLayer(2), ["r1"])
        x = rng.standard_normal((2, 4, 3))
        y = rng.standard_normal((2, 4, 2))
        self._check_network(net, x, y, rng)


# Every distinct operation exposed by the search-space catalogs
# (default_operations + hybrid_operations) — any op a search can reach.
SPACE_OPS = sorted({(op.kind, op.units)
                    for op in default_operations() + hybrid_operations()})

_CELL_LAYERS = {"lstm": LSTMLayer, "gru": GRULayer, "rnn": SimpleRNNLayer}


def probe_gradient_check(layer, inputs, rng, *, n_probes=24, eps=1e-6,
                         rtol=1e-5, atol=1e-7):
    """Central-difference check on sampled parameter/input coordinates.

    Sampling (instead of the exhaustive sweep above) keeps the check
    affordable for the catalog's large cells (up to LSTM(96)) while still
    covering every parameter tensor of every op at rtol 1e-5.
    """
    out = layer.forward(inputs)
    grad_out = rng.standard_normal(out.shape)
    layer.zero_grads()
    layer.forward(inputs, training=True)
    input_grads = layer.backward(grad_out)

    def objective():
        return float(np.sum(layer.forward(inputs) * grad_out))

    probe_rng = np.random.default_rng(0)

    def check_coordinates(array, analytic, label):
        flat, gflat = array.ravel(), analytic.ravel()
        picks = probe_rng.choice(flat.size, size=min(n_probes, flat.size),
                                 replace=False)
        for i in picks:
            orig = flat[i]
            flat[i] = orig + eps
            up = objective()
            flat[i] = orig - eps
            down = objective()
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            assert gflat[i] == pytest.approx(numeric, rel=rtol, abs=atol), \
                f"{label} coordinate {i}"

    for name, param in layer.params.items():
        check_coordinates(param, layer.grads[name], f"param {name}")
    for k, x in enumerate(inputs):
        check_coordinates(x, input_grads[k], f"input {k}")


class TestSearchSpaceOpGradients:
    """Finite-difference coverage of *every* op the search space exposes
    (ops.py catalogs): each recurrent cell at each catalog size, the
    identity op, and the elementwise add combiner."""

    @pytest.mark.parametrize(
        "kind,units", SPACE_OPS,
        ids=[f"{k}{u}" if u else k for k, u in SPACE_OPS])
    def test_catalog_op(self, kind, units, rng):
        if kind == "identity":
            layer = IdentityLayer()
            layer.build([3], rng=0)
            x = rng.standard_normal((2, 3, 3))
            out = layer.forward([x])
            np.testing.assert_array_equal(out, x)
            grad = rng.standard_normal(out.shape)
            (grad_in,) = layer.backward(grad)
            np.testing.assert_array_equal(grad_in, grad)
            return
        layer = _CELL_LAYERS[kind](units)
        layer.build([5], rng=0)
        probe_gradient_check(layer, [rng.standard_normal((2, 4, 5))], rng)


def _kernels(layer, fused):
    return contextlib.nullcontext() if fused else reference_path(layer)


class TestRecurrentGradientsBothKernels:
    """Finite differences against the fused kernels AND the reference
    cells (tests/reference_cells.py) for every cell, at rectangular
    (in_dim != units) sizes in both directions — the fused BPTT's
    stacked accumulation GEMMs are shape-sensitive, so a square-only
    check would miss transposition bugs."""

    RECT_CELLS = [
        (LSTMLayer, 2, 7),   # narrow input, wide state
        (LSTMLayer, 9, 3),   # wide input, narrow state
        (GRULayer, 2, 6),
        (GRULayer, 8, 3),
        (SimpleRNNLayer, 3, 5),
        (SimpleRNNLayer, 7, 2),
    ]

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "reference"])
    @pytest.mark.parametrize(
        "cls,in_dim,units", RECT_CELLS,
        ids=[f"{c.__name__}_{f}to{u}" for c, f, u in RECT_CELLS])
    def test_rectangular_cell(self, cls, in_dim, units, fused, rng):
        layer = cls(units)
        layer.build([in_dim], rng=0)
        with _kernels(layer, fused):
            check_layer_gradients(
                layer, [rng.standard_normal((2, 4, in_dim))], rng,
                atol=2e-6)

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "reference"])
    def test_singleton_batch_lstm(self, fused, rng):
        """B=1/T=1 corners exercise the pooled-scratch edge cases."""
        layer = LSTMLayer(4)
        layer.build([3], rng=1)
        with _kernels(layer, fused):
            check_layer_gradients(
                layer, [rng.standard_normal((1, 1, 3))], rng, atol=2e-6)


class TestSearchSpaceOpGradientsContinued:
    @pytest.mark.parametrize("activation", ["relu", "identity", "tanh"])
    def test_elementwise_combiner(self, activation, rng):
        """The add-merge node (skip-connection combiner) for every
        activation the DAG builder can attach to it."""
        layer = AddLayer(activation)
        layer.build([4, 4, 4], rng=0)
        inputs = [rng.standard_normal((2, 3, 4)) + 0.1 for _ in range(3)]
        probe_gradient_check(layer, inputs, rng)
