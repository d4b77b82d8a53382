"""Differential numerics harness: fused kernels vs the reference cells.

The fused recurrent kernels (repro.nn.fused; lstm/gru/rnn layers) are
only allowed to exist because of this suite. The oracle is
tests/reference_cells.py. The contract the kernels are held to, across
every cell, a grid of shapes (including B=1, T=1, F != H, odd/non-SIMD
sizes) and both detmath modes:

* **forward is bitwise identical** to the reference cell — compared on
  raw bit patterns, not with a tolerance;
* **backward gradients agree to <= 1e-12** max-abs-diff (the
  cache-blocked accumulation reassociates the timestep reduction;
  everything else is the reference arithmetic in the reference order);
* alternating the oracle and the kernel, or the batch-invariant mode,
  between calls never corrupts a layer's pooled scratch state, and
  repeated calls are self-identical;
* layer outputs are always fresh arrays — never views into pooled
  scratch a later forward would overwrite (the B=1 aliasing regression).

Shape notes: (1, 1, 3, 5) and (2, 50, 11, 13) pin the small/odd shapes
where differently *shaped* GEMMs over the same data genuinely round
differently (BLAS picks M/N-dependent kernels; the batch-invariant
gufunc's SIMD remainder reorders odd-K accumulation) — the fused path
must therefore issue reference-shaped GEMMs, and these shapes fail
within seconds if it stops doing so. (1, 4, 80, 3) is the serving
regression: a tiny output cell fed by a wide one, caught originally by
the engine's cross-mode bitwise test.
"""

import contextlib
import weakref
import zlib

import numpy as np
import pytest

from repro.nn.detmath import batch_invariant
from repro.nn.fused import ScratchPool
from repro.nn.layers import (ActivationLayer, AddLayer, DenseLayer,
                             GRULayer, LSTMLayer, SimpleRNNLayer)
from repro.nn.model import Network
from tests.reference_cells import reference_path

CELLS = [LSTMLayer, GRULayer, SimpleRNNLayer]
CELL_IDS = ["lstm", "gru", "rnn"]

# (batch, steps, in_dim, units)
SHAPES = [
    (64, 16, 8, 64),   # the benchmark/training shape
    (1, 1, 3, 5),      # singleton batch and time, odd dims
    (7, 3, 2, 16),     # row-panel remainder
    (33, 9, 8, 48),    # non-power-of-two batch
    (2, 50, 11, 13),   # long sequence, odd K everywhere
    (1, 4, 80, 3),     # wide-to-narrow (the serving regression)
    (1, 4, 3, 80),     # narrow-to-wide
    (3, 2, 1, 1),      # degenerate single-feature cell
]
SHAPE_IDS = ["b%dt%df%dh%d" % s for s in SHAPES]

MODES = [False, True]
MODE_IDS = ["plain", "invariant"]


def _mode(invariant):
    return batch_invariant() if invariant else contextlib.nullcontext()


def _build(cls, shape, seed_salt=0):
    batch, steps, in_dim, units = shape
    # A stable digest of the case, so a failing test id replays its
    # inputs (``hash`` of a string is salted per process).
    rng = np.random.default_rng(
        zlib.crc32(repr((cls.__name__, shape, seed_salt)).encode()))
    layer = cls(units)
    layer.build([in_dim], rng=rng)
    x = rng.standard_normal((batch, steps, in_dim))
    grad_out = rng.standard_normal((batch, steps, units))
    return layer, x, grad_out


def _kernels(layer, fused):
    return contextlib.nullcontext() if fused else reference_path(layer)


def _layers(net):
    return [net.layer(name) for name in net.node_names]


def _run(layer, x, grad_out, *, fused, invariant):
    """One forward+backward pass; returns (y, dx, {param: grad})."""
    with _mode(invariant), _kernels(layer, fused):
        y = layer.forward([x], training=True)
        layer.zero_grads()
        (dx,) = layer.backward(grad_out)
        grads = {k: v.copy() for k, v in layer.grads.items()}
    return y, dx, grads


class TestForwardBitwise:
    """Both workspaces — training (every step's history kept for
    backward) and inference (one reused step) — run the reference's
    arithmetic."""

    @pytest.mark.parametrize("training", [True, False],
                             ids=["training", "inference"])
    @pytest.mark.parametrize("invariant", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("cls", CELLS, ids=CELL_IDS)
    def test_fused_forward_is_bitwise_reference(self, cls, shape, invariant,
                                                training):
        layer, x, _ = _build(cls, shape)
        with _mode(invariant):
            with reference_path(layer):
                y_ref = layer.forward([x])
            y_fused = layer.forward([x], training=training)
        # Bit patterns, not tolerances: signed zeros, NaN payloads and
        # the last ulp all count.
        np.testing.assert_array_equal(y_ref.view(np.uint8),
                                      y_fused.view(np.uint8))


class TestInferenceContract:
    """Only a training forward caches what backward needs."""

    LAYERS = [lambda: LSTMLayer(5), lambda: GRULayer(5),
              lambda: SimpleRNNLayer(5), lambda: DenseLayer(5, "tanh"),
              lambda: AddLayer("relu"), lambda: ActivationLayer("tanh")]
    LAYER_IDS = ["lstm", "gru", "rnn", "dense", "add", "activation"]

    @pytest.mark.parametrize("make", LAYERS, ids=LAYER_IDS)
    def test_backward_after_inference_forward_raises(self, make):
        layer = make()
        n_inputs = 2 if isinstance(layer, AddLayer) else 1
        layer.build(n_inputs * [5], rng=0)
        inputs = list(np.random.default_rng(1).standard_normal(
            (n_inputs, 2, 3, 5)))
        grad = np.ones((2, 3, 5))
        layer.forward(inputs)
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="training=True"):
            layer.backward(grad)
        # After a full training step too: the cache is single-use and an
        # inference forward does not refill it.
        layer.forward(inputs, training=True)
        layer.backward(grad)
        layer.forward(inputs)
        with pytest.raises(RuntimeError, match="training=True"):
            layer.backward(grad)

    @pytest.mark.parametrize("cls", CELLS, ids=CELL_IDS)
    def test_inference_workspace_keeps_no_histories(self, cls):
        """The inference workspace holds no (T, ...) gate, cell or
        gradient buffers: under half the training workspace's bytes."""
        layer, x, _ = _build(cls, (64, 16, 8, 64))

        def workspace_bytes(training):
            layer.forward([x], training=training)
            return sum(a.nbytes for a in layer._pool._local.bufs.values())

        assert 2 * workspace_bytes(False) < workspace_bytes(True)

    def test_network_inference_forward_keeps_no_shapes(self):
        net = Network(input_dim=5, rng=0)
        net.add_node("l1", LSTMLayer(4), ["input"])
        x = np.ones((2, 3, 5))
        net.forward(x)
        assert not hasattr(net, "_values_shapes")
        net.forward(x, training=True)
        assert net._values_shapes["input"] == (2, 3, 5)


class TestBackwardBudget:
    BUDGET = 1e-12

    @pytest.mark.parametrize("invariant", MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("cls", CELLS, ids=CELL_IDS)
    def test_fused_gradients_within_budget(self, cls, shape, invariant):
        layer, x, grad_out = _build(cls, shape)
        _, dx_ref, g_ref = _run(layer, x, grad_out,
                                fused=False, invariant=invariant)
        _, dx_fused, g_fused = _run(layer, x, grad_out,
                                    fused=True, invariant=invariant)
        assert np.abs(dx_ref - dx_fused).max() <= self.BUDGET
        for name in g_ref:
            assert np.abs(g_ref[name] - g_fused[name]).max() <= \
                self.BUDGET, f"param {name}"


class TestCrossModeServing:
    """The serving engine's contract: a plain-mode forward and a
    batch-invariant forward of the same single example agree bitwise
    (the engine always infers under batch_invariant; clients compare
    against plain-mode serial predictions)."""

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    @pytest.mark.parametrize("cls", CELLS, ids=CELL_IDS)
    def test_single_example_plain_equals_invariant(self, cls, shape):
        batch, steps, in_dim, units = shape
        layer, x, _ = _build(cls, (1, steps, in_dim, units))
        y_plain = layer.forward([x])
        with batch_invariant():
            y_inv = layer.forward([x])
        np.testing.assert_array_equal(y_plain.view(np.uint8),
                                      y_inv.view(np.uint8))


class TestScratchRobustness:
    def test_outputs_are_fresh_arrays_not_pool_views(self):
        """Regression: for singleton batch dims ``transpose(1, 0, 2)``
        of a pooled buffer is already contiguous, and handing out a view
        of it lets the *next* forward overwrite earlier results."""
        for cls in CELLS:
            layer, _, _ = _build(cls, (1, 3, 4, 6))
            rng = np.random.default_rng(5)
            xs = [rng.standard_normal((1, 3, 4)) for _ in range(4)]
            outs = []
            for x in xs:
                outs.append(layer.forward([x]).copy())
            # Re-run: every stored result must still be reproduced.
            for x, want in zip(xs, outs):
                got = layer.forward([x])
                np.testing.assert_array_equal(got, want)

    def test_mode_flip_between_calls_is_safe(self):
        """Alternating kernel/oracle and plain/invariant between
        calls reuses the same layer (and pool) without contamination.
        (Plain and invariant legitimately differ for B > 1 — the
        comparison is always within the same detmath mode.)"""
        layer, x, grad_out = _build(LSTMLayer, (3, 4, 5, 7))
        baseline = {}
        for invariant in (False, True):
            baseline[invariant] = _run(layer, x, grad_out,
                                       fused=False, invariant=invariant)
        for fused in (True, False, True, True):
            for invariant in (True, False):
                y, _, _ = _run(layer, x, grad_out,
                               fused=fused, invariant=invariant)
                np.testing.assert_array_equal(y, baseline[invariant][0])
        y0, dx0, g0 = baseline[False]
        y, dx, g = _run(layer, x, grad_out, fused=True, invariant=False)
        np.testing.assert_array_equal(y, y0)
        assert np.abs(dx - dx0).max() <= 1e-12
        for name in g0:
            assert np.abs(g[name] - g0[name]).max() <= 1e-12

    def test_rebuild_releases_the_old_set_first(self):
        """On a shape change the previous workspace is dropped before
        ``build()`` runs, so two full sets are never alive at once."""
        pool = ScratchPool()
        old = weakref.ref(pool.get((2, 3), lambda: {"a": np.empty((2, 3))})
                          ["a"])
        alive_during_build = []

        def build():
            alive_during_build.append(old() is not None)
            return {"a": np.empty((4, 3))}

        assert pool.get((4, 3), build)["a"].shape == (4, 3)
        assert alive_during_build == [False]

    def test_shape_change_rebuilds_buffers(self):
        layer = LSTMLayer(6)
        layer.build([4], rng=0)
        rng = np.random.default_rng(9)
        for shape in [(2, 3, 4), (5, 7, 4), (1, 1, 4), (2, 3, 4)]:
            x = rng.standard_normal(shape)
            with reference_path(layer):
                want = layer.forward([x])
            got = layer.forward([x])
            np.testing.assert_array_equal(want, got)


class TestNetworkLevel:
    """A hybrid skip-connected DAG run end to end on the kernels and on
    the oracle stays bitwise (forward) and within budget (backward)."""

    def _hybrid(self):
        net = Network(input_dim=5, rng=3)
        net.add_node("l1", LSTMLayer(6), ["input"])
        net.add_node("g1", GRULayer(6), ["l1"])
        net.add_node("proj", DenseLayer(6), ["l1"])
        net.add_node("merge", AddLayer("relu"), ["g1", "proj"])
        net.add_node("r1", SimpleRNNLayer(4), ["merge"])
        net.add_node("out", DenseLayer(5), ["r1"])
        net.set_output("out")
        return net

    def test_network_forward_bitwise_all_modes(self):
        x = np.random.default_rng(4).standard_normal((3, 8, 5))
        net = self._hybrid()
        with reference_path(*_layers(net)):
            want = net.forward(x)
        np.testing.assert_array_equal(net.forward(x), want)

    def test_network_training_step_equivalent(self):
        x = np.random.default_rng(6).standard_normal((4, 6, 5))
        grad = np.random.default_rng(7).standard_normal((4, 6, 5))
        ref_net, fused_net = self._hybrid(), self._hybrid()
        fused_net.set_weights(ref_net.get_weights())
        with reference_path(*_layers(ref_net)):
            ref_net.forward(x, training=True)
            ref_net.zero_grads()
            dx_ref = ref_net.backward(grad)
        fused_net.forward(x, training=True)
        fused_net.zero_grads()
        dx_fused = fused_net.backward(grad)
        assert np.abs(dx_ref - dx_fused).max() <= 1e-12
        ref_grads = [g for _, g in ref_net.parameters_and_gradients()]
        fused_grads = [g for _, g in fused_net.parameters_and_gradients()]
        for g_ref, g_fused in zip(ref_grads, fused_grads, strict=True):
            assert np.abs(g_ref - g_fused).max() <= 1e-12
