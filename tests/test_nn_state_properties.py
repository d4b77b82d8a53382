"""Property-based state invariants for the recurrent cells (Hypothesis).

Complements the example-based differential suite
(tests/test_fused_differential.py) with *generated* shapes and inputs.
Each property is a mathematical fact about the cell equations, so it
must hold for any weights and any input:

* LSTM: ``h_t = o * tanh(c_t)`` bounds ``|h| <= 1``; with sigmoid gates
  in (0, 1), ``|c_t| <= f*|c_{t-1}| + i*|g|  <=  |c_{t-1}| + 1``, so
  ``|c_t| <= t + 1`` — the cell state grows at most linearly.
* GRU: ``h_t = z*h_{t-1} + (1-z)*g`` is a convex combination of the
  previous state and a tanh candidate, so ``|h_t| <= max(|h_{t-1}|, 1)``
  and, from ``h_0 = 0``, ``|h| <= 1`` for all time.
* SimpleRNN: ``h = tanh(...)`` gives ``|h| <= 1`` trivially.
* All cells: zero input with zero bias stays exactly at the zero fixed
  point; outputs are always finite for finite inputs; and the fused
  kernel agrees bitwise with the reference cell
  (tests/reference_cells.py) on every generated case (the
  property-level restatement of the differential contract).

The ``@example`` pins are regression anchors: shapes that caught real
bugs (B=1 pooled-view aliasing; odd hidden sizes where differently
shaped GEMMs round differently) stay in the deck forever.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.nn.layers import GRULayer, LSTMLayer, SimpleRNNLayer
from tests.reference_cells import reference_path

# Small bounded shapes keep each case ~milliseconds; the differential
# suite covers the big benchmark shape.
SHAPE = st.tuples(st.integers(1, 5),    # batch
                  st.integers(1, 6),    # steps
                  st.integers(1, 7),    # in_dim
                  st.integers(1, 9))    # units

SEED = st.integers(0, 2**31 - 1)

COMMON = dict(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])


def _forward(cls, shape, seed, *, scale=1.0):
    batch, steps, in_dim, units = shape
    rng = np.random.default_rng(seed)
    layer = cls(units)
    layer.build([in_dim], rng=rng)
    x = scale * rng.standard_normal((batch, steps, in_dim))
    y = layer.forward([x])
    layer._cache = None
    return layer, x, y


class TestLSTMStateInvariants:
    @given(shape=SHAPE, seed=SEED)
    @example(shape=(1, 1, 3, 5), seed=0)     # aliasing regression shape
    @example(shape=(1, 4, 7, 3), seed=7)     # serving regression shape
    @example(shape=(2, 6, 5, 7), seed=123)   # odd hidden size
    @settings(**COMMON)
    def test_hidden_state_bounded_by_one(self, shape, seed):
        _, _, y = _forward(LSTMLayer, shape, seed, scale=3.0)
        assert np.all(np.abs(y) <= 1.0)
        assert np.all(np.isfinite(y))

    @given(shape=SHAPE, seed=SEED)
    @example(shape=(1, 6, 2, 4), seed=42)
    @settings(**COMMON)
    def test_cell_state_grows_at_most_linearly(self, shape, seed):
        batch, steps, in_dim, units = shape
        rng = np.random.default_rng(seed)
        layer = LSTMLayer(units)
        layer.build([in_dim], rng=rng)
        x = 3.0 * rng.standard_normal((batch, steps, in_dim))
        layer.forward([x], training=True)
        cs = layer._cache[2]  # (T, B, H) cell states
        for t in range(steps):
            assert np.all(np.abs(cs[t]) <= t + 1.0 + 1e-12), f"step {t}"

    @given(shape=SHAPE, seed=SEED)
    @example(shape=(1, 1, 1, 1), seed=0)
    @settings(**COMMON)
    def test_zero_input_zero_bias_is_fixed_point(self, shape, seed):
        batch, steps, in_dim, units = shape
        layer = LSTMLayer(units)
        layer.build([in_dim], rng=seed)
        layer.params["b"][:] = 0.0  # drop the unit forget bias
        x = np.zeros((batch, steps, in_dim))
        y = layer.forward([x])
        # sigm(0)=1/2, tanh(0)=0: c = f*0 + i*0 = 0, h = o*tanh(0) = 0.
        np.testing.assert_array_equal(y, np.zeros_like(y))


class TestGRUStateInvariants:
    @given(shape=SHAPE, seed=SEED)
    @example(shape=(1, 1, 3, 5), seed=0)     # aliasing regression shape
    @example(shape=(3, 5, 4, 7), seed=11)    # odd hidden size
    @settings(**COMMON)
    def test_hidden_state_is_convex_combination(self, shape, seed):
        """|h_t| <= max(|h_{t-1}|_inf, 1) elementwise; from h_0 = 0 the
        whole trajectory stays inside the unit box."""
        _, _, y = _forward(GRULayer, shape, seed, scale=3.0)
        assert np.all(np.abs(y) <= 1.0)
        assert np.all(np.isfinite(y))

    @given(shape=SHAPE, seed=SEED)
    @example(shape=(2, 3, 2, 2), seed=5)
    @settings(**COMMON)
    def test_zero_input_zero_bias_is_fixed_point(self, shape, seed):
        batch, steps, in_dim, units = shape
        layer = GRULayer(units)
        layer.build([in_dim], rng=seed)
        x = np.zeros((batch, steps, in_dim))
        y = layer.forward([x])
        # z=r=1/2, g=tanh(0)=0, h' = z*0 + (1-z)*0 = 0.
        np.testing.assert_array_equal(y, np.zeros_like(y))


class TestSimpleRNNStateInvariants:
    @given(shape=SHAPE, seed=SEED)
    @example(shape=(1, 2, 4, 6), seed=0)
    @settings(**COMMON)
    def test_tanh_bounds_hidden_state(self, shape, seed):
        _, _, y = _forward(SimpleRNNLayer, shape, seed, scale=5.0)
        assert np.all(np.abs(y) <= 1.0)
        assert np.all(np.isfinite(y))


class TestFusedReferenceProperty:
    """The differential contract as a generated property: any cell, any
    shape, any weights — fused forward is bitwise the reference's."""

    @pytest.mark.parametrize("cls", [LSTMLayer, GRULayer, SimpleRNNLayer],
                             ids=["lstm", "gru", "rnn"])
    @given(shape=SHAPE, seed=SEED)
    @example(shape=(1, 1, 3, 5), seed=0)
    @example(shape=(1, 4, 7, 3), seed=1)
    @example(shape=(2, 6, 5, 7), seed=2)
    @settings(**COMMON)
    def test_forward_bitwise(self, cls, shape, seed):
        layer, x, y_fused = _forward(cls, shape, seed)
        with reference_path(layer):
            y_ref = layer.forward([x])
            layer._cache = None
        np.testing.assert_array_equal(y_fused.view(np.uint8),
                                      y_ref.view(np.uint8))
