"""Reference recurrent cells: the oracle of the differential suite.

One ``forward(params, x) -> (y, cache)`` / ``backward(params, cache,
grad) -> (dx, grads)`` pair per cell, over a layer's weight dict
(``Wx``, ``Wh``, ``b``). Each is written for auditability — one small
GEMM/elementwise expression per quantity per timestep — and is the
ground truth the production layers (:mod:`repro.nn.layers.lstm`,
``gru``, ``rnn``) are held to: forward **bitwise identical**, with and
without :func:`repro.nn.detmath.batch_invariant`; backward gradients
within ``1e-12`` max-abs-diff (see :mod:`repro.nn.fused`).

The GEMM calls here are the shape contract of the production kernels.
Every ``recurrent_matmul``, every ``x @ wx + b``, every ``wh[:, 2h:]``
view and GRU's ``np.concatenate`` must stay exactly as written:
differently *shaped* GEMMs over the same data are not bitwise equal, so
reshaping one here silently changes what "bitwise" means.

:func:`reference_path` runs given layer instances on the oracle, so
network-level tests still go through ``Network.forward``/``backward``.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np

from repro import obs
from repro.nn.activations import dsigmoid_from_y, dtanh_from_y, sigmoid
from repro.nn.detmath import recurrent_matmul
from repro.nn.layers import GRULayer, LSTMLayer, SimpleRNNLayer

# ----------------------------------------------------------------------
# LSTM, gate order [i, f, g, o]
# ----------------------------------------------------------------------
def lstm_forward(params, x: np.ndarray):
    batch, steps, _ = x.shape
    h = params["Wh"].shape[0]
    wx, wh, b = params["Wx"], params["Wh"], params["b"]

    hs = np.zeros((steps, batch, h))
    cs = np.zeros((steps, batch, h))
    gates = np.zeros((steps, batch, 4 * h))
    tanh_c = np.zeros((steps, batch, h))

    # Hoist the input projection out of the loop (one big GEMM).
    x_proj = x @ wx + b  # (B, T, 4H)
    # One input-projection GEMM + one recurrent GEMM per step.
    obs.counter_add("nn/gemms", 1 + steps)
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    for t in range(steps):
        z = x_proj[:, t, :] + recurrent_matmul(h_prev, wh)
        i = sigmoid(z[:, :h])
        f = sigmoid(z[:, h:2 * h])
        g = np.tanh(z[:, 2 * h:3 * h])
        o = sigmoid(z[:, 3 * h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h_t = o * tc
        gates[t, :, :h] = i
        gates[t, :, h:2 * h] = f
        gates[t, :, 2 * h:3 * h] = g
        gates[t, :, 3 * h:] = o
        cs[t] = c
        tanh_c[t] = tc
        hs[t] = h_t
        h_prev, c_prev = h_t, c
    cache = (x, hs, cs, gates, tanh_c)
    return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache


def lstm_backward(params, cache, grad_output: np.ndarray):
    x, hs, cs, gates, tanh_c = cache
    batch, steps, in_dim = x.shape
    h = params["Wh"].shape[0]
    wx, wh = params["Wx"], params["Wh"]

    grad_out = grad_output.transpose(1, 0, 2)  # (T, B, H)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(params["b"])
    dx = np.zeros_like(x)

    dh_next = np.zeros((batch, h))
    dc_next = np.zeros((batch, h))
    for t in range(steps - 1, -1, -1):
        i = gates[t, :, :h]
        f = gates[t, :, h:2 * h]
        g = gates[t, :, 2 * h:3 * h]
        o = gates[t, :, 3 * h:]
        tc = tanh_c[t]
        c_prev = cs[t - 1] if t > 0 else np.zeros((batch, h))
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, h))

        dh = grad_out[t] + dh_next
        dc = dc_next + dh * o * dtanh_from_y(tc)

        dz = np.empty((batch, 4 * h))
        dz[:, :h] = dc * g * dsigmoid_from_y(i)            # d z_i
        dz[:, h:2 * h] = dc * c_prev * dsigmoid_from_y(f)  # d z_f
        dz[:, 2 * h:3 * h] = dc * i * dtanh_from_y(g)      # d z_g
        dz[:, 3 * h:] = dh * tc * dsigmoid_from_y(o)       # d z_o

        dwx += x[:, t, :].T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc * f

    return dx, {"Wx": dwx, "Wh": dwh, "b": db}


# ----------------------------------------------------------------------
# GRU, gate order [z, r, g]
# ----------------------------------------------------------------------
def gru_forward(params, x: np.ndarray):
    batch, steps, _ = x.shape
    h = params["Wh"].shape[0]
    wx, wh, b = params["Wx"], params["Wh"], params["b"]

    hs = np.zeros((steps, batch, h))
    gates = np.zeros((steps, batch, 3 * h))
    x_proj = x @ wx + b
    # One input-projection GEMM + two recurrent GEMMs per step.
    obs.counter_add("nn/gemms", 1 + 2 * steps)
    h_prev = np.zeros((batch, h))
    for t in range(steps):
        rec = recurrent_matmul(h_prev, wh)      # (B, 3H)
        z = sigmoid(x_proj[:, t, :h] + rec[:, :h])
        r = sigmoid(x_proj[:, t, h:2 * h] + rec[:, h:2 * h])
        g = np.tanh(x_proj[:, t, 2 * h:]
                    + recurrent_matmul(r * h_prev, wh[:, 2 * h:]))
        h_t = z * h_prev + (1.0 - z) * g
        gates[t, :, :h] = z
        gates[t, :, h:2 * h] = r
        gates[t, :, 2 * h:] = g
        hs[t] = h_t
        h_prev = h_t
    cache = (x, hs, gates)
    return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache


def gru_backward(params, cache, grad_output: np.ndarray):
    x, hs, gates = cache
    batch, steps, in_dim = x.shape
    h = params["Wh"].shape[0]
    wx, wh = params["Wx"], params["Wh"]

    grad_out = grad_output.transpose(1, 0, 2)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(params["b"])
    dx = np.zeros_like(x)
    dh_next = np.zeros((batch, h))

    for t in range(steps - 1, -1, -1):
        z = gates[t, :, :h]
        r = gates[t, :, h:2 * h]
        g = gates[t, :, 2 * h:]
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, h))

        dh = grad_out[t] + dh_next
        dz = dh * (h_prev - g)
        dg = dh * (1.0 - z)
        dh_prev = dh * z

        dz_pre = dz * dsigmoid_from_y(z)
        dg_pre = dg * dtanh_from_y(g)
        # g's recurrent branch: (r * h_prev) @ Ug
        d_rh = dg_pre @ wh[:, 2 * h:].T
        dr = d_rh * h_prev
        dh_prev = dh_prev + d_rh * r
        dr_pre = dr * dsigmoid_from_y(r)

        dz_r = np.concatenate([dz_pre, dr_pre], axis=1)  # (B, 2H)
        dh_prev = dh_prev + dz_r @ wh[:, :2 * h].T

        dpre = np.concatenate([dz_r, dg_pre], axis=1)    # (B, 3H)
        dwx += x[:, t, :].T @ dpre
        db += dpre.sum(axis=0)
        dx[:, t, :] = dpre @ wx.T
        # Recurrent weight grads: z/r branches read h_prev; the
        # candidate branch reads r * h_prev (h_prev is zero at t=0).
        dwh[:, :2 * h] += h_prev.T @ dz_r
        dwh[:, 2 * h:] += (r * h_prev).T @ dg_pre
        dh_next = dh_prev

    return dx, {"Wx": dwx, "Wh": dwh, "b": db}


# ----------------------------------------------------------------------
# SimpleRNN
# ----------------------------------------------------------------------
def rnn_forward(params, x: np.ndarray):
    batch, steps, _ = x.shape
    wx, wh, b = params["Wx"], params["Wh"], params["b"]
    hs = np.zeros((steps, batch, wh.shape[0]))
    x_proj = x @ wx + b
    # One input-projection GEMM + one recurrent GEMM per step.
    obs.counter_add("nn/gemms", 1 + steps)
    h_prev = np.zeros((batch, wh.shape[0]))
    for t in range(steps):
        h_prev = np.tanh(x_proj[:, t, :] + recurrent_matmul(h_prev, wh))
        hs[t] = h_prev
    cache = (x, hs)
    return np.ascontiguousarray(hs.transpose(1, 0, 2)), cache


def rnn_backward(params, cache, grad_output: np.ndarray):
    x, hs = cache
    batch, steps, _ = x.shape
    wx, wh = params["Wx"], params["Wh"]
    grad_out = grad_output.transpose(1, 0, 2)
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(params["b"])
    dx = np.zeros_like(x)
    dh_next = np.zeros((batch, wh.shape[0]))
    for t in range(steps - 1, -1, -1):
        h_prev = hs[t - 1] if t > 0 else np.zeros((batch, wh.shape[0]))
        dpre = (grad_out[t] + dh_next) * dtanh_from_y(hs[t])
        dwx += x[:, t, :].T @ dpre
        dwh += h_prev.T @ dpre
        db += dpre.sum(axis=0)
        dx[:, t, :] = dpre @ wx.T
        dh_next = dpre @ wh.T
    return dx, {"Wx": dwx, "Wh": dwh, "b": db}


#: Layer class -> its (forward, backward) oracle pair.
ORACLE = {
    LSTMLayer: (lstm_forward, lstm_backward),
    GRULayer: (gru_forward, gru_backward),
    SimpleRNNLayer: (rnn_forward, rnn_backward),
}


@contextmanager
def reference_path(*layers):
    """Run the given layers on the oracle for the duration of the block.

    Each recurrent instance's ``forward``/``backward`` is shadowed by an
    instance attribute that runs its cell's oracle on the layer's own
    weights, cache and gradient accumulators; other layers (Dense, Add,
    ...) are left as they are, so a whole network's layers can be
    passed. Leaving the block restores the fused kernels.
    """
    cells = [layer for layer in layers if type(layer) in ORACLE]
    for layer in cells:
        forward, backward = ORACLE[type(layer)]
        layer.forward = partial(_oracle_forward, layer, forward)
        layer.backward = partial(_oracle_backward, layer, backward)
    try:
        yield
    finally:
        for layer in cells:
            del layer.forward, layer.backward


def _oracle_forward(layer, forward, inputs, training=False):
    y, cache = forward(layer.params, layer._check_single_input(inputs))
    if training:
        layer._cache = cache
    return y


def _oracle_backward(layer, backward, grad_output):
    cache = layer._take_cache()
    dx, grads = backward(layer.params, cache, grad_output)
    for name, grad in grads.items():
        layer.grads[name] += grad
    return [dx]
