"""LSTM layer with exact backpropagation through time.

Standard (Keras-convention) LSTM cell, gate order ``[i, f, g, o]``:

.. code-block:: text

    z_t = x_t Wx + h_{t-1} Wh + b          (B, 4H)
    i = sigm(z_i)   f = sigm(z_f)   g = tanh(z_g)   o = sigm(z_o)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

The forget-gate bias starts at one (the Keras default); the rest of the
layer is :class:`~repro.nn.layers.recurrent.RecurrentLayer`'s.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.detmath import recurrent_matmul
from repro.nn.layers.recurrent import RecurrentLayer

__all__ = ["LSTMLayer"]


class LSTMLayer(RecurrentLayer):
    """LSTM ``(B, T, F) -> (B, T, units)``, returning full sequences."""

    GATES = 4

    def _initial_bias(self) -> np.ndarray:
        h = self.units
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # unit forget bias (Keras default)
        return bias

    def _cell_buffers(self, batch: int, steps: int, training: bool) -> dict:
        h = self.units
        # Backward reads every step's gates, cell and tanh(c).
        kept = steps if training else 1
        bufs = {
            "cs": np.empty((kept, batch, h)),
            # Gate-block layout (T, 4, B, H): every per-gate operand is
            # a *contiguous* (B, H) slab. Elementwise kernels on 64-wide
            # blocks strided inside (B, 4H) rows cost 3-6x their
            # contiguous equivalents, which dominated the old hot path.
            "gates": np.empty((kept, 4, batch, h)),
            "tanh_c": np.empty((kept, batch, h)),
            "z4": np.empty((4, batch, h)),
            "zw": np.empty((batch, 4 * h)),
            "s2": np.empty((2, batch, h)),
            "s1": np.empty((batch, h)),
            "t1": np.empty((batch, h)),
        }
        if training:
            bufs.update({
                "whT": np.empty((4 * h, h)),
                "t2": np.empty((batch, h)),
                "dh": np.empty((batch, h)),
                "dc": np.empty((batch, h)),
                "dc_next": np.empty((batch, h)),
                "dz4": np.empty((4, batch, h)),
                "D4": np.empty((4, batch, h)),
            })
        return bufs

    def _steps(self, bufs: dict, training: bool) -> tuple:
        wh = self.params["Wh"]
        xp, hs = bufs["xp"], bufs["hs"]
        batch, h = hs.shape[1], self.units
        cs, gates, tanh_c = bufs["cs"], bufs["gates"], bufs["tanh_c"]
        h_prev = bufs["zeros"]
        c_prev = bufs["zeros"]
        z4 = bufs["z4"]          # pre-activation in gate-block layout
        zw = bufs["zw"]          # wide (B, 4H) pre-activation
        z4_src = zw.reshape(batch, 4, h).transpose(1, 0, 2)
        s2, s1 = bufs["s2"], bufs["s1"]  # sigmoid scratch
        ig = bufs["t1"]          # i * g product
        for t in range(hs.shape[0]):
            k = t if training else 0  # history slot
            # Same wide product as the reference (recurrent_matmul also
            # owns the batch-invariant switch), same addition pairs
            # (x-projection + recurrence commutes bitwise), then one
            # transpose-copy into contiguous per-gate blocks.
            recurrent_matmul(h_prev, wh, out=zw)
            np.add(zw, xp[:, t, :], out=zw)
            np.copyto(z4, z4_src)
            gate = gates[k]
            sigmoid(z4[:2], out=gate[:2], scratch=s2)  # i, f in one pass
            np.tanh(z4[2], out=gate[2])                # g
            sigmoid(z4[3], out=gate[3], scratch=s1)    # o
            c = cs[k]
            np.multiply(gate[1], c_prev, out=c)        # f * c_prev
            np.multiply(gate[0], gate[2], out=ig)
            c += ig                                    # + i * g
            tc = np.tanh(c, out=tanh_c[k])
            np.multiply(gate[3], tc, out=hs[t])        # o * tanh(c)
            h_prev, c_prev = hs[t], c
        return cs, gates, tanh_c

    def _bptt(self, bufs: dict, grad_out: np.ndarray, hs: np.ndarray,
              cs: np.ndarray, gates: np.ndarray, tanh_c: np.ndarray) -> None:
        steps, batch, h = hs.shape
        # Contiguous pre-transposed weights: one 12us copy buys back
        # ~13us per step on the dh_next GEMM (OpenBLAS's NoTrans path
        # beats its Trans path at these sizes). Reassociates nothing at
        # BLAS-dispatched shapes and stays inside the documented 1e-12
        # backward budget everywhere else.
        wh_t = bufs["whT"]
        np.copyto(wh_t, self.params["Wh"].T)
        # The gate-derivative factors are evaluated on the stacked
        # (4, B, H) block in two contiguous wide passes (the tanh g-block
        # is then fixed up in place); each dz element still sees the
        # reference's exact multiplication tree ``(first factor) *
        # (derivative factor)``, so the sequential part stays bitwise on
        # the reference's dz values. A cheap transpose-copy then lays
        # each step's dz out as a contiguous (B, 4H) row block so every
        # downstream GEMM sees the same wide operand as before.
        dzs = bufs["dzs"]
        dzs4 = dzs.reshape(steps, batch, 4, h)
        dz4 = bufs["dz4"]
        dh, dc = bufs["dh"], bufs["dc"]
        t1, t2 = bufs["t1"], bufs["t2"]
        D4 = bufs["D4"]
        dh_next = bufs["dh_next"]
        dc_next = bufs["dc_next"]
        dc_next[:] = 0.0
        zeros_bh = bufs["zeros"]
        for t in range(steps - 1, -1, -1):
            gate = gates[t]   # (4, B, H): i, f, g, o
            g = gate[2]
            tc = tanh_c[t]
            c_prev = cs[t - 1] if t > 0 else zeros_bh

            np.add(grad_out[t], dh_next, out=dh)
            # dc = dc_next + dh * o * (1 - tanh(c)^2)
            np.multiply(dh, gate[3], out=t1)
            np.multiply(tc, tc, out=t2)
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=t1)
            np.add(dc_next, t1, out=dc)

            # D4 = [i(1-i), f(1-f), 1-g^2, o(1-o)] — sigmoid derivative
            # on the whole block, candidate block overwritten with tanh's.
            np.subtract(1.0, gate, out=D4)
            np.multiply(gate, D4, out=D4)
            dg_block = D4[2]
            np.multiply(g, g, out=dg_block)
            np.subtract(1.0, dg_block, out=dg_block)

            np.multiply(dc, g, out=dz4[0])        # dz_i pre-factor
            np.multiply(dc, c_prev, out=dz4[1])   # dz_f pre-factor
            np.multiply(dc, gate[0], out=dz4[2])  # dz_g pre-factor
            np.multiply(dh, tc, out=dz4[3])       # dz_o pre-factor
            np.multiply(dz4, D4, out=dz4)

            dz = dzs[t]
            dzs4[t][:] = dz4.transpose(1, 0, 2)   # block -> wide rows
            np.matmul(dz, wh_t, out=dh_next)
            np.multiply(dc, gate[1], out=dc_next)
