"""LSTM layer with exact backpropagation through time.

Standard (Keras-convention) LSTM cell, gate order ``[i, f, g, o]``:

.. code-block:: text

    z_t = x_t Wx + h_{t-1} Wh + b          (B, 4H)
    i = sigm(z_i)   f = sigm(z_f)   g = tanh(z_g)   o = sigm(z_o)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Sequences are returned at every timestep (the search space is
sequence-to-sequence; paper Sec. IV-B). Initialization follows Keras:
Glorot-uniform input kernel, orthogonal recurrent kernel, zero bias with
unit forget-gate bias.

The per-timestep recurrence is an irreducible loop; everything inside it
is batched matrix algebra (the window K = 8 keeps the loop short). The
kernel is fused (see :mod:`repro.nn.fused`): its forward is bitwise
identical to the auditable reference cell in ``tests/reference_cells.py``,
and its cache-blocked BPTT agrees with it to <= 1e-12 (stacked
``(T*B, .)`` weight-gradient GEMMs reassociate the timestep reduction;
nothing else differs).

Weight layout is shared with the reference cell and every serialized
artifact (:mod:`repro.nn.serialization`): ``Wx (F, 4H)``, ``Wh (H, 4H)``,
``b (4H,)`` with gates stacked ``[i, f, g, o]`` along the wide axis.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.nn.activations import sigmoid
from repro.nn.detmath import recurrent_matmul
from repro.nn.fused import ScratchPool, ones_column
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.layers.base import Layer
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["LSTMLayer"]


class LSTMLayer(Layer):
    """LSTM ``(B, T, F) -> (B, T, units)``, returning full sequences."""

    def __init__(self, units: int) -> None:
        super().__init__()
        self.units = check_positive_int(units, name="units")
        self._pool = ScratchPool()

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError(f"LSTMLayer takes one input, got {len(input_dims)}")
        in_dim = check_positive_int(input_dims[0], name="input dim")
        gen = as_generator(rng)
        h = self.units
        self.add_param("Wx", glorot_uniform((in_dim, 4 * h), gen))
        self.add_param("Wh", orthogonal((h, 4 * h), gen))
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # unit forget bias (Keras default)
        self.add_param("b", bias)
        super().build(input_dims, rng)

    @property
    def output_dim(self) -> int:
        return self.units

    # ------------------------------------------------------------------
    # Fused kernels (shape rule and contract: repro.nn.fused).
    # ------------------------------------------------------------------
    def _buffers(self, batch: int, steps: int, in_dim: int,
                 training: bool) -> dict:
        h = self.units
        # Backward reads every step's gates, cell and tanh(c): training
        # keeps those histories, inference one reused step of each.
        kept = steps if training else 1

        def build():
            bufs = {
                "hs": np.empty((steps, batch, h)),
                "cs": np.empty((kept, batch, h)),
                # Gate-block layout (T, 4, B, H): every per-gate operand
                # is a *contiguous* (B, H) slab. Elementwise kernels on
                # 64-wide blocks strided inside (B, 4H) rows cost 3-6x
                # their contiguous equivalents, which dominated the old
                # hot path.
                "gates": np.empty((kept, 4, batch, h)),
                "tanh_c": np.empty((kept, batch, h)),
                "xp": np.empty((batch, steps, 4 * h)),
                "z4": np.empty((4, batch, h)),
                "zw": np.empty((batch, 4 * h)),
                "s2": np.empty((2, batch, h)),
                "s1": np.empty((batch, h)),
                "t1": np.empty((batch, h)),
                "zeros": np.zeros((batch, h)),
            }
            if training:
                bufs.update({
                    "xT": np.empty((steps, batch, in_dim)),
                    "whT": np.empty((4 * h, h)),
                    "wxT4": np.empty((4, h, in_dim)),
                    "t2": np.empty((batch, h)),
                    "dh": np.empty((batch, h)),
                    "dc": np.empty((batch, h)),
                    "dh_next": np.empty((batch, h)),
                    "dc_next": np.empty((batch, h)),
                    "dz4": np.empty((4, batch, h)),
                    "dzs": np.empty((steps, batch, 4 * h)),
                    "D4": np.empty((4, batch, h)),
                    # Stacked accumulation operand [x | 1 | h_{t-1}]:
                    # one GEMM yields dWx, db and dWh together. The ones
                    # column is written here, once; nothing else
                    # touches it.
                    "acc": ones_column(
                        np.empty((steps * batch, in_dim + 1 + h)), in_dim),
                    "accR": np.empty((in_dim + 1 + h, 4 * h)),
                    "dxf": np.empty((steps * batch, in_dim)),
                    "dxt": np.empty((steps * batch, in_dim)),
                })
            return bufs

        return self._pool.get((batch, steps, in_dim, training), build)

    def forward(self, inputs, training: bool = False) -> np.ndarray:
        x = self._check_single_input(inputs)
        batch, steps, in_dim = x.shape
        h = self.units
        wx, wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        bufs = self._buffers(batch, steps, in_dim, training)
        hs, cs = bufs["hs"], bufs["cs"]
        gates, tanh_c = bufs["gates"], bufs["tanh_c"]

        # Input projection for all timesteps, hoisted out of the loop.
        # This is the reference cell's exact call (the batched 3-D matmul):
        # a differently shaped GEMM over the same data — flat (B*T)
        # rows, or one per-gate column block — is NOT bitwise safe in
        # general (BLAS and the batch-invariant gufunc both pick
        # M/N-dependent kernels whose K-reduction order differs; small
        # odd shapes expose it). Bitwise identity is bought with GEMMs
        # of identical shape and cheap data-movement afterwards.
        xp = bufs["xp"]
        np.matmul(x, wx, out=xp)  # (B, T, 4H), == reference x @ wx
        xp += b
        obs.counter_add("nn/fused_gemms", 1 + steps)
        h_prev = bufs["zeros"]
        c_prev = bufs["zeros"]
        z4 = bufs["z4"]          # pre-activation in gate-block layout
        zw = bufs["zw"]          # wide (B, 4H) pre-activation
        z4_src = zw.reshape(batch, 4, h).transpose(1, 0, 2)
        s2, s1 = bufs["s2"], bufs["s1"]  # sigmoid scratch
        ig = bufs["t1"]          # i * g product
        for t in range(steps):
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
        if training:
            # Time-major input copy for the backward accumulation fill.
            xT = bufs["xT"]
            xT[:] = x.transpose(1, 0, 2)
            self._cache = (xT, hs, cs, gates, tanh_c)
        # Always a fresh copy: for singleton batch/steps the transpose
        # is already contiguous and ``ascontiguousarray`` would hand the
        # caller a *view into the pooled scratch* that the next forward
        # overwrites.
        out = np.empty((batch, steps, h))
        np.copyto(out, hs.transpose(1, 0, 2))
        return out

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        xT, hs, cs, gates, tanh_c = self._take_cache()
        steps, batch, in_dim = xT.shape
        h = self.units
        wx, wh = self.params["Wx"], self.params["Wh"]
        bufs = self._buffers(batch, steps, in_dim, True)
        # Contiguous pre-transposed weights: one 12us copy buys back
        # ~13us per step on the dh_next GEMM (OpenBLAS's NoTrans path
        # beats its Trans path at these sizes). Reassociates nothing at
        # BLAS-dispatched shapes and stays inside the documented 1e-12
        # backward budget everywhere else.
        wh_t = bufs["whT"]
        np.copyto(wh_t, wh.T)
        wxT4 = bufs["wxT4"]
        for k in range(4):
            wxT4[k] = wx[:, k * h:(k + 1) * h].T

        grad_out = grad_output.transpose(1, 0, 2)  # (T, B, H)
        # Sequential part: only the per-step pre-activation gradients,
        # computed allocation-free in reused scratch. The gate-derivative
        # factors are evaluated on the stacked (4, B, H) block in two
        # contiguous wide passes (the tanh g-block is then fixed up in
        # place); each dz element still sees the reference's exact
        # multiplication tree ``(first factor) * (derivative factor)``,
        # so the sequential part stays bitwise on the reference's dz
        # values. A cheap transpose-copy then lays each step's dz out as
        # a contiguous (B, 4H) row block so every downstream GEMM sees
        # the same wide operand as before.
        dzs = bufs["dzs"]
        dzs4 = dzs.reshape(steps, batch, 4, h)
        dz4 = bufs["dz4"]
        dh, dc = bufs["dh"], bufs["dc"]
        t1, t2 = bufs["t1"], bufs["t2"]
        D4 = bufs["D4"]
        dh_next = bufs["dh_next"]
        dc_next = bufs["dc_next"]
        dh_next[:] = 0.0
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

        # Cache-blocked accumulation: dWx, db and dWh drop out of ONE
        # stacked GEMM against [x | 1 | h_{t-1}] (reassociates the
        # t-reduction; <= 1e-12 from the reference cell, see
        # repro.nn.fused), dx out of a second.
        obs.counter_add("nn/fused_bptt_gemms", 2 + steps)
        dz_flat = dzs.reshape(steps * batch, 4 * h)
        acc = bufs["acc"]  # (T*B, F+1+H), ones column prebuilt
        acc3 = acc.reshape(steps, batch, in_dim + 1 + h)
        acc3[..., :in_dim] = xT
        acc3[0, :, in_dim + 1:] = 0.0          # h_{-1} = 0
        acc3[1:, :, in_dim + 1:] = hs[:-1]
        R = np.matmul(acc.T, dz_flat, out=bufs["accR"])
        self.grads["Wx"] += R[:in_dim]
        self.grads["b"] += R[in_dim]
        self.grads["Wh"] += R[in_dim + 1:]
        # dx per gate block: (T*B, H) @ (H, F) runs ~20% faster than the
        # wide (T*B, 4H) @ (4H, F) at F << H (the wide GEMM is
        # bandwidth-bound on its skinny output). Reassociates the
        # K-reduction into four partials — backward budget, not bitwise.
        dxf, dxt = bufs["dxf"], bufs["dxt"]
        np.matmul(dz_flat[:, :h], wxT4[0], out=dxf)
        for k in range(1, 4):
            np.matmul(dz_flat[:, k * h:(k + 1) * h], wxT4[k], out=dxt)
            dxf += dxt
        dx = dxf.reshape(steps, batch, in_dim)
        out = np.empty((batch, steps, in_dim))  # never a pooled view
        np.copyto(out, dx.transpose(1, 0, 2))
        return [out]

    def __repr__(self) -> str:
        return f"LSTMLayer(units={self.units})"
