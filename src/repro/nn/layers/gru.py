"""GRU layer with exact backpropagation through time.

Extension beyond the paper's LSTM-only space: the paper's related-work
discussion (Ororbia et al.) and its future-work section motivate searching
over *hybrid* memory cells; adding GRU (and SimpleRNN) operations to the
catalog realizes that. Cell equations (update gate ``z``, reset gate
``r``):

.. code-block:: text

    z = sigm(x Wz + h Uz + bz)
    r = sigm(x Wr + h Ur + br)
    g = tanh(x Wg + (r * h) Ug + bg)
    h' = z * h + (1 - z) * g

Weight layout (shared with every serialized artifact): ``Wx (F, 3H)``,
``Wh (H, 3H)``, ``b (3H,)``, gates stacked ``[z, r, g]`` along the wide
axis. Like the LSTM, the kernel is fused (:mod:`repro.nn.fused`): its
forward issues the exact GEMM shapes of the reference cell in
``tests/reference_cells.py`` (bitwise identity forbids reshaping them)
and buys its speed from buffer reuse, contiguous activation blocks and
cache-blocked BPTT accumulation.
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

__all__ = ["GRULayer"]


class GRULayer(Layer):
    """GRU ``(B, T, F) -> (B, T, units)``, returning full sequences."""

    def __init__(self, units: int) -> None:
        super().__init__()
        self.units = check_positive_int(units, name="units")
        self._pool = ScratchPool()

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError(f"GRULayer takes one input, got {len(input_dims)}")
        in_dim = check_positive_int(input_dims[0], name="input dim")
        gen = as_generator(rng)
        h = self.units
        # Gate order along the 3H axis: [z, r, g].
        self.add_param("Wx", glorot_uniform((in_dim, 3 * h), gen))
        self.add_param("Wh", orthogonal((h, 3 * h), gen))
        self.add_param("b", np.zeros(3 * h))
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
        # Backward reads every step's gates and r * h_prev: training
        # keeps those histories, inference one reused step of each.
        kept = steps if training else 1

        def build():
            bufs = {
                "hs": np.empty((steps, batch, h)),
                "gates": np.empty((kept, batch, 3 * h)),
                "rh": np.empty((kept, batch, h)),
                "xp": np.empty((batch, steps, 3 * h)),
                "wh_g": np.empty((h, h)),
                "zr": np.empty((batch, 2 * h)),
                "rec": np.empty((batch, 3 * h)),
                "gp": np.empty((batch, h)),
                "s2": np.empty((batch, 2 * h)),
                "t1": np.empty((batch, h)),
                "zeros": np.zeros((batch, h)),
            }
            if training:
                bufs.update({
                    "xT": np.empty((steps, batch, in_dim)),
                    "wh_zr_T": np.empty((2 * h, h)),
                    "wh_g_T": np.empty((h, h)),
                    "wxT3": np.empty((3, h, in_dim)),
                    "t2": np.empty((batch, h)),
                    "dh": np.empty((batch, h)),
                    "dhp": np.empty((batch, h)),
                    "dzb": np.empty((batch, h)),
                    "dgb": np.empty((batch, h)),
                    "drh": np.empty((batch, h)),
                    "mm": np.empty((batch, h)),
                    "dh_next": np.empty((batch, h)),
                    "dpres": np.empty((steps, batch, 3 * h)),
                    "h_shift": np.empty((steps, batch, h)),
                    "acc": ones_column(
                        np.empty((steps * batch, in_dim + 1)), in_dim),
                    "accR": np.empty((in_dim + 1, 3 * h)),
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
        # Contiguous copy of the candidate block, once per call: same
        # GEMM shape and values as the reference's ``wh[:, 2H:]`` view
        # (BLAS packs either into the identical panels; the invariant
        # gufunc's reduction order is layout-independent). Copied fresh
        # each call: the optimizer updates wh in place.
        wh_g = bufs["wh_g"]
        wh_g[:] = wh[:, 2 * h:]

        hs = bufs["hs"]
        gates = bufs["gates"]
        rh = bufs["rh"]  # r * h_prev, reused by backward
        # Input projection: the reference cell's exact batched 3-D matmul —
        # a differently shaped GEMM over the same data (flat B*T rows,
        # or per-gate column blocks) is not bitwise safe in general
        # (M/N-dependent kernels reorder the K-reduction; small odd
        # shapes expose it).
        xp = bufs["xp"]
        np.matmul(x, wx, out=xp)  # (B, T, 3H), == reference x @ wx
        xp += b
        # One input-projection GEMM + two recurrent GEMMs per step,
        # matching the reference shapes exactly (the dead candidate
        # third of the full product cannot be skipped without changing
        # the z/r GEMM's shape, hence its rounding).
        obs.counter_add("nn/fused_gemms", 1 + 2 * steps)
        h_prev = bufs["zeros"]
        zr = bufs["zr"]  # reused [z, r] pre-activations
        gp = bufs["gp"]  # reused candidate pre-activation
        s2, t1 = bufs["s2"], bufs["t1"]
        rec = bufs["rec"]
        for t in range(steps):
            k = t if training else 0  # history slot
            recurrent_matmul(h_prev, wh, out=rec)
            np.add(rec[:, :2 * h], xp[:, t, :2 * h], out=zr)
            gate = gates[k]
            sigmoid(zr, out=gate[:, :2 * h], scratch=s2)      # z, r
            z = gate[:, :h]
            r = gate[:, h:2 * h]
            np.multiply(r, h_prev, out=rh[k])
            recurrent_matmul(rh[k], wh_g, out=gp)
            gp += xp[:, t, 2 * h:]
            g = np.tanh(gp, out=gate[:, 2 * h:])
            np.multiply(z, h_prev, out=hs[t])
            np.subtract(1.0, z, out=t1)        # (1 - z) * g
            np.multiply(t1, g, out=t1)
            hs[t] += t1
            h_prev = hs[t]
        if training:
            # Time-major input copy for the backward accumulation fill.
            xT = bufs["xT"]
            xT[:] = x.transpose(1, 0, 2)
            self._cache = (xT, hs, gates, rh)
        # Always a fresh copy: for singleton batch/steps the transpose
        # is already contiguous and ``ascontiguousarray`` would hand the
        # caller a *view into the pooled scratch* that the next forward
        # overwrites.
        out = np.empty((batch, steps, h))
        np.copyto(out, hs.transpose(1, 0, 2))
        return out

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        xT, hs, gates, rh = self._take_cache()
        steps, batch, in_dim = xT.shape
        h = self.units
        wx, wh = self.params["Wx"], self.params["Wh"]
        bufs = self._buffers(batch, steps, in_dim, True)
        # Contiguous pre-transposed weights: OpenBLAS's NoTrans path
        # beats its Trans path at these sizes; one copy per call buys
        # back the difference on every step's GEMM. Reassociates nothing
        # at BLAS-dispatched shapes and stays inside the documented
        # 1e-12 backward budget everywhere else.
        wh_zr_t = bufs["wh_zr_T"]
        np.copyto(wh_zr_t, wh[:, :2 * h].T)
        wh_g_t = bufs["wh_g_T"]
        np.copyto(wh_g_t, wh[:, 2 * h:].T)
        wxT3 = bufs["wxT3"]
        for k in range(3):
            wxT3[k] = wx[:, k * h:(k + 1) * h].T

        grad_out = grad_output.transpose(1, 0, 2)
        # Sequential part: per-step pre-activation gradients only,
        # written straight into the stacked [z, r, g] block buffer,
        # allocation-free (op order matches the reference term for term).
        dpres = bufs["dpres"]
        t1, t2 = bufs["t1"], bufs["t2"]
        dh, dhp = bufs["dh"], bufs["dhp"]
        dzb, dgb = bufs["dzb"], bufs["dgb"]
        drh, mm = bufs["drh"], bufs["mm"]
        dh_next = bufs["dh_next"]
        dh_next[:] = 0.0
        zeros_bh = bufs["zeros"]
        for t in range(steps - 1, -1, -1):
            gate = gates[t]
            z = gate[:, :h]
            r = gate[:, h:2 * h]
            g = gate[:, 2 * h:]
            h_prev = hs[t - 1] if t > 0 else zeros_bh

            np.add(grad_out[t], dh_next, out=dh)
            np.subtract(h_prev, g, out=t1)     # dz = dh * (h_prev - g)
            np.multiply(dh, t1, out=dzb)
            np.subtract(1.0, z, out=t1)        # dg = dh * (1 - z)
            np.multiply(dh, t1, out=dgb)
            np.multiply(dh, z, out=dhp)        # dh_prev = dh * z

            dpre = dpres[t]
            np.subtract(1.0, z, out=t1)        # dz_pre = dz * z*(1-z)
            np.multiply(z, t1, out=t1)
            np.multiply(dzb, t1, out=dpre[:, :h])
            np.multiply(g, g, out=t1)          # dg_pre = dg * (1-g^2)
            np.subtract(1.0, t1, out=t1)
            dg_pre = np.multiply(dgb, t1, out=dpre[:, 2 * h:])
            np.matmul(dg_pre, wh_g_t, out=drh)
            np.multiply(drh, r, out=t1)        # dh_prev += d_rh * r
            np.add(dhp, t1, out=dhp)
            np.multiply(drh, h_prev, out=t1)   # dr = d_rh * h_prev
            np.subtract(1.0, r, out=t2)        # dr_pre = dr * r*(1-r)
            np.multiply(r, t2, out=t2)
            np.multiply(t1, t2, out=dpre[:, h:2 * h])
            np.matmul(dpre[:, :2 * h], wh_zr_t, out=mm)
            np.add(dhp, mm, out=dh_next)

        # Cache-blocked accumulation (see repro.nn.fused): dWx and db
        # from one stacked GEMM against [x | 1]; the two dWh column
        # blocks contract h_{t-1} (resp. the forward-cached r * h_prev)
        # against strided views of the stacked pre-activation gradients
        # — BLAS packs those internally, no materialized copy.
        obs.counter_add("nn/fused_bptt_gemms", 4 + 2 * steps)
        dpre_flat = dpres.reshape(steps * batch, 3 * h)
        acc = bufs["acc"]
        acc3 = acc.reshape(steps, batch, in_dim + 1)
        acc3[..., :in_dim] = xT
        h_shift = bufs["h_shift"]
        h_shift[0] = 0.0
        h_shift[1:] = hs[:-1]
        R = np.matmul(acc.T, dpre_flat, out=bufs["accR"])
        self.grads["Wx"] += R[:in_dim]
        self.grads["b"] += R[in_dim]
        self.grads["Wh"][:, :2 * h] += \
            h_shift.reshape(steps * batch, h).T @ dpre_flat[:, :2 * h]
        self.grads["Wh"][:, 2 * h:] += \
            rh.reshape(steps * batch, h).T @ dpre_flat[:, 2 * h:]
        # dx per gate block: three (T*B, H) @ (H, F) GEMMs beat the wide
        # (T*B, 3H) @ (3H, F) at F << H. Reassociates the K-reduction
        # into three partials — backward budget, not bitwise.
        dxf, dxt = bufs["dxf"], bufs["dxt"]
        np.matmul(dpre_flat[:, :h], wxT3[0], out=dxf)
        for k in range(1, 3):
            np.matmul(dpre_flat[:, k * h:(k + 1) * h], wxT3[k], out=dxt)
            dxf += dxt
        dx = dxf.reshape(steps, batch, in_dim)
        out = np.empty((batch, steps, in_dim))  # never a pooled view
        np.copyto(out, dx.transpose(1, 0, 2))
        return [out]

    def __repr__(self) -> str:
        return f"GRULayer(units={self.units})"
