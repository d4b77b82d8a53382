"""GRU layer with exact backpropagation through time.

Extension beyond the paper's LSTM-only space: the paper's related-work
discussion (Ororbia et al.) and its future-work section motivate searching
over *hybrid* memory cells; adding GRU (and SimpleRNN) operations to the
catalog realizes that. Cell equations (update gate ``z``, reset gate
``r``), gates stacked ``[z, r, g]`` along the wide axis:

.. code-block:: text

    z = sigm(x Wz + h Uz + bz)
    r = sigm(x Wr + h Ur + br)
    g = tanh(x Wg + (r * h) Ug + bg)
    h' = z * h + (1 - z) * g

The candidate block contracts ``r * h`` rather than ``h``, so the GRU
runs two recurrent GEMMs per step and its ``dWh`` cannot join the
stacked ``[x | 1 | h_{t-1}]`` accumulation of
:class:`~repro.nn.layers.recurrent.RecurrentLayer`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.detmath import recurrent_matmul
from repro.nn.fused import ones_column
from repro.nn.layers.recurrent import RecurrentLayer

__all__ = ["GRULayer"]


class GRULayer(RecurrentLayer):
    """GRU ``(B, T, F) -> (B, T, units)``, returning full sequences."""

    GATES = 3
    # The full [z, r, g] product, then the candidate's (r * h) @ Ug: the
    # dead candidate third of the first cannot be skipped without
    # changing the z/r GEMM's shape, hence its rounding.
    STEP_GEMMS = 2

    def _cell_buffers(self, batch: int, steps: int, training: bool) -> dict:
        h = self.units
        # Backward reads every step's gates and r * h_prev.
        kept = steps if training else 1
        bufs = {
            "gates": np.empty((kept, batch, 3 * h)),
            "rh": np.empty((kept, batch, h)),
            "wh_g": np.empty((h, h)),
            "zr": np.empty((batch, 2 * h)),
            "rec": np.empty((batch, 3 * h)),
            "gp": np.empty((batch, h)),
            "s2": np.empty((batch, 2 * h)),
            "t1": np.empty((batch, h)),
        }
        if training:
            bufs.update({
                "wh_zr_T": np.empty((2 * h, h)),
                "wh_g_T": np.empty((h, h)),
                "t2": np.empty((batch, h)),
                "dh": np.empty((batch, h)),
                "dhp": np.empty((batch, h)),
                "dzb": np.empty((batch, h)),
                "dgb": np.empty((batch, h)),
                "drh": np.empty((batch, h)),
                "mm": np.empty((batch, h)),
            })
        return bufs

    def _accumulation_buffers(self, batch: int, steps: int,
                              in_dim: int) -> dict:
        return {
            "acc": ones_column(np.empty((steps * batch, in_dim + 1)), in_dim),
            "accR": np.empty((in_dim + 1, 3 * self.units)),
            "h_shift": np.empty((steps, batch, self.units)),
        }

    def _steps(self, bufs: dict, training: bool) -> tuple:
        h = self.units
        wh = self.params["Wh"]
        # Contiguous copy of the candidate block, once per call: same
        # GEMM shape and values as the reference's ``wh[:, 2H:]`` view
        # (BLAS packs either into the identical panels; the invariant
        # gufunc's reduction order is layout-independent). Copied fresh
        # each call: the optimizer updates wh in place.
        wh_g = bufs["wh_g"]
        wh_g[:] = wh[:, 2 * h:]
        xp, hs = bufs["xp"], bufs["hs"]
        gates = bufs["gates"]
        rh = bufs["rh"]  # r * h_prev, reused by backward
        h_prev = bufs["zeros"]
        zr = bufs["zr"]  # reused [z, r] pre-activations
        gp = bufs["gp"]  # reused candidate pre-activation
        s2, t1 = bufs["s2"], bufs["t1"]
        rec = bufs["rec"]
        for t in range(hs.shape[0]):
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
        return gates, rh

    def _bptt(self, bufs: dict, grad_out: np.ndarray, hs: np.ndarray,
              gates: np.ndarray, rh: np.ndarray) -> None:
        h = self.units
        wh = self.params["Wh"]
        # Contiguous pre-transposed weights: OpenBLAS's NoTrans path
        # beats its Trans path at these sizes; one copy per call buys
        # back the difference on every step's GEMM. Reassociates nothing
        # at BLAS-dispatched shapes and stays inside the documented
        # 1e-12 backward budget everywhere else.
        wh_zr_t = bufs["wh_zr_T"]
        np.copyto(wh_zr_t, wh[:, :2 * h].T)
        wh_g_t = bufs["wh_g_T"]
        np.copyto(wh_g_t, wh[:, 2 * h:].T)
        # Per-step pre-activation gradients, written straight into the
        # stacked [z, r, g] block buffer (op order matches the reference
        # term for term).
        dpres = bufs["dzs"]
        t1, t2 = bufs["t1"], bufs["t2"]
        dh, dhp = bufs["dh"], bufs["dhp"]
        dzb, dgb = bufs["dzb"], bufs["dgb"]
        drh, mm = bufs["drh"], bufs["mm"]
        dh_next = bufs["dh_next"]
        zeros_bh = bufs["zeros"]
        for t in range(hs.shape[0] - 1, -1, -1):
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

    def _accumulate(self, bufs: dict, dz_flat: np.ndarray, xT: np.ndarray,
                    hs: np.ndarray, gates: np.ndarray, rh: np.ndarray) -> int:
        # dWx and db from one stacked GEMM against [x | 1]; the two dWh
        # column blocks contract h_{t-1} (resp. the forward-cached
        # r * h_prev) against strided views of the stacked pre-activation
        # gradients — BLAS packs those internally, no materialized copy.
        steps, batch, in_dim = xT.shape
        h = self.units
        acc = bufs["acc"]
        acc.reshape(steps, batch, in_dim + 1)[..., :in_dim] = xT
        h_shift = bufs["h_shift"]
        h_shift[0] = 0.0
        h_shift[1:] = hs[:-1]
        R = np.matmul(acc.T, dz_flat, out=bufs["accR"])
        self.grads["Wx"] += R[:in_dim]
        self.grads["b"] += R[in_dim]
        self.grads["Wh"][:, :2 * h] += \
            h_shift.reshape(steps * batch, h).T @ dz_flat[:, :2 * h]
        self.grads["Wh"][:, 2 * h:] += \
            rh.reshape(steps * batch, h).T @ dz_flat[:, 2 * h:]
        return 3
