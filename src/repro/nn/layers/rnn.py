"""Simple (Elman) RNN layer with exact backpropagation through time.

``h_t = tanh(x_t Wx + h_{t-1} Wh + b)`` — the lightest recurrent cell in
the extended operation catalog (see :mod:`repro.nn.layers.gru`): the
one-gate case of :class:`~repro.nn.layers.recurrent.RecurrentLayer`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.detmath import recurrent_matmul
from repro.nn.layers.recurrent import RecurrentLayer

__all__ = ["SimpleRNNLayer"]


class SimpleRNNLayer(RecurrentLayer):
    """Elman RNN ``(B, T, F) -> (B, T, units)``, full sequences."""

    GATES = 1

    def _cell_buffers(self, batch: int, steps: int, training: bool) -> dict:
        h = self.units
        bufs = {"pre": np.empty((batch, h))}
        if training:
            bufs.update({
                "whT": np.empty((h, h)),
                "t1": np.empty((batch, h)),
                "t2": np.empty((batch, h)),
            })
        return bufs

    def _steps(self, bufs: dict, training: bool) -> tuple:
        wh = self.params["Wh"]
        xp, hs = bufs["xp"], bufs["hs"]
        h_prev = bufs["zeros"]
        pre = bufs["pre"]  # reused pre-activation buffer
        for t in range(hs.shape[0]):
            recurrent_matmul(h_prev, wh, out=pre)
            pre += xp[:, t, :]
            h_prev = np.tanh(pre, out=hs[t])
        return ()

    def _bptt(self, bufs: dict, grad_out: np.ndarray,
              hs: np.ndarray) -> None:
        # Contiguous pre-transposed weights (OpenBLAS's NoTrans path
        # beats its Trans path at these sizes; within the documented
        # 1e-12 backward budget at non-BLAS shapes).
        wh_t = bufs["whT"]
        np.copyto(wh_t, self.params["Wh"].T)
        dpres = bufs["dzs"]
        t1, t2 = bufs["t1"], bufs["t2"]
        dh_next = bufs["dh_next"]
        for t in range(hs.shape[0] - 1, -1, -1):
            np.add(grad_out[t], dh_next, out=t1)
            np.multiply(hs[t], hs[t], out=t2)  # dtanh = 1 - h^2
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=dpres[t])
            np.matmul(dpres[t], wh_t, out=dh_next)
