"""Simple (Elman) RNN layer with exact backpropagation through time.

``h_t = tanh(x_t Wx + h_{t-1} Wh + b)`` — the lightest recurrent cell in
the extended operation catalog (see :mod:`repro.nn.layers.gru`).

Weight layout: ``Wx (F, H)``, ``Wh (H, H)``, ``b (H,)``. The kernel is
fused (:mod:`repro.nn.fused`) and held to the reference cell in
``tests/reference_cells.py``; with a single gate there is nothing to
stack, so the fusion is pure buffer reuse plus cache-blocked BPTT
accumulation.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.nn.detmath import recurrent_matmul
from repro.nn.fused import ScratchPool, ones_column
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.layers.base import Layer
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["SimpleRNNLayer"]


class SimpleRNNLayer(Layer):
    """Elman RNN ``(B, T, F) -> (B, T, units)``, full sequences."""

    def __init__(self, units: int) -> None:
        super().__init__()
        self.units = check_positive_int(units, name="units")
        self._pool = ScratchPool()

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError(
                f"SimpleRNNLayer takes one input, got {len(input_dims)}")
        in_dim = check_positive_int(input_dims[0], name="input dim")
        gen = as_generator(rng)
        self.add_param("Wx", glorot_uniform((in_dim, self.units), gen))
        self.add_param("Wh", orthogonal((self.units, self.units), gen))
        self.add_param("b", np.zeros(self.units))
        super().build(input_dims, rng)

    @property
    def output_dim(self) -> int:
        return self.units

    # ------------------------------------------------------------------
    # Fused kernels (shape rule and contract: repro.nn.fused).
    # ------------------------------------------------------------------
    def _buffers(self, batch: int, steps: int, in_dim: int,
                 training: bool) -> dict:
        units = self.units

        def build():
            bufs = {
                "hs": np.empty((steps, batch, units)),
                "xp": np.empty((batch, steps, units)),
                "pre": np.empty((batch, units)),
                "zeros": np.zeros((batch, units)),
            }
            if training:
                bufs.update({
                    "xT": np.empty((steps, batch, in_dim)),
                    "whT": np.empty((units, units)),
                    "wxT": np.empty((units, in_dim)),
                    "t1": np.empty((batch, units)),
                    "t2": np.empty((batch, units)),
                    "dh_next": np.empty((batch, units)),
                    "dpres": np.empty((steps, batch, units)),
                    "acc": ones_column(
                        np.empty((steps * batch, in_dim + 1 + units)),
                        in_dim),
                    "accR": np.empty((in_dim + 1 + units, units)),
                    "dxf": np.empty((steps * batch, in_dim)),
                })
            return bufs

        return self._pool.get((batch, steps, in_dim, training), build)

    def forward(self, inputs, training: bool = False) -> np.ndarray:
        x = self._check_single_input(inputs)
        batch, steps, in_dim = x.shape
        units = self.units
        wx, wh, b = self.params["Wx"], self.params["Wh"], self.params["b"]
        bufs = self._buffers(batch, steps, in_dim, training)
        hs = bufs["hs"]
        # Input projection: the reference cell's exact batched 3-D matmul —
        # a differently shaped GEMM over the same data is not bitwise
        # safe in general (M/N-dependent kernels reorder the
        # K-reduction; small odd shapes expose it).
        xp = bufs["xp"]
        np.matmul(x, wx, out=xp)  # (B, T, units), == reference x @ wx
        xp += b
        obs.counter_add("nn/fused_gemms", 1 + steps)
        h_prev = bufs["zeros"]
        pre = bufs["pre"]  # reused pre-activation buffer
        for t in range(steps):
            recurrent_matmul(h_prev, wh, out=pre)
            pre += xp[:, t, :]
            h_prev = np.tanh(pre, out=hs[t])
        if training:
            # Time-major input copy for the backward accumulation fill.
            xT = bufs["xT"]
            xT[:] = x.transpose(1, 0, 2)
            self._cache = (xT, hs)
        # Always a fresh copy: for singleton batch/steps the transpose
        # is already contiguous and ``ascontiguousarray`` would hand the
        # caller a *view into the pooled scratch* that the next forward
        # overwrites.
        out = np.empty((batch, steps, units))
        np.copyto(out, hs.transpose(1, 0, 2))
        return out

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        xT, hs = self._take_cache()
        steps, batch, in_dim = xT.shape
        units = self.units
        wx, wh = self.params["Wx"], self.params["Wh"]
        bufs = self._buffers(batch, steps, in_dim, True)
        # Contiguous pre-transposed weights (OpenBLAS's NoTrans path
        # beats its Trans path at these sizes; within the documented
        # 1e-12 backward budget at non-BLAS shapes).
        wh_t = bufs["whT"]
        np.copyto(wh_t, wh.T)
        wx_t = bufs["wxT"]
        np.copyto(wx_t, wx.T)
        grad_out = grad_output.transpose(1, 0, 2)
        dpres = bufs["dpres"]
        t1, t2 = bufs["t1"], bufs["t2"]
        dh_next = bufs["dh_next"]
        dh_next[:] = 0.0
        for t in range(steps - 1, -1, -1):
            np.add(grad_out[t], dh_next, out=t1)
            np.multiply(hs[t], hs[t], out=t2)  # dtanh = 1 - h^2
            np.subtract(1.0, t2, out=t2)
            np.multiply(t1, t2, out=dpres[t])
            np.matmul(dpres[t], wh_t, out=dh_next)

        # Cache-blocked accumulation (see repro.nn.fused): dWx, db, dWh
        # from one stacked GEMM against [x | 1 | h_{t-1}], dx from a
        # second.
        obs.counter_add("nn/fused_bptt_gemms", 2 + steps)
        dpre_flat = dpres.reshape(steps * batch, units)
        acc = bufs["acc"]
        acc3 = acc.reshape(steps, batch, in_dim + 1 + units)
        acc3[..., :in_dim] = xT
        acc3[0, :, in_dim + 1:] = 0.0
        acc3[1:, :, in_dim + 1:] = hs[:-1]
        R = np.matmul(acc.T, dpre_flat, out=bufs["accR"])
        self.grads["Wx"] += R[:in_dim]
        self.grads["b"] += R[in_dim]
        self.grads["Wh"] += R[in_dim + 1:]
        dxf = np.matmul(dpre_flat, wx_t, out=bufs["dxf"])
        dx = dxf.reshape(steps, batch, in_dim)
        out = np.empty((batch, steps, in_dim))  # never a pooled view
        np.copyto(out, dx.transpose(1, 0, 2))
        return [out]

    def __repr__(self) -> str:
        return f"SimpleRNNLayer(units={self.units})"
