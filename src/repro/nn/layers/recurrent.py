"""The skeleton the recurrent cells share: everything but the step.

LSTM, GRU and SimpleRNN (:mod:`repro.nn.layers.lstm` / ``gru`` /
``rnn``) differ only in their per-step computation. Each stacks ``G``
gate blocks of ``H = units`` columns along one wide axis, shared with
the reference cells in ``tests/reference_cells.py`` and with every
serialized artifact (:mod:`repro.nn.serialization`): ``Wx (F, G·H)``,
``Wh (H, G·H)``, ``b (G·H,)``. Initialization follows Keras:
Glorot-uniform input kernel, orthogonal recurrent kernel, zero bias.
Sequences are returned at every timestep (the search space is
sequence-to-sequence; paper Sec. IV-B).

:class:`RecurrentLayer` owns the parts around the step, written once:
the weights, the pooled workspace, the input projection ``x @ Wx + b``
hoisted out of the timestep loop, the training cache, the fresh output
array, and the backward's accumulation of ``dWx``/``db``/``dWh`` and
``dx``. A cell writes its gate count, its own scratch, its forward loop
(:meth:`RecurrentLayer._steps`) and its sequential BPTT
(:meth:`RecurrentLayer._bptt`). The per-step recurrence is an
irreducible loop; everything inside it is batched matrix algebra (the
window K = 8 keeps the loop short). The GEMM-shape rule and the
contract against the reference cells are :mod:`repro.nn.fused`'s.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.nn.fused import ScratchPool, ones_column
from repro.nn.initializers import glorot_uniform, orthogonal
from repro.nn.layers.base import Layer
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["RecurrentLayer"]


class RecurrentLayer(Layer):
    """Recurrent cell ``(B, T, F) -> (B, T, units)``, full sequences."""

    #: Gate blocks stacked along the wide axis (LSTM 4, GRU 3, RNN 1).
    GATES: int
    #: Recurrent GEMMs per timestep, in forward and in backward alike.
    STEP_GEMMS = 1

    def __init__(self, units: int) -> None:
        super().__init__()
        self.units = check_positive_int(units, name="units")
        self._pool = ScratchPool()

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError(
                f"{type(self).__name__} takes one input, got {len(input_dims)}")
        in_dim = check_positive_int(input_dims[0], name="input dim")
        gen = as_generator(rng)
        wide = self.GATES * self.units
        self.add_param("Wx", glorot_uniform((in_dim, wide), gen))
        self.add_param("Wh", orthogonal((self.units, wide), gen))
        self.add_param("b", self._initial_bias())
        super().build(input_dims, rng)

    def _initial_bias(self) -> np.ndarray:
        return np.zeros(self.GATES * self.units)

    @property
    def output_dim(self) -> int:
        return self.units

    # ------------------------------------------------------------------
    # Workspace (shape rule and contract: repro.nn.fused).
    # ------------------------------------------------------------------
    def _buffers(self, batch: int, steps: int, in_dim: int,
                 training: bool) -> dict:
        h, wide = self.units, self.GATES * self.units

        def build():
            bufs = {
                "hs": np.empty((steps, batch, h)),
                "xp": np.empty((batch, steps, wide)),
                "zeros": np.zeros((batch, h)),
            }
            if training:
                bufs.update({
                    "xT": np.empty((steps, batch, in_dim)),
                    "wxT": np.empty((self.GATES, h, in_dim)),
                    "dh_next": np.empty((batch, h)),
                    "dzs": np.empty((steps, batch, wide)),
                    "dxf": np.empty((steps * batch, in_dim)),
                    "dxt": np.empty((steps * batch, in_dim)),
                })
                bufs.update(self._accumulation_buffers(batch, steps, in_dim))
            bufs.update(self._cell_buffers(batch, steps, training))
            return bufs

        return self._pool.get((batch, steps, in_dim, training), build)

    def _cell_buffers(self, batch: int, steps: int, training: bool) -> dict:
        """The cell's own scratch. Only a training workspace keeps
        every step's history for backward; an inference one keeps one
        reused step of each."""
        raise NotImplementedError

    def _accumulation_buffers(self, batch: int, steps: int,
                              in_dim: int) -> dict:
        # Stacked accumulation operand [x | 1 | h_{t-1}]: one GEMM
        # yields dWx, db and dWh together. The ones column is written
        # here, once; nothing else touches it.
        width = in_dim + 1 + self.units
        return {
            "acc": ones_column(np.empty((steps * batch, width)), in_dim),
            "accR": np.empty((width, self.GATES * self.units)),
        }

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, inputs, training: bool = False) -> np.ndarray:
        x = self._check_single_input(inputs)
        batch, steps, in_dim = x.shape
        bufs = self._buffers(batch, steps, in_dim, training)
        # Input projection for all timesteps, hoisted out of the loop.
        # This is the reference cell's exact call (the batched 3-D matmul):
        # a differently shaped GEMM over the same data — flat (B*T)
        # rows, or one per-gate column block — is NOT bitwise safe in
        # general (BLAS and the batch-invariant gufunc both pick
        # M/N-dependent kernels whose K-reduction order differs; small
        # odd shapes expose it). Bitwise identity is bought with GEMMs
        # of identical shape and cheap data-movement afterwards.
        xp = bufs["xp"]
        np.matmul(x, self.params["Wx"], out=xp)  # == reference x @ wx
        xp += self.params["b"]
        obs.counter_add("nn/fused_gemms", 1 + self.STEP_GEMMS * steps)
        hs = bufs["hs"]
        state = self._steps(bufs, training)
        if training:
            # Time-major input copy for the backward accumulation fill.
            xT = bufs["xT"]
            xT[:] = x.transpose(1, 0, 2)
            self._cache = (xT, hs, *state)
        # Always a fresh copy: for singleton batch/steps the transpose
        # is already contiguous and ``ascontiguousarray`` would hand the
        # caller a *view into the pooled scratch* that the next forward
        # overwrites.
        out = np.empty((batch, steps, self.units))
        np.copyto(out, hs.transpose(1, 0, 2))
        return out

    def _steps(self, bufs: dict, training: bool) -> tuple:
        """Run the recurrence over the projected input ``bufs["xp"]``,
        writing every step's hidden state into ``bufs["hs"]``; return
        the cell state backward reads (cached after ``xT`` and ``hs``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        xT, hs, *state = self._take_cache()
        steps, batch, in_dim = xT.shape
        h = self.units
        bufs = self._buffers(batch, steps, in_dim, True)
        # Contiguous per-gate transposes of Wx for the dx GEMMs below.
        wx, wxT = self.params["Wx"], bufs["wxT"]
        for k in range(self.GATES):
            wxT[k] = wx[:, k * h:(k + 1) * h].T
        bufs["dh_next"][:] = 0.0
        self._bptt(bufs, grad_output.transpose(1, 0, 2), hs, *state)

        # Cache-blocked accumulation (see repro.nn.fused): the weight
        # gradients drop out of stacked (T*B, .) GEMMs that reassociate
        # the t-reduction (<= 1e-12 from the reference cell).
        dz_flat = bufs["dzs"].reshape(steps * batch, self.GATES * h)
        gemms = self._accumulate(bufs, dz_flat, xT, hs, *state)
        # One dx product per gate block (below), the accumulation's and
        # the per-step recurrent products.
        obs.counter_add("nn/fused_bptt_gemms",
                        self.GATES + gemms + self.STEP_GEMMS * steps)
        # dx per gate block: (T*B, H) @ (H, F) runs ~20% faster than the
        # wide (T*B, G*H) @ (G*H, F) at F << H (the wide GEMM is
        # bandwidth-bound on its skinny output). Reassociates the
        # K-reduction into G partials — backward budget, not bitwise.
        dxf, dxt = bufs["dxf"], bufs["dxt"]
        np.matmul(dz_flat[:, :h], wxT[0], out=dxf)
        for k in range(1, self.GATES):
            np.matmul(dz_flat[:, k * h:(k + 1) * h], wxT[k], out=dxt)
            dxf += dxt
        dx = dxf.reshape(steps, batch, in_dim)
        out = np.empty((batch, steps, in_dim))  # never a pooled view
        np.copyto(out, dx.transpose(1, 0, 2))
        return [out]

    def _bptt(self, bufs: dict, grad_out: np.ndarray, hs: np.ndarray,
              *state) -> None:
        """Sequential part of backward: write every step's
        pre-activation gradients into ``bufs["dzs"]`` (T, B, G·H), given
        the time-major output gradient and the cached states.
        ``bufs["dh_next"]`` starts zeroed."""
        raise NotImplementedError

    def _accumulate(self, bufs: dict, dz_flat: np.ndarray, xT: np.ndarray,
                    hs: np.ndarray, *state) -> int:
        """Add ``dWx``, ``db`` and ``dWh`` into ``grads``; return the
        number of GEMMs issued."""
        steps, batch, in_dim = xT.shape
        acc = bufs["acc"]  # (T*B, F+1+H), ones column prebuilt
        acc3 = acc.reshape(steps, batch, in_dim + 1 + self.units)
        acc3[..., :in_dim] = xT
        acc3[0, :, in_dim + 1:] = 0.0          # h_{-1} = 0
        acc3[1:, :, in_dim + 1:] = hs[:-1]
        R = np.matmul(acc.T, dz_flat, out=bufs["accR"])
        self.grads["Wx"] += R[:in_dim]
        self.grads["b"] += R[in_dim]
        self.grads["Wh"] += R[in_dim + 1:]
        return 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(units={self.units})"
