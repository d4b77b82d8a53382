"""Shared machinery and rules of the fused recurrent kernels.

The recurrent layers run one kernel each, written for the training hot
path: the skeleton :class:`~repro.nn.layers.recurrent.RecurrentLayer`
around the cell's own step and BPTT loops (:mod:`repro.nn.layers.lstm` /
``gru`` / ``rnn``). The input projection ``x @ Wx + b`` for the whole
sequence is hoisted out of the timestep loop, gate activations are
evaluated in one ufunc pass per nonlinearity over contiguous gate
blocks, per-step buffers are preallocated once per shape
(:class:`ScratchPool`), and BPTT weight-gradient accumulation is
cache-blocked: the sequential part of backward only materializes the
per-step pre-activation gradients, after which ``dWx``/``dWh``/``db``
and ``dx`` fall out of stacked ``(T·B, ·)`` GEMMs instead of ``T``
small ones.

Training and inference run the same per-step loop. Only a
``training=True`` forward keeps what backward reads — every step's gate,
cell and ``tanh(c)`` (LSTM) or gate and ``r * h`` (GRU) history and the
time-major input copy — and only it builds the backward buffers; an
inference forward reuses one step's slot of each and records nothing on
the layer, so threads may share a layer (:class:`ScratchPool` holds one
workspace per thread).

Each kernel is held to a **reference cell** — one small
GEMM/elementwise expression per quantity per timestep, written for
auditability — kept as the differential suite's oracle in
``tests/reference_cells.py``.

One rule bounds what the forward fusion may restructure: every GEMM it
issues has the **same shape as the reference cell's** (the hoisted
projection is the same batched ``(B)×(T,F)@(F,·)`` matmul; the recurrent
products are the same wide per-step GEMMs), with contiguity obtained by
data-movement copies afterwards. Differently *shaped* GEMMs over the
same data are not bitwise-equal in general — BLAS picks M/N-dependent
kernels whose K-reduction order differs, and the batch-invariant
gufunc's SIMD remainder reorders odd-K accumulation — whereas same-shape
calls on differently-strided operands are (BLAS packs its operands; the
gufunc's reduction order is layout-independent).

One measured exception lets a forecast run a window *prefix*
(:func:`causal_steps`). The input projections and dense layers contract
``(B, T, F) @ (F, N)``, which NumPy evaluates as ``B`` separate
per-example ``(T, F) @ (F, N)`` GEMMs. Cutting ``T`` to a prefix keeps
the bits of the prefix rows when ``T >= 2``, ``N`` is a multiple of 4
and the whole-window product ``T·F·N`` stays within
:data:`PREFIX_MAX_MACS` — measured byte-equal on x86-64 OpenBLAS for
every prefix ``T = 2..15`` of a 16-step window, 21 widths ``F`` from 1
to 200 and every multiple-of-4 ``N`` up to 384 inside that bound.
Outside it the rows differ:

* ``T = 1``: NumPy sends a one-row product to GEMV;
* ``N ≡ 1, 2, 3 (mod 8)`` with ``F >= 16`` (``F >= 8`` at ``N = 1``):
  a trailing block of fewer than 4 rows takes another kernel;
* a whole-window product above the bound, with a prefix below it:
  OpenBLAS moves the prefix to its small-matrix kernel;
* flattened ``(B·T, F)`` rows, whose M-dependent blocking also
  differed in 3 of 72 probed shapes at ``M >= 1,024``.

Contract (enforced by tests/test_fused_differential.py against the
reference cells): forward is **bitwise identical**, with and without
:func:`repro.nn.detmath.batch_invariant`; backward gradients agree to a
documented ``1e-12`` max-abs-diff (the stacked GEMMs reassociate the
reduction over timesteps, which IEEE addition does not commute with —
everything else is the same arithmetic in the same order).
"""

from __future__ import annotations

import threading

__all__ = ["PREFIX_MAX_MACS", "ScratchPool", "causal_steps"]

#: Largest whole-window per-example product ``T·F·N`` (multiply-adds)
#: for which a window prefix keeps its rows' bits: OpenBLAS routes
#: products up to 10^6 to its small-matrix kernel, so a window above it
#: and a prefix below it run different kernels.
PREFIX_MAX_MACS = 10**6


class ScratchPool:
    """Reusable per-layer workspace for the fused kernels.

    On a steady-shape workload (training loops, benchmark reps) freshly
    ``np.empty``-ing the forward/backward buffers every call costs more
    in page faults than the gate math itself — roughly a third of the
    LSTM hot path at ``(B, T, H) = (64, 16, 64)``. The pool hands back
    the same dict of arrays as long as the workspace key is unchanged
    and rebuilds it when the key changes (e.g. the last partial batch of
    an epoch, or a switch between training and inference workspaces).

    One workspace **per thread**: the key and buffers live in a
    ``threading.local``, so inference forwards of one layer may run on
    several threads at once (:meth:`repro.nn.model.Network.predict`),
    each in its own buffers. A thread's workspace dies with the thread.
    Pickling a layer — e.g. shipping a candidate to a NAS worker process
    — deliberately drops the buffers: they are derived state, and the
    worker's shapes may differ.
    """

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def get(self, key, build):
        """Return the calling thread's buffer dict for ``key``, calling
        ``build()`` only when that thread's previous call had a
        different key (or there was none).

        The old set is released before ``build()`` runs, so the pool
        never holds two full workspaces for one thread at once.
        """
        local = self._local
        if getattr(local, "key", None) != key:
            local.key = local.bufs = None
            local.bufs = build()
            local.key = key
        return local.bufs

    def __reduce__(self):
        return (type(self), ())


def ones_column(array, column: int):
    """Set one column of a 2-D buffer to 1.0 and return the buffer.

    Builder helper for the stacked-accumulation operand ``[x | 1 | h]``
    of the fused backward: contracting a ones column against the
    pre-activation gradients folds the bias gradient into the same GEMM
    that produces the weight gradients.
    """
    array[:, column] = 1.0
    return array


def causal_steps(network, lead: int, window: int) -> int:
    """Input steps per window whose forward pass gives output position
    ``lead - 1`` the bits of the whole ``window``-step pass.

    Every layer is causal in time (:class:`~repro.nn.layers.base.Layer`),
    so position ``lead - 1`` reads only the first ``lead`` steps. The
    prefix exception in the module docstring needs at least two steps,
    and a network whose every weight matrix ``(F, N)`` has ``N`` a
    multiple of 4 and ``window·F·N <= PREFIX_MAX_MACS`` — true of every
    network the search space builds from its default operations and of
    the manual LSTMs up to width
    120 at ``window = 8``. Any other network runs the whole window. (The
    check is conservative: it also bounds the recurrent kernels, whose
    per-step products a prefix does not reshape.)
    """
    for param, _ in network.parameters_and_gradients():
        if param.ndim == 2 and (
                param.shape[1] % 4
                or window * param.shape[0] * param.shape[1]
                > PREFIX_MAX_MACS):
            return window
    return min(window, max(lead, 2))
