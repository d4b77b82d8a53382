"""Shared machinery and rules of the fused recurrent kernels.

The recurrent layers (:mod:`repro.nn.layers.lstm` / ``gru`` / ``rnn``)
each run one kernel, written for the training hot path. The input
projection ``x @ Wx + b`` for the whole sequence is hoisted out of the
timestep loop, gate activations are evaluated in one ufunc pass per
nonlinearity over contiguous gate blocks, per-step buffers are
preallocated once per shape (:class:`ScratchPool`), and BPTT
weight-gradient accumulation is cache-blocked: the sequential part of
backward only materializes the per-step pre-activation gradients, after
which ``dWx``/``dWh``/``db``/``dx`` each fall out of a *single* stacked
``(T·B, ·)`` GEMM instead of ``T`` small ones.

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

Contract (enforced by tests/test_fused_differential.py against the
reference cells): forward is **bitwise identical**, with and without
:func:`repro.nn.detmath.batch_invariant`; backward gradients agree to a
documented ``1e-12`` max-abs-diff (the stacked GEMMs reassociate the
reduction over timesteps, which IEEE addition does not commute with —
everything else is the same arithmetic in the same order).
"""

from __future__ import annotations

__all__ = ["ScratchPool"]


class ScratchPool:
    """Reusable per-layer workspace for the fused kernels.

    On a steady-shape workload (training loops, benchmark reps) freshly
    ``np.empty``-ing the forward/backward buffers every call costs more
    in page faults than the gate math itself — roughly a third of the
    LSTM hot path at ``(B, T, H) = (64, 16, 64)``. The pool hands back
    the same dict of arrays as long as the problem shape key is
    unchanged and rebuilds it when the shape changes (e.g. the last
    partial batch of an epoch).

    Not thread-safe by design: a pool belongs to one layer instance, and
    a layer's forward/backward is never entered concurrently (a network
    runs its nodes one at a time). Pickling a layer — e.g. shipping a
    candidate to a NAS worker process — deliberately drops the buffers:
    they are derived state, and the worker's shapes may differ.
    """

    __slots__ = ("_key", "_bufs")

    def __init__(self) -> None:
        self._key = None
        self._bufs = None

    def get(self, key, build):
        """Return the buffer dict for ``key``, calling ``build()`` only
        when the previous call had a different key (or there was none).

        The old set is released before ``build()`` runs, so the pool
        never holds two full workspaces at once.
        """
        if self._key != key:
            self._key = self._bufs = None
            self._bufs = build()
            self._key = key
        return self._bufs

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
