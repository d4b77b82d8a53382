"""Layer protocol.

All tensors flowing through the network are ``(batch, time, features)``;
the time dimension is never perturbed (paper Sec. III-A: "the second
dimension of a tensor that is transformed from input to output is kept
constant"), and every layer is causal in time: output step ``t`` reads
input steps ``<= t`` only, so a forecast may run a window prefix
(:func:`repro.nn.fused.causal_steps`). A layer:

* is **built** once against its input feature dimensions (allocating
  parameters with an explicit RNG),
* caches what ``backward`` needs only in a ``forward(training=True)``
  (single-use cache: one backward per training forward). An inference
  forward (``training=False``, the default) records nothing on the layer
  and writes only per-thread scratch, so one layer may serve inference
  on several threads at once; a ``backward`` with no training forward
  to consume raises ``RuntimeError``,
* accumulates parameter gradients in ``grads`` (zeroed by the trainer
  between steps via :meth:`zero_grads`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Layer"]


class Layer:
    """Base layer with parameter/gradient bookkeeping."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.built = False
        self._cache = None

    # -- construction ----------------------------------------------------
    def build(self, input_dims: list[int], rng=None) -> None:
        """Allocate parameters given the feature dim of each input."""
        self.built = True

    @property
    def output_dim(self) -> int:
        """Feature dimension of the output tensor (valid after build)."""
        raise NotImplementedError

    def add_param(self, name: str, value: np.ndarray) -> None:
        self.params[name] = np.ascontiguousarray(value, dtype=np.float64)
        self.grads[name] = np.zeros_like(self.params[name])

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    @property
    def n_parameters(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    # -- execution ---------------------------------------------------------
    def forward(self, inputs: list[np.ndarray], training: bool = False
                ) -> np.ndarray:
        """Compute the output from input tensors (each ``(B, T, F_i)``)."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        """Given dL/d(output), accumulate parameter grads and return
        dL/d(input_i) for every input of the latest training forward."""
        raise NotImplementedError

    def _take_cache(self):
        """Consume the cache of the latest training forward."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward needs a preceding "
                f"forward(training=True)")
        return cache

    # -- diagnostics -------------------------------------------------------
    def _check_single_input(self, inputs: list[np.ndarray]) -> np.ndarray:
        if len(inputs) != 1:
            raise ValueError(
                f"{type(self).__name__} expects exactly one input, "
                f"got {len(inputs)}")
        x = inputs[0]
        if x.ndim != 3:
            raise ValueError(
                f"{type(self).__name__} expects (batch, time, features), "
                f"got shape {x.shape}")
        return x

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
