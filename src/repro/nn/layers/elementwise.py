"""Structural layers: Add (skip-connection merge), Identity, Activation.

The paper's search space merges a skip connection into the main path with
a sum operator, and "after each add operation, the ReLU activation
function was applied to the tensor" — ``AddLayer`` implements both in one
node.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import get_activation
from repro.nn.layers.base import Layer

__all__ = ["AddLayer", "ActivationLayer", "IdentityLayer"]


class AddLayer(Layer):
    """Sum of N same-shaped tensors, followed by an activation.

    Default activation is ReLU, matching the paper's post-add rule.
    """

    def __init__(self, activation="relu") -> None:
        super().__init__()
        self.activation = get_activation(activation)
        self._n_inputs = 0
        self._dim: int | None = None

    def build(self, input_dims: list[int], rng=None) -> None:
        if not input_dims:
            raise ValueError("AddLayer needs at least one input")
        if len(set(input_dims)) != 1:
            raise ValueError(
                f"AddLayer inputs must share a feature dim, got {input_dims}")
        self._n_inputs = len(input_dims)
        self._dim = input_dims[0]
        super().build(input_dims, rng)

    @property
    def output_dim(self) -> int:
        if self._dim is None:
            raise RuntimeError("AddLayer not built")
        return self._dim

    def forward(self, inputs, training: bool = False) -> np.ndarray:
        if len(inputs) != self._n_inputs:
            raise ValueError(
                f"built for {self._n_inputs} inputs, got {len(inputs)}")
        shapes = {x.shape for x in inputs}
        if len(shapes) != 1:
            raise ValueError(f"AddLayer inputs must match shapes, got {shapes}")
        total = inputs[0].copy()
        for x in inputs[1:]:
            total += x
        y = self.activation.forward(total)
        if training:
            self._cache = y
        return y

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        y = self._take_cache()
        grad = self.activation.backward(grad_output, y)
        # The sum routes the same gradient to each addend; the first gets
        # the array itself, the rest views would alias so we copy.
        return [grad] + [grad.copy() for _ in range(self._n_inputs - 1)]

    def __repr__(self) -> str:
        return f"AddLayer(activation={self.activation.name})"


class ActivationLayer(Layer):
    """Standalone elementwise activation node."""

    def __init__(self, activation) -> None:
        super().__init__()
        self.activation = get_activation(activation)
        self._dim: int | None = None

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError("ActivationLayer takes one input")
        self._dim = input_dims[0]
        super().build(input_dims, rng)

    @property
    def output_dim(self) -> int:
        if self._dim is None:
            raise RuntimeError("ActivationLayer not built")
        return self._dim

    def forward(self, inputs, training: bool = False) -> np.ndarray:
        x = self._check_single_input(inputs)
        y = self.activation.forward(x)
        if training:
            self._cache = y
        return y

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        y = self._take_cache()
        return [self.activation.backward(grad_output, y)]

    def __repr__(self) -> str:
        return f"ActivationLayer({self.activation.name})"


class IdentityLayer(Layer):
    """Pass-through node — the 'Identity' operation of the search space."""

    def __init__(self) -> None:
        super().__init__()
        self._dim: int | None = None

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError("IdentityLayer takes one input")
        self._dim = input_dims[0]
        super().build(input_dims, rng)

    @property
    def output_dim(self) -> int:
        if self._dim is None:
            raise RuntimeError("IdentityLayer not built")
        return self._dim

    def forward(self, inputs, training: bool = False) -> np.ndarray:
        x = self._check_single_input(inputs)
        return x

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        return [grad_output]
