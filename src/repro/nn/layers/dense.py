"""Time-distributed dense layer.

Applies ``y_t = act(x_t W + b)`` independently at every timestep — the
paper's projection layers for skip connections use exactly this with no
activation.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.nn.activations import get_activation
from repro.nn.initializers import glorot_uniform
from repro.nn.layers.base import Layer
from repro.utils.validation import check_positive_int

__all__ = ["DenseLayer"]


class DenseLayer(Layer):
    """Dense ``(B, T, F) -> (B, T, units)``.

    Parameters
    ----------
    units:
        Output feature dimension.
    activation:
        Activation name or instance; ``None`` = linear (paper's default
        for projection layers).
    """

    def __init__(self, units: int, activation=None) -> None:
        super().__init__()
        self.units = check_positive_int(units, name="units")
        self.activation = get_activation(activation)

    def build(self, input_dims: list[int], rng=None) -> None:
        if len(input_dims) != 1:
            raise ValueError(f"DenseLayer takes one input, got {len(input_dims)}")
        in_dim = check_positive_int(input_dims[0], name="input dim")
        self.add_param("W", glorot_uniform((in_dim, self.units), rng))
        self.add_param("b", np.zeros(self.units))
        super().build(input_dims, rng)

    @property
    def output_dim(self) -> int:
        return self.units

    def forward(self, inputs, training: bool = False) -> np.ndarray:
        x = self._check_single_input(inputs)
        obs.counter_add("nn/gemms")
        pre = x @ self.params["W"] + self.params["b"]
        y = self.activation.forward(pre)
        if training:
            self._cache = (x, y)
        return y

    def backward(self, grad_output: np.ndarray) -> list[np.ndarray]:
        x, y = self._take_cache()
        grad_pre = self.activation.backward(grad_output, y)
        b, t, f = x.shape
        x2 = x.reshape(b * t, f)
        g2 = grad_pre.reshape(b * t, self.units)
        self.grads["W"] += x2.T @ g2
        self.grads["b"] += g2.sum(axis=0)
        return [grad_pre @ self.params["W"].T]

    def __repr__(self) -> str:
        return f"DenseLayer(units={self.units}, activation={self.activation.name})"
