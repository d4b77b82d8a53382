"""The Adam optimizer and global-norm gradient clipping.

The paper trains with ADAM at learning rate 0.001 (Sec. IV); those are the
defaults here. State is keyed by parameter identity so an optimizer can be
re-attached to the same network across epochs. Updates are in place.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam", "clip_gradients"]


def clip_gradients(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clipping norm. LSTM BPTT occasionally spikes; clipping
    keeps mutated deep architectures from diverging during short searches.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam (Kingma & Ba 2014) with bias correction."""

    def __init__(self, learning_rate: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        if not learning_rate > 0:
            raise ValueError(
                f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def step(self, params_and_grads) -> None:
        """Apply one update. ``params_and_grads`` yields (param, grad)."""
        for param, grad in params_and_grads:
            key = id(param)
            m = self._m.setdefault(key, np.zeros_like(param))
            v = self._v.setdefault(key, np.zeros_like(param))
            t = self._t.get(key, 0) + 1
            self._t[key] = t
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat)
                                                   + self.epsilon)
