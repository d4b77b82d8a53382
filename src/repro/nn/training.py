"""Mini-batch training loop.

Matches the paper's training protocol (Sec. IV): batch size 64, learning
rate 0.001, Adam, MSE loss, R^2 on held-out validation data as the
reported metric; 20 epochs during the search, 100 during post-training.
Every epoch visits the training examples in a fresh random order, and
each batch's gradients are clipped to a global L2 norm of
:data:`CLIP_NORM`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn.losses import MeanSquaredError
from repro.nn.metrics import r2_score
from repro.nn.model import Network
from repro.nn.optimizers import Adam, clip_gradients
from repro.utils.rng import as_generator

__all__ = ["CLIP_NORM", "History", "Trainer"]

#: Global gradient-norm ceiling applied to every batch: it guards randomly
#: mutated deep stacks against exploding BPTT gradients.
CLIP_NORM = 5.0


@dataclass
class History:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_r2: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)

    @property
    def is_empty(self) -> bool:
        """True when no epoch ever ran (e.g. ``Trainer(epochs=0)``)."""
        return not self.val_r2

    @property
    def best_val_r2(self) -> float:
        if not self.val_r2:
            raise ValueError(
                "best_val_r2 is undefined on an empty history: no epoch "
                "ever ran (Trainer(epochs=0)?); check History.is_empty")
        return max(self.val_r2)

    @property
    def final_val_r2(self) -> float:
        if not self.val_r2:
            raise ValueError(
                "final_val_r2 is undefined on an empty history: no epoch "
                "ever ran (Trainer(epochs=0)?); check History.is_empty")
        return self.val_r2[-1]


@dataclass
class Trainer:
    """Mini-batch Adam trainer for :class:`~repro.nn.model.Network`.

    The paper's protocol with its three settings: ``batch_size``,
    ``learning_rate`` and ``epochs``. Training always runs all
    ``epochs``, shuffling each one.
    """

    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 20

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")

    def fit(self, model: Network, x_train: np.ndarray, y_train: np.ndarray,
            x_val: np.ndarray | None = None, y_val: np.ndarray | None = None,
            rng=None) -> History:
        """Train ``model``; returns the epoch history.

        ``x_*``/``y_*`` are ``(n, T, F)`` windowed example tensors. If no
        validation set is given, validation entries reuse training data
        (discouraged; search rewards must be held-out, per the paper).
        """
        x_train = np.asarray(x_train, dtype=np.float64)
        y_train = np.asarray(y_train, dtype=np.float64)
        if x_train.shape[0] != y_train.shape[0]:
            raise ValueError(
                f"x_train has {x_train.shape[0]} examples but y_train has "
                f"{y_train.shape[0]}")
        if x_train.shape[0] == 0:
            raise ValueError("cannot train on zero examples")
        if (x_val is None) != (y_val is None):
            raise ValueError("provide both x_val and y_val or neither")
        if x_val is None:
            x_val, y_val = x_train, y_train

        gen = as_generator(rng)
        loss_fn = MeanSquaredError()
        optimizer = Adam(learning_rate=self.learning_rate)
        history = History()
        n = x_train.shape[0]

        for _ in range(self.epochs):
            epoch_scope = obs.scope("train/epoch")
            with epoch_scope:
                order = gen.permutation(n)
                epoch_loss = 0.0
                for start in range(0, n, self.batch_size):
                    with obs.scope("batch"):
                        idx = order[start:start + self.batch_size]
                        xb, yb = x_train[idx], y_train[idx]
                        pred = model.forward(xb, training=True)
                        batch_loss = loss_fn.value(pred, yb)
                        model.zero_grads()
                        model.backward(loss_fn.gradient(pred, yb))
                        grads = [g for _, g in
                                 model.parameters_and_gradients()]
                        clip_gradients(grads, CLIP_NORM)
                        optimizer.step(model.parameters_and_gradients())
                        epoch_loss += batch_loss * len(idx)
                history.train_loss.append(epoch_loss / n)

                with obs.scope("validate"):
                    val_pred = model.predict(x_val,
                                             batch_size=4 * self.batch_size)
                    history.val_loss.append(loss_fn.value(val_pred, y_val))
                    history.val_r2.append(r2_score(y_val, val_pred))
            if obs.enabled():
                obs.counter_add("train/epochs")
                obs.counter_add("train/examples", n)
                obs.gauge_set("train/examples_per_sec",
                              n / max(epoch_scope.elapsed_s, 1e-12))
        return history
