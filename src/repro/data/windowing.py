"""Windowed sequence-to-sequence example extraction.

The paper (Sec. II-B): from ``Ns`` training snapshots of POD coefficients,
"we choose every subinterval of width 2K as an example, where K snapshots
are the input and K snapshots are the output", then randomly sample 80 %
of examples for training and keep 20 % for validation. Every subinterval
is taken, so consecutive examples start one step apart: the paper's
Ns = 427 and K = 8 give 412 examples (DESIGN.md section 1 reconciles
this with the 1,111 the paper reports).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["WindowedExamples", "make_windowed_examples",
           "train_validation_split"]


@dataclass(frozen=True)
class WindowedExamples:
    """Paired input/output windows.

    Attributes
    ----------
    inputs:
        Shape ``(n_examples, K, n_features)``.
    outputs:
        Shape ``(n_examples, K, n_features)`` — the following K steps.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.shape != self.outputs.shape:
            raise ValueError(
                f"inputs {self.inputs.shape} and outputs "
                f"{self.outputs.shape} must have identical shapes")
        if self.inputs.ndim != 3:
            raise ValueError(
                f"expected 3-D (examples, K, features), got {self.inputs.ndim}-D")

    @property
    def n_examples(self) -> int:
        return self.inputs.shape[0]

    @property
    def window(self) -> int:
        return self.inputs.shape[1]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[2]

    def subset(self, indices) -> "WindowedExamples":
        idx = np.asarray(indices, dtype=np.int64)
        return WindowedExamples(self.inputs[idx], self.outputs[idx])


def make_windowed_examples(coefficients: np.ndarray,
                           window: int) -> WindowedExamples:
    """Slide a ``2*window`` subinterval one step at a time over a
    coefficient series.

    Parameters
    ----------
    coefficients:
        POD coefficient matrix ``A`` of shape ``(n_features, n_time)``
        (rows = modes, columns = time), as produced by
        :func:`repro.pod.project_coefficients`.
    window:
        K — the input length and the forecast length.
    """
    coeff = check_matrix(coefficients, name="coefficients")
    window = check_positive_int(window, name="window")
    n_time = coeff.shape[1]
    if n_time < 2 * window:
        raise ValueError(
            f"need at least 2*window={2 * window} time steps, got {n_time}")
    starts = range(n_time - 2 * window + 1)
    # (time, features) layout for the sequence models.
    series = np.ascontiguousarray(coeff.T)
    inputs = np.stack([series[s:s + window] for s in starts])
    outputs = np.stack([series[s + window:s + 2 * window] for s in starts])
    return WindowedExamples(inputs, outputs)


def train_validation_split(examples: WindowedExamples,
                           *, train_fraction: float = 0.8,
                           rng=None) -> tuple[WindowedExamples, WindowedExamples]:
    """Random 80/20 split of examples (paper Sec. II-B).

    Both sides are guaranteed non-empty, so ``n_examples`` must be at
    least 2 — with one example the old clamping silently produced an
    empty training set.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(
            f"train_fraction must be in (0, 1), got {train_fraction}")
    gen = as_generator(rng)
    n = examples.n_examples
    if n < 2:
        raise ValueError(
            f"need at least 2 examples to split into non-empty train and "
            f"validation sets, got {n}")
    perm = gen.permutation(n)
    n_train = max(1, int(round(train_fraction * n)))
    n_train = min(n_train, n - 1)
    return examples.subset(perm[:n_train]), examples.subset(perm[n_train:])
