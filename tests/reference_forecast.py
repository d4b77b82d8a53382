"""Per-lead forecast oracle: the whole-window path, kept verbatim.

``PODLSTMEmulator`` forecasts every requested lead from one pass over a
causal prefix of each window (:func:`repro.nn.fused.causal_steps`). This
module keeps the path it replaced, one lead per call: transform, window,
predict all ``K`` steps of every window in 256-row chunks, one after
another on the calling thread, keep output position ``h - 1``, un-scale,
and reconstruct with the mean added as a separate array. The lead tests
in tests/test_forecast_pod_lstm.py hold the emulator to it byte for
byte.
"""

from __future__ import annotations

import numpy as np


def reference_coefficient_series(emulator, snapshots, horizon: int):
    """``(times, predicted, actual)`` of lead ``horizon``, unscaled."""
    pipeline = emulator.pipeline
    k = pipeline.window
    scaled = pipeline.transform(snapshots)
    examples = pipeline.windows(scaled)
    inputs = np.asarray(examples.inputs, dtype=np.float64)
    preds = np.concatenate(
        [emulator.network.forward(inputs[s:s + 256])
         for s in range(0, len(inputs), 256)], axis=0)
    n = examples.n_examples
    times = np.arange(n) + k + (horizon - 1)
    pred_scaled = preds[:, horizon - 1, :].T
    actual_scaled = examples.outputs[:, horizon - 1, :].T
    return (times, pipeline.inverse(pred_scaled),
            pipeline.inverse(actual_scaled))


def reference_fields(emulator, snapshots, horizon: int):
    """``(times, fields)`` of lead ``horizon``."""
    times, pred, _ = reference_coefficient_series(emulator, snapshots,
                                                  horizon)
    return times, reference_reconstruct(emulator, pred)


def reference_reconstruct(emulator, coefficients):
    """Physical fields ``psi A``, then ``+ mean`` as a second array."""
    basis = emulator.pipeline.basis
    fields = basis.modes @ coefficients
    return fields + basis.stats.mean[:, None]
