"""POD-LSTM emulation — the paper's primary contribution as a public API.

``PODLSTMEmulator`` composes the pieces end-to-end: POD compression of
snapshots, per-mode min-max scaling of the coefficients into
(-0.85, 0.85), windowed sequence-to-sequence training of a (searched or
manual) stacked LSTM, non-autoregressive forecasting, and linear
reconstruction back to physical fields.
"""

from repro.forecast.pipeline import PODCoefficientPipeline
from repro.forecast.pod_lstm import PODLSTMEmulator
from repro.forecast.posttraining import posttrain_architecture

__all__ = [
    "PODCoefficientPipeline",
    "PODLSTMEmulator",
    "posttrain_architecture",
]
