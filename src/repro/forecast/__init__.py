"""POD-LSTM emulation — the paper's primary contribution as a public API.

``PODLSTMEmulator`` composes the pieces end-to-end: POD compression of
snapshots, per-mode coefficient standardization, windowed sequence-to-
sequence training of a (searched or manual) stacked LSTM, non-
autoregressive forecasting, and linear reconstruction back to physical
fields.
"""

from repro.forecast.scaling import StandardScaler
from repro.forecast.pipeline import PODCoefficientPipeline
from repro.forecast.pod_lstm import PODLSTMEmulator
from repro.forecast.posttraining import posttrain_architecture

__all__ = [
    "StandardScaler",
    "PODCoefficientPipeline",
    "PODLSTMEmulator",
    "posttrain_architecture",
]
