"""The POD-LSTM emulator (paper Fig. 1), end to end.

Workflow::

    emulator = PODLSTMEmulator(n_modes=5, window=8)
    history = emulator.fit(train_snapshots, network=my_network, rng=0)
    r2 = emulator.score(test_snapshots)              # Table II metric
    fields = emulator.forecast_fields(test_snapshots, horizon=1)
    by_lead = emulator.forecast_leads(test_snapshots, range(1, 9))

Forecasting is **non-autoregressive** (paper Sec. II-A): every forecast
window is conditioned on *true* past observations; model outputs are never
fed back in.
"""

from __future__ import annotations

import numpy as np

from repro import pod
from repro.baselines.manual_lstm import build_manual_lstm
from repro.data.windowing import train_validation_split
from repro.forecast.pipeline import PODCoefficientPipeline
from repro.nn.fused import causal_steps
from repro.nn.metrics import r2_score
from repro.nn.model import Network
from repro.nn.training import History, Trainer
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["PODLSTMEmulator"]


class PODLSTMEmulator:
    """Data-driven geophysical emulator: POD compression + stacked LSTM.

    Parameters
    ----------
    n_modes / window:
        Compression and forecast-task geometry (paper: 5 / 8).
    trainer:
        Training protocol; defaults to the paper's post-training settings
        (batch 64, lr 1e-3, Adam) with 100 epochs.
    train_fraction:
        Random train/validation split of windowed examples (paper: 0.8).
    """

    def __init__(self, n_modes: int = 5, window: int = 8, *,
                 trainer: Trainer | None = None,
                 train_fraction: float = 0.8) -> None:
        self.pipeline = PODCoefficientPipeline(n_modes=n_modes, window=window)
        self.trainer = trainer or Trainer(epochs=100, batch_size=64,
                                          learning_rate=0.001)
        self.train_fraction = float(train_fraction)
        self.network: Network | None = None
        self.history: History | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, snapshots: np.ndarray, *, network: Network | None = None,
            rng=None, basis=None) -> History:
        """Fit POD + scaler on ``(N_h, N_s)`` training snapshots and train
        the forecast network on windowed coefficients.

        ``network`` defaults to a single-layer LSTM(80) stack; pass a NAS
        product (``build_network(space, best_arch)``) for the paper's
        NAS-POD-LSTM. ``basis`` substitutes an externally-computed POD
        basis (e.g. a streaming :class:`~repro.pod.IncrementalPOD`
        snapshot) for the batch POD of ``snapshots`` — the continuous
        pipeline (:mod:`repro.pipeline`) retrains this way.
        """
        gen = as_generator(rng)
        self.pipeline.fit(snapshots, basis=basis)
        examples = self.pipeline.windows_from_snapshots(snapshots)
        train, val = train_validation_split(
            examples, train_fraction=self.train_fraction, rng=gen)
        if network is None:
            network = build_manual_lstm(
                80, 1, input_dim=self.pipeline.n_modes,
                output_dim=self.pipeline.n_modes, rng=gen)
        expected = self.pipeline.n_modes
        if network.input_dim != expected:
            raise ValueError(
                f"network input_dim {network.input_dim} != n_modes {expected}")
        self.network = network
        self.history = self.trainer.fit(network, train.inputs, train.outputs,
                                        val.inputs, val.outputs, rng=gen)
        return self.history

    @classmethod
    def from_artifacts(cls, pipeline: PODCoefficientPipeline,
                       network: Network, *,
                       trainer: Trainer | None = None,
                       train_fraction: float = 0.8) -> "PODLSTMEmulator":
        """Assemble a ready-to-forecast emulator from restored parts.

        The deserialization entry point of :mod:`repro.serve.bundle`:
        ``pipeline`` must already be fitted and ``network`` trained. The
        result forecasts and scores exactly like the emulator the parts
        came from; ``history`` is ``None`` (training curves are not part
        of a bundle).
        """
        pipeline._require_fit()
        if network.input_dim != pipeline.n_modes:
            raise ValueError(
                f"network input_dim {network.input_dim} != n_modes "
                f"{pipeline.n_modes}")
        emulator = cls(n_modes=pipeline.n_modes, window=pipeline.window,
                       trainer=trainer, train_fraction=train_fraction)
        emulator.pipeline = pipeline
        emulator.network = network
        return emulator

    def _require_fit(self) -> Network:
        if self.network is None:
            raise RuntimeError("emulator used before fit")
        return self.network

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def predict_windows(self, inputs: np.ndarray) -> np.ndarray:
        """Scaled-coefficient input windows ``(n, K, N_r)`` -> predicted
        output windows (scaled)."""
        net = self._require_fit()
        return net.predict(np.asarray(inputs, dtype=np.float64),
                           batch_size=256)

    def score(self, snapshots: np.ndarray) -> float:
        """Windowed forecast R^2 (scaled coefficient space) over a raw
        snapshot series — the Table II metric."""
        examples = self.pipeline.windows_from_snapshots(snapshots)
        preds = self.predict_windows(examples.inputs)
        return r2_score(examples.outputs, preds)

    def forecast_coefficient_series(self, snapshots: np.ndarray,
                                    horizon: int = 1
                                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lead-``horizon`` coefficient forecasts along a series.

        For every window start ``s`` the model forecasts times
        ``s+K .. s+2K-1``; the lead-``h`` forecast of time ``t`` is output
        position ``h-1`` of the window starting at ``t-K-h+1``.

        Returns ``(time_indices, predicted, actual)`` where indices are
        relative to the first snapshot of ``snapshots`` and coefficient
        matrices are **unscaled**, shape ``(n_modes, n_windows)``. The
        one-lead case of :meth:`forecast_leads`' single pass.
        """
        return self._lead_series(snapshots, (horizon,))[horizon]

    def forecast_fields(self, snapshots: np.ndarray, horizon: int = 1
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Lead-``horizon`` physical-field forecasts along a series.

        Returns ``(time_indices, fields)`` with ``fields`` of shape
        ``(N_h, n_windows)`` — reconstructed through the POD basis with
        the mean state restored. The one-lead case of
        :meth:`forecast_leads`.
        """
        return self.forecast_leads(snapshots, (horizon,))[horizon]

    def forecast_leads(self, snapshots: np.ndarray, horizons
                       ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Physical-field forecasts at every lead in ``horizons`` from one
        pass: ``{lead: (time_indices, fields)}`` in ascending lead order,
        each entry bit for bit what :meth:`forecast_fields` returns for
        that lead alone (Table I scores leads 1-8 this way)."""
        basis = self.pipeline.basis
        return {lead: (times, pod.reconstruct(basis, pred))
                for lead, (times, pred, _) in
                self._lead_series(snapshots, horizons).items()}

    def _lead_series(self, snapshots: np.ndarray, horizons
                     ) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``{lead: (times, predicted, actual)}`` for ``horizons``, from
        one forward pass up to the largest lead.

        Output position ``h-1`` depends only on the first ``h`` input
        steps of its window (every layer is causal in time), so the pass
        runs over the :func:`~repro.nn.fused.causal_steps` prefix of each
        window; the windows keep their whole output block for ``actual``.
        """
        k = self.pipeline.window
        leads = sorted({check_positive_int(h, name="horizon")
                        for h in horizons})
        if not leads:
            raise ValueError("no horizon given")
        if leads[-1] > k:
            raise ValueError(f"horizon {leads[-1]} exceeds window {k}")
        examples = self.pipeline.windows_from_snapshots(snapshots)
        steps = causal_steps(self._require_fit(), leads[-1], k)
        preds = self.predict_windows(examples.inputs[:, :steps])
        start = np.arange(examples.n_examples) + k - 1
        return {h: (start + h,
                    self.pipeline.inverse(preds[:, h - 1, :].T),
                    self.pipeline.inverse(examples.outputs[:, h - 1, :].T))
                for h in leads}

    @property
    def validation_r2(self) -> float:
        """Final validation R^2 of the fitted network (paper: 0.985 after
        post-training the best AE architecture)."""
        if self.history is None:
            raise RuntimeError("emulator used before fit")
        return self.history.final_val_r2
