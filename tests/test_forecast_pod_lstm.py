from contextlib import nullcontext

import numpy as np
import pytest

from repro.baselines import build_manual_lstm
from repro.forecast import PODCoefficientPipeline, PODLSTMEmulator
from repro.nas.space.builder import build_network
from repro.nas.space.search_space import StackedLSTMSpace
from repro.nn.detmath import batch_invariant
from repro.nn.fused import PREFIX_MAX_MACS, causal_steps
from repro.nn.layers import DenseLayer, GRULayer, LSTMLayer, SimpleRNNLayer
from repro.nn.model import Network
from repro.nn.training import Trainer
from tests.reference_forecast import (
    reference_coefficient_series,
    reference_fields,
    reference_reconstruct,
)


@pytest.fixture(scope="module")
def fitted_emulator(generator):
    """Small emulator trained briefly on 160 snapshots (module-scoped:
    training is the expensive part)."""
    snaps = generator.snapshots(np.arange(160))
    emulator = PODLSTMEmulator(
        n_modes=3, window=4,
        trainer=Trainer(epochs=25, batch_size=32, learning_rate=0.003))
    net = build_manual_lstm(16, 1, input_dim=3, output_dim=3, rng=0)
    emulator.fit(snaps, network=net, rng=0)
    return emulator, snaps


class TestFit:
    def test_history_recorded(self, fitted_emulator):
        emulator, _ = fitted_emulator
        assert emulator.history.n_epochs == 25
        assert np.isfinite(emulator.validation_r2)

    def test_learns_something(self, fitted_emulator):
        emulator, snaps = fitted_emulator
        assert emulator.score(snaps) > 0.3

    def test_default_network(self, generator):
        snaps = generator.snapshots(np.arange(40))
        emulator = PODLSTMEmulator(n_modes=2, window=3,
                                   trainer=Trainer(epochs=1, batch_size=16))
        emulator.fit(snaps, rng=0)
        assert emulator.network is not None

    def test_wrong_network_dim_rejected(self, generator):
        snaps = generator.snapshots(np.arange(40))
        emulator = PODLSTMEmulator(n_modes=2, window=3,
                                   trainer=Trainer(epochs=1))
        bad = build_manual_lstm(8, 1, input_dim=5, output_dim=5, rng=0)
        with pytest.raises(ValueError, match="input_dim"):
            emulator.fit(snaps, network=bad, rng=0)

    def test_use_before_fit(self, generator):
        emulator = PODLSTMEmulator()
        with pytest.raises(RuntimeError):
            emulator.predict_windows(np.zeros((1, 8, 5)))
        with pytest.raises(RuntimeError):
            emulator.validation_r2


class TestForecastSeries:
    def test_alignment(self, fitted_emulator):
        """Lead-h forecast of time index t comes from the window starting
        at t - K - h + 1; returned time indices must reflect that."""
        emulator, snaps = fitted_emulator
        k = emulator.pipeline.window
        for horizon in (1, k):
            times, pred, actual = emulator.forecast_coefficient_series(
                snaps, horizon=horizon)
            assert times[0] == k + horizon - 1
            assert times[-1] == snaps.shape[1] - k + horizon - 1
            assert pred.shape == actual.shape

    def test_actuals_match_pipeline_projection(self, fitted_emulator):
        emulator, snaps = fitted_emulator
        times, _, actual = emulator.forecast_coefficient_series(snaps, 1)
        raw = emulator.pipeline.coefficients(snaps)
        np.testing.assert_allclose(actual, raw[:, times], atol=1e-8)

    def test_all_horizons_finite_and_consistent(self, fitted_emulator):
        """Every lead produces finite predictions; note that in the
        paper's seq2seq formulation output position h-1 has seen h input
        steps, so lead-1 is the *least*-informed forecast, not the most
        (the flat-to-increasing rows of Table I reflect this)."""
        emulator, snaps = fitted_emulator
        k = emulator.pipeline.window
        sizes = []
        for horizon in range(1, k + 1):
            _, pred, actual = emulator.forecast_coefficient_series(
                snaps, horizon)
            assert np.isfinite(pred).all()
            sizes.append(pred.shape[1])
        assert len(set(sizes)) == 1  # same window count at every lead

    def test_invalid_horizon(self, fitted_emulator):
        emulator, snaps = fitted_emulator
        k = emulator.pipeline.window
        with pytest.raises(ValueError):
            emulator.forecast_coefficient_series(snaps, horizon=0)
        with pytest.raises(ValueError):
            emulator.forecast_coefficient_series(snaps, horizon=k + 1)
        for bad in ((), (0,), (1, k + 1)):
            with pytest.raises(ValueError):
                emulator.forecast_leads(snaps, bad)


class TestForecastFields:
    def test_field_shape(self, fitted_emulator, generator):
        emulator, snaps = fitted_emulator
        times, fields = emulator.forecast_fields(snaps, horizon=1)
        assert fields.shape == (generator.n_ocean, times.size)

    def test_fields_physical(self, fitted_emulator):
        emulator, snaps = fitted_emulator
        _, fields = emulator.forecast_fields(snaps, horizon=1)
        assert np.isfinite(fields).all()
        assert fields.min() > -20 and fields.max() < 50

    def test_forecast_error_bounded_by_truncation_plus_model(
            self, fitted_emulator, generator):
        """Field forecast RMSE is at least the POD truncation error but
        within a sane multiple of it."""
        emulator, snaps = fitted_emulator
        times, fields = emulator.forecast_fields(snaps, horizon=1)
        truth = snaps[:, times]
        rmse = np.sqrt(np.mean((fields - truth) ** 2))
        # Truncation-only reconstruction error:
        scaled = emulator.pipeline.transform(snaps[:, times])
        recon = emulator.pipeline.reconstruct(scaled)
        trunc = np.sqrt(np.mean((recon - truth) ** 2))
        assert rmse >= trunc * 0.9
        assert rmse <= trunc * 6.0


class TestScore:
    def test_score_in_range(self, fitted_emulator):
        emulator, snaps = fitted_emulator
        assert emulator.score(snaps) <= 1.0

    def test_score_on_new_period(self, fitted_emulator, generator):
        emulator, _ = fitted_emulator
        later = generator.snapshots(np.arange(160, 260))
        score = emulator.score(later)
        assert np.isfinite(score)


# ----------------------------------------------------------------------
# Lead forecasts: one pass over a causal window prefix, held to the
# whole-window per-lead oracle (tests/reference_forecast.py) bit for bit.
# ----------------------------------------------------------------------
K = 8
#: The quick preset's searched architecture: the 136,248-parameter
#: network the emulate benchmark trains.
EMULATE_ARCH = (0, 0, 6, 4, 5, 1, 1, 1, 1, 0, 1, 1, 0, 1)


def _gru_rnn(gru_units: int, rnn_units: int) -> Network:
    net = Network(input_dim=5, rng=0)
    net.add_node("gru", GRULayer(gru_units), ["input"])
    net.add_node("rnn", SimpleRNNLayer(rnn_units), ["gru"])
    net.add_node("output", LSTMLayer(5), ["rnn"])
    return net


def _lead_network(name: str) -> Network:
    space = StackedLSTMSpace()
    if name == "emulate":
        return build_network(space, EMULATE_ARCH, rng=0)
    if name.startswith("space"):
        index = int(name[len("space"):])
        arch = space.random_architecture(np.random.default_rng(100 + index))
        return build_network(space, arch, rng=index)
    if name == "manual":
        return build_manual_lstm(80, 1, rng=0)
    if name == "gru_rnn":
        return _gru_rnn(24, 16)
    # The two networks below run the whole window (causal_steps): a
    # bare max(h, 2) prefix changes their lead 1-7 bits on x86-64
    # OpenBLAS. SimpleRNN(3) over 16 features is a (T, 16) @ (16, 3)
    # product, whose trailing rows take another kernel at T = 2, 3, 5,
    # 6, 7; LSTM(123) over 256 features is a 8 x 256 x 492 window
    # product just above PREFIX_MAX_MACS, so a prefix runs the
    # small-matrix kernel instead.
    if name == "gru_rnn_odd":
        return _gru_rnn(16, 3)
    assert name == "wide"
    net = Network(input_dim=5, rng=0)
    net.add_node("wide", DenseLayer(256), ["input"])
    net.add_node("lstm", LSTMLayer(123), ["wide"])
    net.add_node("output", LSTMLayer(5), ["lstm"])
    return net


LEAD_NETWORKS = ("emulate", "space0", "space1", "space2", "manual",
                 "gru_rnn", "gru_rnn_odd", "wide")
WHOLE_WINDOW = ("gru_rnn_odd", "wide")


@pytest.fixture(scope="module")
def lead_series(generator):
    """A fitted 5-mode, K = 8 pipeline and a 315-week series: 300
    windows, so every predict ends on a partial 44-row chunk."""
    pipeline = PODCoefficientPipeline(n_modes=5, window=K)
    pipeline.fit(generator.snapshots(np.arange(200)))
    return pipeline, generator.snapshots(np.arange(200, 515))


@pytest.fixture(scope="module", params=LEAD_NETWORKS)
def lead_emulator(request, lead_series):
    pipeline, series = lead_series
    emulator = PODLSTMEmulator.from_artifacts(
        pipeline, _lead_network(request.param))
    return request.param, emulator, series


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("invariant", [False, True],
                         ids=["default", "batch_invariant"])
class TestLeadOracle:
    def test_single_lead_calls(self, lead_emulator, invariant):
        _, emulator, series = lead_emulator
        with batch_invariant() if invariant else nullcontext():
            for h in range(1, K + 1):
                got = emulator.forecast_coefficient_series(series, h)
                want = reference_coefficient_series(emulator, series, h)
                assert all(_same_bits(g, w) for g, w in zip(got, want)), h
                times, fields = emulator.forecast_fields(series, h)
                assert _same_bits(times, want[0]), h
                assert _same_bits(
                    fields, reference_reconstruct(emulator, want[1])), h

    def test_multi_lead_call(self, lead_emulator, invariant):
        _, emulator, series = lead_emulator
        with batch_invariant() if invariant else nullcontext():
            every = emulator.forecast_leads(series, range(1, K + 1))
            some = emulator.forecast_leads(series, (7, 2, 7))
            assert list(every) == list(range(1, K + 1))
            assert list(some) == [2, 7]
            for h, (times, fields) in every.items():
                ref_times, ref_fields = reference_fields(emulator, series, h)
                assert _same_bits(times, ref_times), h
                assert _same_bits(fields, ref_fields), h
                if h in some:
                    assert _same_bits(some[h][1], ref_fields), h


class TestCausalPrefix:
    def test_steps_per_network(self, lead_emulator):
        name, emulator, _ = lead_emulator
        for h in range(1, K + 1):
            expected = K if name in WHOLE_WINDOW else max(h, 2)
            assert causal_steps(emulator.network, h, K) == expected

    def test_one_predict_over_the_prefix(self, lead_series, monkeypatch):
        pipeline, series = lead_series
        emulator = PODLSTMEmulator.from_artifacts(
            pipeline, _lead_network("emulate"))
        shapes = []
        predict = emulator.network.predict

        def spy(x, batch_size=None):
            shapes.append(x.shape)
            return predict(x, batch_size=batch_size)
        monkeypatch.setattr(emulator.network, "predict", spy)
        emulator.forecast_fields(series, horizon=1)
        emulator.forecast_fields(series, horizon=5)
        emulator.forecast_leads(series, (1, 3))
        emulator.forecast_leads(series, range(1, K + 1))
        assert shapes == [(300, 2, 5), (300, 5, 5), (300, 3, 5),
                          (300, K, 5)]

    def test_weight_rules(self):
        def net(layer):
            n = Network(input_dim=5, rng=0)
            n.add_node("only", layer, ["input"])
            return n
        assert causal_steps(net(LSTMLayer(8)), 1, K) == 2
        assert causal_steps(net(LSTMLayer(8)), 3, 4) == 3
        assert causal_steps(net(LSTMLayer(8)), 6, 4) == 4
        assert causal_steps(net(DenseLayer(12)), 1, K) == 2
        # A column count that is not a multiple of 4.
        assert causal_steps(net(DenseLayer(6)), 1, K) == K
        assert causal_steps(net(GRULayer(5)), 1, K) == K
        # A whole-window product above the small-matrix bound.
        width = 4 * (PREFIX_MAX_MACS // (K * 5 * 4) + 1)
        assert causal_steps(net(DenseLayer(width)), 1, K) == K
        assert causal_steps(net(DenseLayer(width - 4)), 1, K) == 2
