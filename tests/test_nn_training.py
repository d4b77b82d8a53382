import numpy as np
import pytest

from repro.baselines import build_manual_lstm
from repro.nn import LSTMLayer, Network, Trainer
from repro.nn.training import History


def toy_problem(rng, n=120, t=6, f=2):
    x = rng.standard_normal((n, t, f))
    y = 0.3 * np.cumsum(x, axis=1)
    return x, y


class TestTrainer:
    def test_loss_decreases(self, rng):
        x, y = toy_problem(rng)
        net = build_manual_lstm(12, 1, input_dim=2, output_dim=2, rng=0)
        history = Trainer(epochs=40, batch_size=32).fit(net, x, y, rng=0)
        assert history.train_loss[-1] < history.train_loss[0] * 0.5

    def test_validation_tracked(self, rng):
        x, y = toy_problem(rng)
        net = build_manual_lstm(8, 1, input_dim=2, output_dim=2, rng=0)
        history = Trainer(epochs=5, batch_size=32).fit(
            net, x[:80], y[:80], x[80:], y[80:], rng=0)
        assert history.n_epochs == 5
        assert len(history.val_r2) == 5
        assert np.isfinite(history.val_r2).all()

    def test_reproducible(self, rng):
        x, y = toy_problem(rng)
        h1 = Trainer(epochs=3, batch_size=16).fit(
            build_manual_lstm(6, 1, input_dim=2, output_dim=2, rng=1),
            x, y, rng=7)
        h2 = Trainer(epochs=3, batch_size=16).fit(
            build_manual_lstm(6, 1, input_dim=2, output_dim=2, rng=1),
            x, y, rng=7)
        np.testing.assert_allclose(h1.train_loss, h2.train_loss)

    def test_zero_epochs(self, rng):
        x, y = toy_problem(rng, n=20)
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        history = Trainer(epochs=0).fit(net, x, y, rng=0)
        assert history.n_epochs == 0

    def test_zero_epochs_invariants(self, rng):
        """epochs=0 is a no-op: weights untouched bitwise, history empty
        and saying so, the R^2 accessors failing with a useful message."""
        x, y = toy_problem(rng, n=20)
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        before = [w.copy() for w in net.get_weights()]
        history = Trainer(epochs=0).fit(net, x, y, rng=0)
        for w_before, w_after in zip(before, net.get_weights(),
                                     strict=True):
            np.testing.assert_array_equal(w_before, w_after)
        assert history.is_empty
        with pytest.raises(ValueError, match="epochs=0"):
            history.best_val_r2
        with pytest.raises(ValueError, match="epochs=0"):
            history.final_val_r2

    def test_batch_larger_than_data(self, rng):
        x, y = toy_problem(rng, n=10)
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        history = Trainer(epochs=2, batch_size=512).fit(net, x, y, rng=0)
        assert history.n_epochs == 2

    def test_mismatched_examples(self, rng):
        x, y = toy_problem(rng, n=10)
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        with pytest.raises(ValueError):
            Trainer(epochs=1).fit(net, x, y[:5], rng=0)

    def test_val_requires_both(self, rng):
        x, y = toy_problem(rng, n=10)
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        with pytest.raises(ValueError, match="both"):
            Trainer(epochs=1).fit(net, x, y, x_val=x, rng=0)

    def test_empty_training_set(self, rng):
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        with pytest.raises(ValueError, match="zero examples"):
            Trainer(epochs=1).fit(net, np.zeros((0, 3, 2)),
                                  np.zeros((0, 3, 2)), rng=0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            Trainer(batch_size=0)
        with pytest.raises(ValueError):
            Trainer(epochs=-1)

    def test_clipping_keeps_training_stable(self, rng):
        """A deep stack with an aggressive learning rate survives under
        the constant CLIP_NORM gradient clip."""
        x, y = toy_problem(rng, n=60)
        net = build_manual_lstm(8, 3, input_dim=2, output_dim=2, rng=0)
        history = Trainer(epochs=5, batch_size=16, learning_rate=0.05).fit(
            net, x, y, rng=0)
        assert np.isfinite(history.train_loss).all()

    @pytest.mark.parametrize("lr", [0.0, -0.01, float("nan")])
    def test_learning_rate_must_be_positive(self, lr):
        """NaN fails the ``> 0`` check too: it would train NaN weights."""
        with pytest.raises(ValueError, match="learning_rate"):
            Trainer(learning_rate=lr)

    def test_every_batch_is_clipped_at_the_constant(self, rng,
                                                    monkeypatch):
        """``fit`` clips each batch through the module-level
        ``clip_gradients`` at ``CLIP_NORM``."""
        from repro.nn import training
        seen = []
        real = training.clip_gradients

        def spy(grads, max_norm):
            seen.append(max_norm)
            return real(grads, max_norm)

        monkeypatch.setattr(training, "clip_gradients", spy)
        x, y = toy_problem(rng, n=20)
        net = build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0)
        Trainer(epochs=2, batch_size=8).fit(net, x, y, rng=0)
        assert seen == [training.CLIP_NORM] * 6  # 2 epochs x 3 batches


class TestHistory:
    def test_best_and_final(self):
        h = History(train_loss=[1, 2, 3], val_loss=[1, 2, 3],
                    val_r2=[0.1, 0.5, 0.3])
        assert h.best_val_r2 == 0.5
        assert h.final_val_r2 == 0.3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            History().best_val_r2
        with pytest.raises(ValueError):
            History().final_val_r2
