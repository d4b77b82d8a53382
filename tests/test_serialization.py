import numpy as np
import pytest

from repro.baselines import build_manual_lstm
from repro.nas.space import StackedLSTMSpace, build_network
from repro.nn import DenseLayer, GRULayer, LSTMLayer, Network
from repro.nn.layers import AddLayer
from repro.nn.serialization import load_network, save_network
from repro.nn.training import Trainer


class TestNetworkSerialization:
    def test_roundtrip_simple(self, tmp_path, rng):
        net = build_manual_lstm(8, 2, input_dim=3, output_dim=3, rng=0)
        path = tmp_path / "net.npz"
        save_network(net, path)
        loaded = load_network(path)
        x = rng.standard_normal((2, 5, 3))
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   atol=1e-14)

    def test_roundtrip_dag_with_skips(self, tmp_path, rng):
        net = Network(input_dim=3, rng=1)
        net.add_node("l1", LSTMLayer(4), ["input"])
        net.add_node("proj", DenseLayer(4), ["input"])
        net.add_node("merge", AddLayer("relu"), ["l1", "proj"])
        net.add_node("out", GRULayer(2), ["merge"])
        path = tmp_path / "dag.npz"
        save_network(net, path)
        loaded = load_network(path)
        x = rng.standard_normal((3, 4, 3))
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   atol=1e-14)

    def test_roundtrip_nas_architecture(self, tmp_path, rng):
        space = StackedLSTMSpace()
        arch = space.random_architecture(np.random.default_rng(5))
        net = build_network(space, arch, rng=2)
        path = tmp_path / "nas.npz"
        save_network(net, path)
        loaded = load_network(path)
        x = rng.standard_normal((2, 8, 5))
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   atol=1e-14)
        assert loaded.n_parameters == net.n_parameters

    def test_loaded_network_trainable(self, tmp_path, rng):
        net = build_manual_lstm(6, 1, input_dim=2, output_dim=2, rng=0)
        path = tmp_path / "net.npz"
        save_network(net, path)
        loaded = load_network(path)
        x = rng.standard_normal((40, 4, 2))
        y = 0.3 * np.cumsum(x, axis=1)
        history = Trainer(epochs=3, batch_size=16).fit(loaded, x, y, rng=0)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_empty_network_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_network(Network(input_dim=2, rng=0), tmp_path / "x.npz")

    def test_bad_archive_rejected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        np.savez(bad, __spec__=np.frombuffer(b'{"format": "other"}',
                                             dtype=np.uint8))
        with pytest.raises(ValueError, match="not a repro network"):
            load_network(bad)

    def test_roundtrip_path_without_npz_suffix(self, tmp_path, rng):
        """Regression: np.savez silently appends .npz, so saving to
        'model' then loading 'model' raised FileNotFoundError. Both
        sides now accept the exact path the user passed."""
        net = build_manual_lstm(8, 2, input_dim=3, output_dim=3, rng=0)
        path = tmp_path / "model"  # no suffix, as a user might pass
        save_network(net, path)
        assert (tmp_path / "model.npz").exists()
        loaded = load_network(path)  # the very path save accepted
        x = rng.standard_normal((2, 5, 3))
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   atol=1e-14)

    def test_roundtrip_other_suffix(self, tmp_path, rng):
        net = build_manual_lstm(8, 2, input_dim=3, output_dim=3, rng=0)
        path = tmp_path / "model.ckpt"
        save_network(net, path)
        loaded = load_network(path)
        x = rng.standard_normal((2, 5, 3))
        np.testing.assert_allclose(loaded.forward(x), net.forward(x),
                                   atol=1e-14)


class TestLegacyNetworkFixtures:
    """Pre-fused-kernel artifacts (tests/data/, see
    make_legacy_fixtures.py) must load into today's layers and
    reproduce their recorded forward pass bit for bit — the weight
    layout round-trip guarantee of the fused-kernel rewrite."""

    def test_legacy_network_loads_and_reproduces_forward(self):
        from pathlib import Path
        data = Path(__file__).parent / "data"
        net = load_network(data / "legacy_network.npz")
        x = np.load(data / "legacy_network_input.npy")
        want = np.load(data / "legacy_network_forward.npy")
        got = net.forward(x)  # fused kernels (the default)
        np.testing.assert_array_equal(got.view(np.uint8),
                                      want.view(np.uint8))

    def test_legacy_network_reference_path_also_bitwise(self):
        from pathlib import Path

        from repro.nn.fused import reference_kernels
        data = Path(__file__).parent / "data"
        net = load_network(data / "legacy_network.npz")
        x = np.load(data / "legacy_network_input.npy")
        want = np.load(data / "legacy_network_forward.npy")
        with reference_kernels():
            got = net.forward(x)
        np.testing.assert_array_equal(got.view(np.uint8),
                                      want.view(np.uint8))

    def test_legacy_network_parallel_dag_bitwise(self):
        from pathlib import Path
        data = Path(__file__).parent / "data"
        net = load_network(data / "legacy_network.npz")
        net.parallel = True
        x = np.load(data / "legacy_network_input.npy")
        want = np.load(data / "legacy_network_forward.npy")
        np.testing.assert_array_equal(net.forward(x).view(np.uint8),
                                      want.view(np.uint8))

    def test_legacy_network_save_load_roundtrip_stable(self, tmp_path):
        """Re-serializing a legacy artifact with today's writer loses
        nothing: the re-saved network still reproduces the recording."""
        from pathlib import Path
        data = Path(__file__).parent / "data"
        net = load_network(data / "legacy_network.npz")
        save_network(net, tmp_path / "resaved.npz")
        again = load_network(tmp_path / "resaved.npz")
        x = np.load(data / "legacy_network_input.npy")
        want = np.load(data / "legacy_network_forward.npy")
        np.testing.assert_array_equal(again.forward(x), want)
