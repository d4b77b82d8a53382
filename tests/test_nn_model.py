import numpy as np
import pytest

from repro.nn import DenseLayer, IdentityLayer, LSTMLayer, Network
from repro.nn.layers import AddLayer


def simple_net(rng_seed=0):
    net = Network(input_dim=3, rng=rng_seed)
    net.add_node("l1", LSTMLayer(4), ["input"])
    net.add_node("out", LSTMLayer(2), ["l1"])
    return net


class TestConstruction:
    def test_duplicate_name(self):
        net = simple_net()
        with pytest.raises(ValueError, match="duplicate"):
            net.add_node("l1", IdentityLayer(), ["input"])

    def test_unknown_input(self):
        net = Network(input_dim=2, rng=0)
        with pytest.raises(ValueError, match="unknown input"):
            net.add_node("a", IdentityLayer(), ["missing"])

    def test_reserved_name(self):
        net = Network(input_dim=2, rng=0)
        with pytest.raises(ValueError, match="reserved"):
            net.add_node("input", IdentityLayer(), ["input"])

    def test_no_inputs_rejected(self):
        net = Network(input_dim=2, rng=0)
        with pytest.raises(ValueError, match="no inputs"):
            net.add_node("a", IdentityLayer(), [])

    def test_output_defaults_to_latest(self):
        net = simple_net()
        assert net.output_name == "out"

    def test_set_output(self):
        net = simple_net()
        net.set_output("l1")
        y = net.forward(np.zeros((1, 2, 3)))
        assert y.shape == (1, 2, 4)

    def test_set_output_unknown(self):
        with pytest.raises(ValueError):
            simple_net().set_output("nope")

    def test_node_dim(self):
        net = simple_net()
        assert net.node_dim("l1") == 4
        assert net.node_dim("input") == 3

    def test_topological_order_respects_edges(self):
        net = Network(input_dim=2, rng=0)
        net.add_node("a", LSTMLayer(3), ["input"])
        net.add_node("b", DenseLayer(3), ["input"])
        net.add_node("c", AddLayer(), ["a", "b"])
        order = net.topological_order
        assert order.index("c") > order.index("a")
        assert order.index("c") > order.index("b")

    def test_invalid_input_dim(self):
        with pytest.raises(ValueError):
            Network(input_dim=0)


class TestExecution:
    def test_forward_shape(self, rng):
        net = simple_net()
        assert net.forward(rng.standard_normal((4, 6, 3))).shape == (4, 6, 2)

    def test_wrong_feature_dim(self, rng):
        net = simple_net()
        with pytest.raises(ValueError, match="expected input"):
            net.forward(rng.standard_normal((4, 6, 5)))

    def test_deterministic_forward(self, rng):
        net = simple_net()
        x = rng.standard_normal((2, 4, 3))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))

    def test_seed_controls_weights(self, rng):
        x = rng.standard_normal((1, 3, 3))
        y1 = simple_net(rng_seed=1).forward(x)
        y2 = simple_net(rng_seed=1).forward(x)
        y3 = simple_net(rng_seed=2).forward(x)
        np.testing.assert_array_equal(y1, y2)
        assert not np.allclose(y1, y3)

    def test_predict_chunked_matches_full(self, rng):
        net = simple_net()
        x = rng.standard_normal((10, 4, 3))
        np.testing.assert_allclose(net.predict(x, batch_size=3),
                                   net.predict(x), atol=1e-12)

    def test_predict_remainder_batch(self, rng):
        """A batch_size that does not divide the input runs a smaller
        final chunk and still returns every example, in order."""
        net = simple_net()
        x = rng.standard_normal((7, 4, 3))
        out = net.predict(x, batch_size=4)  # chunks of 4 and 3
        assert out.shape == net.predict(x).shape
        np.testing.assert_allclose(out[4:], net.predict(x[4:]),
                                   atol=1e-12)
        np.testing.assert_array_equal(out[:4], net.predict(x[:4]))

    def test_predict_empty_input_rejected(self):
        net = simple_net()
        with pytest.raises(ValueError, match="empty batch"):
            net.predict(np.zeros((0, 4, 3)))
        with pytest.raises(ValueError, match="0 examples"):
            net.predict(np.zeros((0, 4, 3)), batch_size=2)

    def test_predict_bad_batch_size_rejected(self, rng):
        net = simple_net()
        x = rng.standard_normal((4, 4, 3))
        with pytest.raises(ValueError, match="batch_size"):
            net.predict(x, batch_size=0)

    def test_dead_branch_ignored_in_backward(self, rng):
        """A node not feeding the output gets no gradient and must not
        break backward."""
        net = Network(input_dim=2, rng=0)
        net.add_node("main", LSTMLayer(3), ["input"])
        net.add_node("dead", DenseLayer(5), ["input"])
        net.set_output("main")
        x = rng.standard_normal((2, 3, 2))
        net.forward(x, training=True)
        net.zero_grads()
        net.backward(np.ones((2, 3, 3)))
        dead = net.layer("dead")
        assert not dead.grads["W"].any()


class TestParameters:
    def test_n_parameters(self):
        net = simple_net()
        expected = 4 * ((3 + 4) * 4 + 4) + 4 * ((4 + 2) * 2 + 2)
        assert net.n_parameters == expected

    def test_get_set_weights_roundtrip(self, rng):
        net = simple_net()
        x = rng.standard_normal((2, 3, 3))
        before = net.forward(x)
        weights = net.get_weights()
        for p, _ in net.parameters_and_gradients():
            p += 1.0
        assert not np.allclose(net.forward(x), before)
        net.set_weights(weights)
        np.testing.assert_allclose(net.forward(x), before)

    def test_set_weights_count_mismatch(self):
        net = simple_net()
        with pytest.raises(ValueError):
            net.set_weights([np.zeros((2, 2))])

    def test_set_weights_shape_mismatch(self):
        net = simple_net()
        weights = net.get_weights()
        weights[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.set_weights(weights)

    def test_zero_grads(self, rng):
        net = simple_net()
        x = rng.standard_normal((2, 3, 3))
        net.forward(x, training=True)
        net.backward(np.ones((2, 3, 2)))
        net.zero_grads()
        assert all(not g.any() for _, g in net.parameters_and_gradients())

    def test_summary_mentions_nodes(self):
        text = simple_net().summary()
        assert "l1" in text and "out" in text and "LSTMLayer" in text


def diamond_net(rng_seed=5):
    """input -> a -> {b1, b2} -> merge -> out: two branches with no
    edge between them."""
    from repro.nn.layers import GRULayer, SimpleRNNLayer
    net = Network(input_dim=3, rng=rng_seed)
    net.add_node("a", LSTMLayer(4), ["input"])
    net.add_node("b1", GRULayer(4), ["a"])
    net.add_node("b2", SimpleRNNLayer(4), ["a"])
    net.add_node("merge", AddLayer("relu"), ["b1", "b2"])
    net.add_node("out", DenseLayer(3), ["merge"])
    net.set_output("out")
    return net


class TestTopologyAnalysis:
    def test_diamond_topological_sort(self):
        """Insertion order is adversarial here (merge consumers exist
        before both producers in no order); the sort must still place
        every node after all of its inputs."""
        net = diamond_net()
        order = net.topological_order
        assert set(order) == {"a", "b1", "b2", "merge", "out"}
        position = {name: i for i, name in enumerate(order)}
        for name in order:
            for dep in net._specs[name].inputs:
                if dep != "input":
                    assert position[dep] < position[name], \
                        f"{dep} must precede {name}"
        assert order[0] == "a" and order[-1] == "out"

    def test_diamond_live_spans(self):
        """Each value's span ends at its last consumer; the output is
        pinned alive to the end."""
        net = diamond_net()
        order = net.topological_order
        spans = net.live_spans()
        position = {name: i for i, name in enumerate(order)}
        # 'a' feeds b1 and b2 -> dies after the later of the two.
        assert spans["a"] == max(position["b1"], position["b2"])
        assert spans["b1"] == spans["b2"] == position["merge"]
        assert spans["merge"] == position["out"]
        assert spans["out"] == len(order) - 1      # pinned: the output
        assert spans["input"] == position["a"]

    def test_live_spans_linear_chain(self):
        net = simple_net()
        spans = net.live_spans()
        assert spans == {"input": 0, "l1": 1, "out": 1}
