"""Byte pins of the recurrent cells and of one NAS network's training.

The three cells share one skeleton (:mod:`repro.nn.layers.recurrent`).
The SHA-256 digests below were recorded from the three separate kernels
it replaced, so they hold the skeleton to the bytes those kernels wrote,
not merely to the reference-cell budget of tests/test_fused_differential.py:

* per cell and detmath mode, over the differential suite's shapes plus
  the ``(256, 8, 5, 80)`` training shape, two consecutive steps of the
  inference forward, the training forward, ``dx`` and every parameter
  gradient (the weights move in place between the steps);
* one :class:`~repro.nn.training.Trainer` epoch of a default-catalog
  NAS network with skip connections, then a two-chunk ``predict``.
"""

import contextlib
import hashlib
import zlib

import numpy as np
import pytest

from repro.nas.space import StackedLSTMSpace, build_network
from repro.nn.detmath import batch_invariant
from repro.nn.layers import GRULayer, LSTMLayer, SimpleRNNLayer
from repro.nn.training import Trainer

# (batch, steps, in_dim, units): tests/test_fused_differential.py's
# shapes, then the pipeline's training shape.
SHAPES = [
    (64, 16, 8, 64),
    (1, 1, 3, 5),
    (7, 3, 2, 16),
    (33, 9, 8, 48),
    (2, 50, 11, 13),
    (1, 4, 80, 3),
    (1, 4, 3, 80),
    (3, 2, 1, 1),
    (256, 8, 5, 80),
]

RECORDED_CELLS = {
    ("LSTMLayer", False):
        "cc67ca68acae3a889a0022b858626cc8981c5abfc2c2edceb41e1068e2eb999d",
    ("LSTMLayer", True):
        "45e11361dd936a99e91cb61f44265487abe5109eeccd73bc1c248a92334f1538",
    ("GRULayer", False):
        "219497940d08031e6f08acfb5f30964dc2aa46ebfffe58d0a5140880800033d0",
    ("GRULayer", True):
        "b2e09d293c0270216691c7958e829c3c6fa05a5dcfbd0436d6e3fec5df7cde86",
    ("SimpleRNNLayer", False):
        "8d3e149290ff706bdb59e0ff8979ee40213c56bf9dd25b9ee063b89b9bd2fda3",
    ("SimpleRNNLayer", True):
        "a2d8829ca82d9b2f7e27df7d0422b8fe5bbc85bec391b91543792f76f18fc9c6",
}
RECORDED_NETWORK = \
    "db8682604bc7f13d1c568f6081741f729bccb6013bfa07a8e560cef6750461dc"

#: Layer ops LSTM(16), LSTM(32), Identity, LSTM(16), LSTM(48) with the
#: skips input->2, input->3, input->4 and 3->5: four dense projections
#: and four add merges.
ARCH = (1, 2, 0, 1, 3) + (1, 0, 1, 0, 0, 1, 1, 0, 0)


def _stable_seed(*key) -> int:
    return zlib.crc32(repr(key).encode())


def cell_digest(cls, invariant: bool) -> str:
    digest = hashlib.sha256()
    mode = batch_invariant() if invariant else contextlib.nullcontext()
    with mode:
        for shape in SHAPES:
            batch, steps, in_dim, units = shape
            rng = np.random.default_rng(_stable_seed(cls.__name__, shape))
            layer = cls(units)
            layer.build([in_dim], rng=rng)
            for _ in range(2):
                x = rng.standard_normal((batch, steps, in_dim))
                grad_out = rng.standard_normal((batch, steps, units))
                digest.update(layer.forward([x]).tobytes())
                digest.update(layer.forward([x], training=True).tobytes())
                layer.zero_grads()
                (dx,) = layer.backward(grad_out)
                digest.update(dx.tobytes())
                for name in sorted(layer.grads):
                    digest.update(layer.grads[name].tobytes())
                    layer.params[name] -= 0.1 * layer.grads[name]
    return digest.hexdigest()


def network_digest() -> str:
    space = StackedLSTMSpace()
    net = build_network(space, ARCH, rng=_stable_seed("network"))
    rng = np.random.default_rng(_stable_seed("data"))
    x = rng.standard_normal((40, 8, space.input_dim))
    y = rng.standard_normal((40, 8, space.output_dim))
    history = Trainer(batch_size=16, epochs=1).fit(net, x, y, rng=rng)
    digest = hashlib.sha256()
    digest.update(np.array(history.train_loss + history.val_loss).tobytes())
    for weight in net.get_weights():
        digest.update(weight.tobytes())
    digest.update(net.predict(x, batch_size=24).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("invariant", [False, True],
                         ids=["plain", "invariant"])
@pytest.mark.parametrize("cls", [LSTMLayer, GRULayer, SimpleRNNLayer],
                         ids=["lstm", "gru", "rnn"])
def test_cell_bytes(cls, invariant):
    assert cell_digest(cls, invariant) == \
        RECORDED_CELLS[(cls.__name__, invariant)]


def test_network_training_and_predict_bytes():
    kinds = [spec["type"] for spec in StackedLSTMSpace().walk(ARCH)]
    assert kinds.count("add") == 4 and kinds.count("recurrent") == 4
    assert network_digest() == RECORDED_NETWORK
