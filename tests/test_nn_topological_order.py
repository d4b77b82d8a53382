"""Pinned node order of :class:`repro.nn.model.Network`.

The order is generation by generation, not insertion order, and every
weight list follows it: ``get_weights``, the ``w{i}``/``net_w{i}``
members of saved networks and bundles, and the sum order of the global
gradient-clip norm. The digest below was recorded when the order came
from ``networkx.topological_sort``; it covers every architecture of the
tests' 512-network space, 400 samples each of the default and the
hybrid catalog, and 2,000 random DAGs whose nodes may name one input
more than once.
"""

import hashlib

import numpy as np

from repro.nas.space import StackedLSTMSpace, hybrid_operations
from repro.nas.space.ops import Operation
from repro.nn.layers import AddLayer
from repro.nn.model import Network

RECORDED_ORDERS = \
    "930f1bc382d357e5f44456ff01d64e47e12a3ff8377d8230f24bcd4fcbbfddc0"


def _network(nodes) -> Network:
    """A network of the given ``(name, inputs)`` wiring, every node an
    add over one-feature tensors (only the graph matters here)."""
    net = Network(input_dim=1, rng=0)
    for name, inputs in nodes:
        net.add_node(name, AddLayer(), inputs)
    return net


def _space_wirings(space, archs):
    for arch in archs:
        nodes = []
        for spec in space.walk(arch):
            inputs = spec["inputs"] if "inputs" in spec else [spec["input"]]
            nodes.append((spec["name"], inputs))
        yield nodes


def _random_wirings(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        names = ["input"]
        nodes = []
        for k in range(int(rng.integers(1, 13))):
            picks = rng.integers(0, len(names), size=int(rng.integers(1, 4)))
            nodes.append((f"n{k}", [names[i] for i in picks]))
            names.append(f"n{k}")
        yield nodes


def _all_wirings():
    small = StackedLSTMSpace(
        n_layers=3, input_dim=3, output_dim=3, max_skip_depth=3,
        operations=(Operation("identity"), Operation("lstm", 4),
                    Operation("lstm", 8), Operation("lstm", 12)))
    yield from _space_wirings(
        small, (small.from_index(i) for i in range(small.size)))
    for seed, space in enumerate(
            (StackedLSTMSpace(),
             StackedLSTMSpace(operations=hybrid_operations()))):
        rng = np.random.default_rng(seed)
        yield from _space_wirings(
            space, (space.random_architecture(rng) for _ in range(400)))
    yield from _random_wirings(2000, seed=7)


def test_topological_orders_pinned():
    digest = hashlib.sha256()
    reordered = 0
    for nodes in _all_wirings():
        order = _network(nodes).topological_order
        digest.update((",".join(order) + "\n").encode())
        reordered += order != [name for name, _ in nodes]
    assert digest.hexdigest() == RECORDED_ORDERS
    # Not insertion order: most of these graphs are reordered.
    assert reordered > 2000
