"""Realize an architecture encoding as an executable Network."""

from __future__ import annotations

from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.nn.layers import RECURRENT_LAYERS, AddLayer, DenseLayer, LSTMLayer
from repro.nn.model import Network

__all__ = ["build_network", "describe_architecture"]


def build_network(space: StackedLSTMSpace, arch: Architecture,
                  rng=None) -> Network:
    """Build the DAG network for an encoding.

    The construction mirrors :meth:`StackedLSTMSpace.walk` exactly: LSTM
    variable nodes, linear dense projections for skip connections, add+ReLU
    merges, and the constant LSTM(output_dim) head.
    """
    net = Network(input_dim=space.input_dim, rng=rng)
    for spec in space.walk(arch):
        kind = spec["type"]
        if kind == "dense":
            net.add_node(spec["name"], DenseLayer(spec["units"],
                                                  activation=None),
                         [spec["input"]])
        elif kind == "add":
            net.add_node(spec["name"], AddLayer("relu"), spec["inputs"])
        elif kind == "recurrent":
            layer_cls = RECURRENT_LAYERS[spec["kind"]]
            net.add_node(spec["name"], layer_cls(spec["units"]),
                         [spec["input"]])
        elif kind == "output_lstm":
            net.add_node(spec["name"], LSTMLayer(spec["units"]),
                         [spec["input"]])
        else:  # pragma: no cover - walk() only emits the kinds above
            raise ValueError(f"unknown spec type {kind!r}")
    net.set_output("output")
    return net


def describe_architecture(space: StackedLSTMSpace,
                          arch: Architecture) -> str:
    """Human-readable description (the textual analogue of paper Fig. 4)."""
    ops = space.layer_ops(arch)
    lines = [f"Architecture {space.index_of(arch)} "
             f"(params={space.count_parameters(arch)})"]
    lines.append("  layer ops: " + " -> ".join(str(op) for op in ops)
                 + f" -> LSTM({space.output_dim}) [output]")
    skips = space.active_skips(arch)
    if skips:
        names = {0: "input"}
        names.update({k: f"node{k}" for k in range(1, space.n_layers + 1)})
        for slot in skips:
            lines.append(f"  skip: {names[slot.source]} -> node{slot.target} "
                         "(dense projection + add + ReLU)")
    else:
        lines.append("  no active skip connections")
    return "\n".join(lines)
