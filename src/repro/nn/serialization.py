"""Network persistence: a JSON node spec + weight arrays in one ``.npz``.

No pickle — the on-disk format is plain NumPy arrays plus a JSON header,
so archives are portable and inspectable. Layers are reconstructed from a
registry of (class name -> constructor kwargs) pairs.
"""

from __future__ import annotations

import numpy as np

from repro.durable import atomic_write_npz, read_npz
from repro.nn.layers import (
    RECURRENT_LAYERS,
    ActivationLayer,
    AddLayer,
    DenseLayer,
    IdentityLayer,
    RecurrentLayer,
)
from repro.nn.model import Network

__all__ = ["save_network", "load_network", "layer_config",
           "network_spec", "network_from_spec"]


_LAYER_CLASSES = {cls.__name__: cls for cls in
                  (DenseLayer, *RECURRENT_LAYERS.values(),
                   AddLayer, ActivationLayer, IdentityLayer)}


def layer_config(layer) -> dict:
    """Constructor kwargs that recreate ``layer`` (untrained)."""
    if isinstance(layer, RecurrentLayer):
        return {"units": layer.units}
    if isinstance(layer, DenseLayer):
        return {"units": layer.units, "activation": layer.activation.name}
    if isinstance(layer, (AddLayer, ActivationLayer)):
        return {"activation": layer.activation.name}
    if isinstance(layer, IdentityLayer):
        return {}
    raise TypeError(f"cannot serialize layer type {type(layer).__name__}")


def network_spec(network: Network) -> dict:
    """JSON-compatible structural description of a network (no weights).

    The shared vocabulary of :func:`save_network` archives and the
    emulator bundles of :mod:`repro.serve.bundle` — both store this spec
    next to the weight arrays returned by ``network.get_weights()``.
    """
    if network.output_name is None:
        raise ValueError("cannot serialize an empty network")
    nodes = []
    for name in network.topological_order:
        spec = network._specs[name]
        nodes.append({"name": name,
                      "class": type(spec.layer).__name__,
                      "config": layer_config(spec.layer),
                      "inputs": list(spec.inputs)})
    return {"input_dim": network.input_dim,
            "output": network.output_name,
            "nodes": nodes}


def network_from_spec(spec: dict, weights: list[np.ndarray], *,
                      source: str = "network spec") -> Network:
    """Rebuild a network from :func:`network_spec` output plus weights.

    ``source`` labels error messages with where the spec came from (a
    file path, a bundle name).
    """
    network = Network(input_dim=int(spec["input_dim"]), rng=0)
    for node in spec["nodes"]:
        try:
            cls = _LAYER_CLASSES[node["class"]]
        except KeyError:
            raise ValueError(f"unknown layer class {node['class']!r} "
                             f"in {source}") from None
        network.add_node(node["name"], cls(**node["config"]),
                         node["inputs"])
    network.set_output(spec["output"])
    network.set_weights(weights)
    return network


def save_network(network: Network, path) -> None:
    """Atomically write the network's structure and weights to ``path``
    (.npz suffix normalized by :func:`repro.durable.npz_path`).

    The header carries ``layout: gate-stacked-v1`` — the recurrent
    weight convention (``wx``/``wh`` with gate blocks stacked along the
    last axis, LSTM order i|f|g|o, GRU order z|r|g) that both the
    reference and the fused kernels consume directly. Archives written
    before the tag existed omit it; :func:`load_network` tolerates its
    absence because the convention never changed — the fused kernels
    were built to read the reference layout in place.
    """
    header = {"format": "repro-network-v1",
              "layout": "gate-stacked-v1", **network_spec(network)}
    arrays = {f"w{i}": w for i, w in enumerate(network.get_weights())}
    atomic_write_npz(path, header, arrays, key="__spec__")


def load_network(path) -> Network:
    """Rebuild a network saved by :func:`save_network`.

    Network headers carry no ``version`` key (the layout tag versions the
    weights instead), so the envelope check admits exactly that.
    """
    header, arrays = read_npz(path, key="__spec__", fmt="repro-network-v1",
                              versions=(None,),
                              describe="a repro network archive")
    layout = header.get("layout", "gate-stacked-v1")
    if layout != "gate-stacked-v1":
        raise ValueError(f"{path}: unsupported weight layout "
                         f"{layout!r} (expected gate-stacked-v1)")
    weights = [arrays[f"w{i}"] for i in range(len(arrays))]
    return network_from_spec(header, weights, source=str(path))
