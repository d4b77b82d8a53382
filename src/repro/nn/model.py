"""DAG network: named nodes executed in topological order.

DeepHyper represents an architecture as a directed acyclic graph of
operations (paper Sec. III-A); ``Network`` is the executable counterpart.
Nodes are added with explicit input wiring, and a node may only read
nodes added before it, so the graph is acyclic by construction. The
topological order runs generation by generation
(:attr:`Network.topological_order`). Backward traverses the reverse
order, summing gradient contributions from every consumer of a node (the
fan-out rule for skip connections).

Forward walks the topological order one node at a time and uses
:meth:`Network.live_spans` — a live-variable analysis over that order —
to drop node outputs as soon as their last consumer has read them,
bounding peak activation memory on deep graphs. One forward never runs
two nodes at once; :meth:`Network.predict` runs the *chunks* of a large
batch on one thread per usable CPU instead, each chunk an independent
inference forward of one shape.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.nn.detmath import batch_invariant, batch_invariant_enabled
from repro.nn.layers.base import Layer
from repro.utils.rng import as_generator

__all__ = ["NodeSpec", "Network"]

INPUT = "input"  # reserved name of the network input


def _usable_cpus() -> list[int]:
    """CPUs the calling thread may run on: its affinity mask where the
    platform has one, else every CPU."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _pin(cpu: int) -> None:
    """Keep the calling thread on ``cpu`` where the platform allows it.

    Unpinned, a helper that hands the GIL back and forth with its caller
    is woken onto the caller's CPU, and the two then share one core
    until the scheduler spreads them: the first ~16 threaded predicts of
    a process measured no faster than the serial walk. A CPU that cannot
    be pinned leaves the thread where the scheduler puts it.
    """
    try:
        os.sched_setaffinity(0, (cpu,))
    except (AttributeError, OSError):
        pass


@dataclass(frozen=True)
class NodeSpec:
    """Declarative node description: a layer and where its inputs come from."""

    name: str
    layer: Layer
    inputs: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.name == INPUT:
            raise ValueError(f"node name {INPUT!r} is reserved")
        if not self.inputs:
            raise ValueError(f"node {self.name!r} declares no inputs")


class Network:
    """Executable DAG of layers.

    Parameters
    ----------
    input_dim:
        Feature dimension of the ``(B, T, input_dim)`` input tensor.
    rng:
        Seed/generator for weight initialization — build order is
        deterministic (insertion order), so a fixed seed reproduces weights.
    """

    def __init__(self, input_dim: int, rng=None) -> None:
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        self._rng = as_generator(rng)
        # Consumers of each value, one entry per distinct input, in the
        # order the consumers were added.
        self._successors: dict[str, list[str]] = {INPUT: []}
        self._specs: dict[str, NodeSpec] = {}
        self._dims: dict[str, int] = {INPUT: self.input_dim}
        self._order: list[str] | None = None
        self.output_name: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, layer: Layer, inputs) -> str:
        """Add and build a node. ``inputs`` is a sequence of node names
        (use ``"input"`` for the network input). Returns ``name``."""
        spec = NodeSpec(name=name, layer=layer, inputs=tuple(inputs))
        if name in self._specs:
            raise ValueError(f"duplicate node name {name!r}")
        for src in spec.inputs:
            if src != INPUT and src not in self._specs:
                raise ValueError(
                    f"node {name!r} references unknown input {src!r}")
        dims = [self._dims[src] for src in spec.inputs]
        layer.build(dims, self._rng)
        self._specs[name] = spec
        self._dims[name] = layer.output_dim
        self._successors[name] = []
        for src in dict.fromkeys(spec.inputs):
            self._successors[src].append(name)
        self._order = None
        self.output_name = name  # latest node is the output by default
        return name

    def set_output(self, name: str) -> None:
        """Designate which node's tensor the network returns."""
        if name not in self._specs:
            raise ValueError(f"unknown node {name!r}")
        self.output_name = name

    def node_dim(self, name: str) -> int:
        """Feature dimension produced by node ``name``."""
        return self._dims[name]

    @property
    def node_names(self) -> list[str]:
        return list(self._specs)

    def layer(self, name: str) -> Layer:
        return self._specs[name].layer

    @property
    def topological_order(self) -> list[str]:
        """Nodes generation by generation: first the input's consumers
        in the order they were added; then, walking each generation in
        order, every consumer whose last distinct input it supplied.
        Every weight list follows this order (``get_weights``, saved
        archives, the clip norm's sum)."""
        if self._order is None:
            waiting = {name: len(set(spec.inputs))
                       for name, spec in self._specs.items()}
            order: list[str] = []
            generation = [INPUT]
            while generation:
                ready = []
                for node in generation:
                    for child in self._successors[node]:
                        waiting[child] -= 1
                        if not waiting[child]:
                            ready.append(child)
                order += ready
                generation = ready
            self._order = order
        return self._order

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def live_spans(self) -> dict[str, int]:
        """Live-variable analysis over the topological order.

        Returns, for every value name (nodes and ``"input"``), the index
        in :attr:`topological_order` of its *last consumer* — the point
        after which the value is dead and its tensor can be dropped. The
        output node is live to the end; a value nobody consumes dies at
        its own index (``-1`` for an unconsumed input).
        """
        order = self.topological_order
        pos = {name: i for i, name in enumerate(order)}
        last = {INPUT: -1}
        for name in order:
            last[name] = pos[name]
        for name in order:
            for src in self._specs[name].inputs:
                last[src] = max(last[src], pos[name])
        if self.output_name is not None:
            last[self.output_name] = len(order) - 1
        return last

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the DAG; returns the output node's tensor.

        Only a ``training`` forward records what :meth:`backward` needs;
        an inference forward changes no state of the network or its
        layers, so several threads may run one at once.
        """
        if self.output_name is None:
            raise RuntimeError("network has no nodes")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ValueError(
                f"expected input of shape (B, T, {self.input_dim}), "
                f"got {x.shape}")
        order = self.topological_order
        spans = self.live_spans()
        free_at: dict[int, list[str]] = defaultdict(list)
        for name, idx in spans.items():
            if name != self.output_name:
                free_at[idx].append(name)
        values: dict[str, np.ndarray] = {INPUT: x}
        if training:
            self._values_shapes = {INPUT: x.shape}
        for i, name in enumerate(order):
            spec = self._specs[name]
            inputs = [values[src] for src in spec.inputs]
            result = spec.layer.forward(inputs, training=training)
            values[name] = result
            if training:
                self._values_shapes[name] = result.shape
            # Dead after this step: no later node reads them.
            for dead in free_at.get(i, ()):
                values.pop(dead, None)
        return values[self.output_name]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate dL/d(output); accumulates layer grads and returns
        dL/d(input). Must follow a ``forward(training=True)`` call."""
        if self.output_name is None:
            raise RuntimeError("network has no nodes")
        pending: dict[str, np.ndarray] = {self.output_name:
                                          np.asarray(grad_output,
                                                     dtype=np.float64)}
        input_grad: np.ndarray | None = None
        for name in reversed(self.topological_order):
            grad = pending.pop(name, None)
            if grad is None:
                # Node does not influence the output (dead branch) — its
                # layers received no gradient this step.
                continue
            spec = self._specs[name]
            input_grads = spec.layer.backward(grad)
            for src, g in zip(spec.inputs, input_grads):
                if src == INPUT:
                    input_grad = g if input_grad is None else input_grad + g
                elif src in pending:
                    pending[src] = pending[src] + g
                else:
                    pending[src] = g
        if input_grad is None:
            input_grad = np.zeros(self._values_shapes[INPUT])
        return input_grad

    def predict(self, x: np.ndarray, batch_size: int | None = None
                ) -> np.ndarray:
        """Inference, optionally chunked to bound peak memory.

        A ``batch_size`` that does not divide the input runs a smaller
        final chunk. Chunks are independent forwards of one shape, so
        they run on one thread per usable CPU (:func:`_usable_cpus`, at
        most one per chunk; the calling thread is one of them and each
        helper is pinned to a CPU of its own). Each thread claims the
        next unclaimed chunk and writes it into its rows of one output
        array: the bytes of the serial walk. A caller inside
        :func:`~repro.nn.detmath.batch_invariant` has every chunk run
        inside it. Every thread is joined before this returns or raises,
        and the first exception a chunk raised is re-raised here.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim >= 1 and x.shape[0] == 0:
            raise ValueError(
                "cannot run inference on an empty batch: input has 0 "
                "examples (shape {})".format(x.shape))
        if batch_size is not None and batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {batch_size}")
        if batch_size is None or x.shape[0] <= batch_size:
            return self.forward(x, training=False)
        if self.output_name is None:
            raise RuntimeError("network has no nodes")
        n_chunks = -(-x.shape[0] // batch_size)
        out = np.empty(x.shape[:2] + (self._dims[self.output_name],))
        claims = itertools.count()
        errors: list[BaseException] = []
        invariant = batch_invariant_enabled()

        def walk(cpu: int | None = None) -> None:
            try:
                if cpu is not None:
                    _pin(cpu)
                with batch_invariant() if invariant else nullcontext():
                    # next() on a count is atomic: each chunk is claimed
                    # by exactly one thread.
                    for chunk in claims:
                        if chunk >= n_chunks or errors:
                            return
                        rows = slice(chunk * batch_size,
                                     (chunk + 1) * batch_size)
                        out[rows] = self.forward(x[rows], training=False)
            except BaseException as exc:  # re-raised by the caller
                errors.append(exc)

        threads: list[threading.Thread] = []
        try:
            for cpu in _usable_cpus()[1:n_chunks]:
                thread = threading.Thread(target=walk, args=(cpu,))
                thread.start()
                threads.append(thread)
            walk()
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        return out

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters_and_gradients(self):
        """Yield (param, grad) pairs in deterministic order."""
        for name in self.topological_order:
            layer = self._specs[name].layer
            for key in sorted(layer.params):
                yield layer.params[key], layer.grads[key]

    def zero_grads(self) -> None:
        for name in self.topological_order:
            self._specs[name].layer.zero_grads()

    @property
    def n_parameters(self) -> int:
        return sum(self._specs[n].layer.n_parameters
                   for n in self.topological_order)

    def get_weights(self) -> list[np.ndarray]:
        """Copies of all parameters (checkpointing)."""
        return [p.copy() for p, _ in self.parameters_and_gradients()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        params = [p for p, _ in self.parameters_and_gradients()]
        if len(params) != len(weights):
            raise ValueError(
                f"expected {len(params)} arrays, got {len(weights)}")
        for param, value in zip(params, weights):
            if param.shape != value.shape:
                raise ValueError(
                    f"shape mismatch: {param.shape} vs {value.shape}")
            param[...] = value

    def summary(self) -> str:
        """Human-readable architecture description (paper Fig. 4 analogue)."""
        lines = [f"Network(input_dim={self.input_dim}, "
                 f"params={self.n_parameters})"]
        for name in self.topological_order:
            spec = self._specs[name]
            srcs = ", ".join(spec.inputs)
            marker = " <- output" if name == self.output_name else ""
            lines.append(f"  {name}: {spec.layer!r} "
                         f"(inputs: {srcs}; dim={self._dims[name]}){marker}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Network(nodes={len(self._specs)}, "
                f"params={self.n_parameters})")
