"""The stacked-LSTM search space (paper Sec. III-A).

An architecture is a fixed-length sequence of integers — one entry per
*variable node* of the DeepHyper DAG:

* ``n_layers`` **LSTM variable nodes**, each choosing an operation from the
  catalog (Identity or LSTM(u));
* **skip-connection variable nodes**: before variable node ``k`` (k >= 2)
  there is one binary node per candidate *source anchor* beyond the
  immediate predecessor, up to ``max_skip_depth`` anchors back. Anchors are
  the network input and each variable node's output. With the paper's
  ``n_layers = 5`` and ``max_skip_depth = 3`` this yields
  1 + 2 + 3 + 3 = 9 skip nodes, and the total space size
  7^5 * 2^9 = 8,605,184 matches the paper exactly.

Mutation (used by aging evolution) follows the paper: sample one variable
node uniformly, then choose a different value for it uniformly. That
genome protocol (sampling, mutation, the mixed-radix rank) lives in
:class:`MixedRadixSpace`, which the joint architecture + hyperparameter
space inherits too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.nas.space.ops import Operation, default_operations
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["Architecture", "MixedRadixSpace", "StackedLSTMSpace"]


#: An architecture encoding — tuple of ints, hashable so populations and
#: uniqueness counters can use it as a dict/set key.
Architecture = tuple


class MixedRadixSpace:
    """The genome every searcher speaks: one integer per variable node.

    Node ``i`` takes a value in ``[0, cardinalities[i])``; subclasses
    define :attr:`cardinalities`. Sampling, AE's mutation and the
    mixed-radix rank are written here once, so a space that extends the
    encoding (:class:`~repro.nas.space.joint.JointArchitectureSpace`)
    draws exactly as the stacked space does.
    """

    @property
    def cardinalities(self) -> tuple[int, ...]:
        raise NotImplementedError

    @property
    def size(self) -> int:
        """Total number of encodable architectures."""
        return math.prod(self.cardinalities)

    def validate(self, arch: Architecture) -> tuple[int, ...]:
        """Check an encoding and return it as a canonical tuple of ints."""
        arch = tuple(int(v) for v in arch)
        cards = self.cardinalities
        if len(arch) != len(cards):
            raise ValueError(
                f"architecture length {len(arch)} != expected {len(cards)}")
        for pos, (value, card) in enumerate(zip(arch, cards)):
            if not 0 <= value < card:
                raise ValueError(
                    f"position {pos}: value {value} out of range [0, {card})")
        return arch

    def index_of(self, arch: Architecture) -> int:
        """Mixed-radix rank of an encoding in [0, size) — handy for
        uniqueness bookkeeping and hashing-free storage."""
        arch = self.validate(arch)
        rank = 0
        for value, card in zip(arch, self.cardinalities):
            rank = rank * card + value
        return rank

    def from_index(self, rank: int) -> Architecture:
        """Inverse of :meth:`index_of`."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        values = []
        for card in reversed(self.cardinalities):
            values.append(rank % card)
            rank //= card
        return tuple(reversed(values))

    def random_architecture(self, rng=None) -> Architecture:
        """Uniform sample over the whole space."""
        gen = as_generator(rng)
        return tuple(int(gen.integers(card)) for card in self.cardinalities)

    def mutate(self, arch: Architecture, rng=None) -> Architecture:
        """AE's mutation: re-draw one uniformly chosen variable node to a
        *different* value (paper Sec. III-B1). Only nodes with more than
        one value can change, so the node is drawn among those."""
        arch = self.validate(arch)
        gen = as_generator(rng)
        movable = [pos for pos, card in enumerate(self.cardinalities)
                   if card > 1]
        pos = movable[int(gen.integers(len(movable)))]
        card = self.cardinalities[pos]
        # Choose uniformly among the other card-1 values.
        offset = int(gen.integers(1, card))
        child = list(arch)
        child[pos] = (arch[pos] + offset) % card
        return tuple(child)


@dataclass(frozen=True)
class _SkipSlot:
    """One skip-connection variable node: target layer k takes an optional
    connection from the anchor ``source`` (0 = network input, j = output of
    variable node j)."""

    target: int
    source: int


class StackedLSTMSpace(MixedRadixSpace):
    """Search space over stacked LSTM DAGs.

    Parameters
    ----------
    n_layers:
        m — number of LSTM variable nodes (paper: 5).
    input_dim / output_dim:
        Feature dims of the sequence input and output. The output is
        produced by a constant LSTM(output_dim) node (paper Fig. 2:
        "constant LSTM(5) node to match the output dimension of five").
    operations:
        Candidate ops at each LSTM variable node.
    max_skip_depth:
        How many anchors back a skip connection may reach (see module
        docstring).
    """

    def __init__(self, n_layers: int = 5, *, input_dim: int = 5,
                 output_dim: int = 5,
                 operations: tuple[Operation, ...] | None = None,
                 max_skip_depth: int = 3) -> None:
        self.n_layers = check_positive_int(n_layers, name="n_layers")
        self.input_dim = check_positive_int(input_dim, name="input_dim")
        self.output_dim = check_positive_int(output_dim, name="output_dim")
        self.operations = tuple(operations) if operations is not None \
            else default_operations()
        if len(self.operations) < 2:
            raise ValueError("need at least two candidate operations")
        if not isinstance(max_skip_depth, int) or max_skip_depth < 0:
            raise ValueError(
                f"max_skip_depth must be a non-negative int, got "
                f"{max_skip_depth!r}")
        # Depth 0 disables skip connections entirely (ablation variant).
        self.max_skip_depth = max_skip_depth
        self._skip_slots = self._enumerate_skip_slots()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _enumerate_skip_slots(self) -> tuple[_SkipSlot, ...]:
        slots: list[_SkipSlot] = []
        for k in range(2, self.n_layers + 1):
            # Anchors available to layer k: input (0) and outputs of
            # layers 1..k-1. The immediate predecessor (k-1) is always
            # wired; candidates are k-2, k-3, ... (nearest first), at most
            # max_skip_depth of them.
            candidates = list(range(k - 2, -1, -1))[: self.max_skip_depth]
            slots.extend(_SkipSlot(target=k, source=s) for s in candidates)
        return tuple(slots)

    @property
    def skip_slots(self) -> tuple[_SkipSlot, ...]:
        return self._skip_slots

    @property
    def n_skip_nodes(self) -> int:
        return len(self._skip_slots)

    @property
    def n_variable_nodes(self) -> int:
        return self.n_layers + self.n_skip_nodes

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Choice count of each variable node, in encoding order
        (layer ops first, then skip bits)."""
        return (len(self.operations),) * self.n_layers + (2,) * self.n_skip_nodes

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def layer_ops(self, arch: Architecture) -> tuple[Operation, ...]:
        """The operation chosen at each LSTM variable node."""
        arch = self.validate(arch)
        return tuple(self.operations[v] for v in arch[: self.n_layers])

    def active_skips(self, arch: Architecture) -> tuple[_SkipSlot, ...]:
        """Skip slots whose binary choice is 'identity' (connected)."""
        arch = self.validate(arch)
        bits = arch[self.n_layers:]
        return tuple(slot for slot, bit in zip(self._skip_slots, bits) if bit)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def count_parameters(self, arch: Architecture) -> int:
        """Trainable parameter count of the realized network without
        building it (drives the surrogate cost model)."""
        total = 0
        for spec in self.walk(arch):
            if spec["type"] in ("recurrent", "output_lstm"):
                in_dim, units = spec["in_dim"], spec["units"]
                mult = spec.get("gate_multiplier", 4)
                total += mult * ((in_dim + units) * units + units)
            elif spec["type"] == "dense":
                total += spec["in_dim"] * spec["units"] + spec["units"]
        return total

    def walk(self, arch: Architecture):
        """Yield realized-layer specs in construction order.

        Shared by the network builder and the parameter counter so the two
        can never disagree. Specs are dicts with ``type`` in
        {"recurrent", "dense", "add", "output_lstm"} plus wiring info:

        * anchors are labelled ``a0`` (input) .. ``a{n_layers}``;
        * identity ops collapse an anchor onto its predecessor's tensor.
        """
        arch = self.validate(arch)
        ops = self.layer_ops(arch)
        skips_by_target: dict[int, list[int]] = {}
        for slot in self.active_skips(arch):
            skips_by_target.setdefault(slot.target, []).append(slot.source)

        # anchor_tensor[j] = name of the tensor anchor j resolves to.
        anchor_tensor = {0: "input"}
        anchor_dim = {0: self.input_dim}
        current, current_dim = "input", self.input_dim

        for k in range(1, self.n_layers + 1):
            op = ops[k - 1]
            # Resolve incoming skip connections for this node first: each
            # projects its source anchor to the current width via a linear
            # dense layer, then merges with the main path through
            # add + ReLU (paper Sec. III-A / Sec. IV).
            sources = skips_by_target.get(k, [])
            merge_inputs = [current]
            for src in sorted(sources):
                src_tensor = anchor_tensor[src]
                if src_tensor == current:
                    # Identity ops can collapse a "skip" onto the main
                    # path; adding a tensor to itself is pointless, skip it.
                    continue
                proj = {"type": "dense", "name": f"proj_{src}_to_{k}",
                        "in_dim": anchor_dim[src], "units": current_dim,
                        "input": src_tensor}
                yield proj
                merge_inputs.append(proj["name"])
            if len(merge_inputs) > 1:
                add = {"type": "add", "name": f"add_{k}",
                       "inputs": tuple(merge_inputs), "dim": current_dim}
                yield add
                current = add["name"]
            if op.is_identity:
                anchor_tensor[k] = current
                anchor_dim[k] = current_dim
                continue
            lstm = {"type": "recurrent", "kind": op.kind,
                    "gate_multiplier": op.gate_multiplier,
                    "name": f"{op.kind}_{k}",
                    "in_dim": current_dim, "units": op.units,
                    "input": current}
            yield lstm
            current, current_dim = lstm["name"], op.units
            anchor_tensor[k] = current
            anchor_dim[k] = current_dim

        yield {"type": "output_lstm", "name": "output",
               "in_dim": current_dim, "units": self.output_dim,
               "input": current}

    def __repr__(self) -> str:
        return (f"StackedLSTMSpace(n_layers={self.n_layers}, "
                f"ops={len(self.operations)}, "
                f"skips={self.n_skip_nodes}, size={self.size})")
