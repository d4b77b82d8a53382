"""Operation catalog for the variable LSTM nodes.

The paper lists [Identity, LSTM(16), LSTM(32), LSTM(64), LSTM(80),
LSTM(96)] but reports a total space of 8,605,184 = 7^5 x 2^9
architectures, which implies seven operations per LSTM variable node in
the actual runs; we insert LSTM(48) to complete the geometric ladder (see
DESIGN.md Sec. 4). The catalog is a plain parameter — experiments that
want the 6-op list can pass it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.layers import RECURRENT_LAYERS

__all__ = ["Operation", "default_operations"]


@dataclass(frozen=True)
class Operation:
    """One candidate operation at a variable node.

    ``kind`` is ``"identity"`` (layer skipped entirely) or a recurrent
    cell: ``"lstm"`` (the paper's space), ``"gru"`` or ``"rnn"`` (the
    hybrid-cell extension the paper's future work motivates), each with
    ``units`` hidden neurons.
    """

    kind: str
    units: int = 0

    def __post_init__(self) -> None:
        if self.kind != "identity" and self.kind not in RECURRENT_LAYERS:
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind in RECURRENT_LAYERS and self.units <= 0:
            raise ValueError(
                f"{self.kind} units must be positive, got {self.units}")
        if self.kind == "identity" and self.units != 0:
            raise ValueError("identity op takes no units")

    @property
    def is_identity(self) -> bool:
        return self.kind == "identity"

    @property
    def gate_multiplier(self) -> int:
        """Parameter-count multiplier of the cell's gate block:
        ``params = mult * ((in + units) * units + units)``."""
        return RECURRENT_LAYERS[self.kind].GATES

    def __str__(self) -> str:
        return "Identity" if self.is_identity else \
            f"{self.kind.upper()}({self.units})"


def default_operations() -> tuple[Operation, ...]:
    """The 7-operation catalog reproducing the paper's space size."""
    return (Operation("identity"),
            Operation("lstm", 16),
            Operation("lstm", 32),
            Operation("lstm", 48),
            Operation("lstm", 64),
            Operation("lstm", 80),
            Operation("lstm", 96))


def hybrid_operations() -> tuple[Operation, ...]:
    """Extended catalog mixing cell types (LSTM / GRU / SimpleRNN) — the
    hybrid-memory-structure search the paper's related work (Ororbia et
    al.) explores and its future work proposes."""
    return (Operation("identity"),
            Operation("lstm", 32), Operation("lstm", 64),
            Operation("lstm", 96),
            Operation("gru", 32), Operation("gru", 64),
            Operation("gru", 96),
            Operation("rnn", 32), Operation("rnn", 64))
