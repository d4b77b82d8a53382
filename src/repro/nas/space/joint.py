"""Joint architecture + training-hyperparameter search space.

Pawar et al. (PAPERS.md) search a geophysical surrogate's architecture
*and* its training hyperparameters with one genetic algorithm. This
module extends a :class:`~repro.nas.space.search_space.StackedLSTMSpace`
encoding with three trailing hyperparameter genes — learning rate,
input window length, and POD rank — each an index into a small discrete
grid, so the joint space keeps the same mixed-radix integer-tuple
protocol (``cardinalities`` / ``validate`` / ``random_architecture`` /
``mutate`` / ``index_of``) every searcher already speaks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.utils.rng import as_generator

__all__ = ["Hyperparameters", "HyperparameterGrid", "JointArchitectureSpace"]


@dataclass(frozen=True)
class Hyperparameters:
    """Decoded trailing genes of a joint encoding."""

    learning_rate: float
    window: int
    pod_rank: int


class HyperparameterGrid:
    """Discrete grids the three hyperparameter genes index into.

    Defaults bracket the paper's fixed protocol (lr 1e-3, window 8,
    rank 5–6) with a log-spaced lr sweep and symmetric window/rank
    ranges, mirroring the GA sweep of Pawar et al.
    """

    def __init__(self, *,
                 learning_rates: tuple[float, ...] = (
                     1e-4, 3e-4, 1e-3, 3e-3, 1e-2),
                 windows: tuple[int, ...] = (4, 6, 8, 10, 12),
                 pod_ranks: tuple[int, ...] = (2, 4, 6, 8, 10)) -> None:
        self.learning_rates = tuple(float(v) for v in learning_rates)
        self.windows = tuple(int(v) for v in windows)
        self.pod_ranks = tuple(int(v) for v in pod_ranks)
        for name, values in (("learning_rates", self.learning_rates),
                             ("windows", self.windows),
                             ("pod_ranks", self.pod_ranks)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if any(v <= 0 for v in values):
                raise ValueError(f"{name} must be positive, got {values}")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} has duplicate entries: {values}")

    @property
    def cardinalities(self) -> tuple[int, int, int]:
        return (len(self.learning_rates), len(self.windows),
                len(self.pod_ranks))

    def decode(self, genes) -> Hyperparameters:
        """Map three grid-index genes to concrete hyperparameter values."""
        lr_i, w_i, r_i = (int(g) for g in genes)
        return Hyperparameters(learning_rate=self.learning_rates[lr_i],
                               window=self.windows[w_i],
                               pod_rank=self.pod_ranks[r_i])

    def config(self) -> dict:
        """JSON form compared by checkpoint identity checks."""
        return {"learning_rates": list(self.learning_rates),
                "windows": list(self.windows),
                "pod_ranks": list(self.pod_ranks)}

    def __eq__(self, other) -> bool:
        return isinstance(other, HyperparameterGrid) \
            and self.config() == other.config()

    def __repr__(self) -> str:
        return (f"HyperparameterGrid(lrs={len(self.learning_rates)}, "
                f"windows={len(self.windows)}, "
                f"ranks={len(self.pod_ranks)})")


class JointArchitectureSpace:
    """A stacked-LSTM space with three hyperparameter genes appended.

    The encoding is ``arch_genes + (lr_index, window_index, rank_index)``;
    everything a searcher needs (:attr:`cardinalities`, :meth:`validate`,
    :meth:`random_architecture`, :meth:`mutate`, mixed-radix ranking)
    mirrors :class:`~repro.nas.space.search_space.StackedLSTMSpace`, so
    :class:`~repro.nas.algorithms.genetic.GeneticSearch` (and in fact any
    existing searcher) runs on it unchanged.
    """

    N_HYPER = 3

    def __init__(self, arch_space: StackedLSTMSpace,
                 grid: HyperparameterGrid | None = None) -> None:
        self.arch_space = arch_space
        self.grid = grid if grid is not None else HyperparameterGrid()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.arch_space.cardinalities + self.grid.cardinalities

    @property
    def n_variable_nodes(self) -> int:
        return self.arch_space.n_variable_nodes + self.N_HYPER

    @property
    def size(self) -> int:
        total = 1
        for c in self.cardinalities:
            total *= c
        return total

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def validate(self, encoding) -> tuple[int, ...]:
        encoding = tuple(int(v) for v in encoding)
        cards = self.cardinalities
        if len(encoding) != len(cards):
            raise ValueError(
                f"joint encoding length {len(encoding)} != expected "
                f"{len(cards)} (architecture {len(self.arch_space.cardinalities)}"
                f" + {self.N_HYPER} hyperparameter genes)")
        for pos, (value, card) in enumerate(zip(encoding, cards)):
            if not 0 <= value < card:
                raise ValueError(
                    f"position {pos}: value {value} out of range [0, {card})")
        return encoding

    def split(self, encoding) -> tuple[Architecture, Hyperparameters]:
        """Decompose a joint encoding into (architecture, hyperparameters)."""
        encoding = self.validate(encoding)
        return (encoding[:-self.N_HYPER],
                self.grid.decode(encoding[-self.N_HYPER:]))

    def index_of(self, encoding) -> int:
        encoding = self.validate(encoding)
        rank = 0
        for value, card in zip(encoding, self.cardinalities):
            rank = rank * card + value
        return rank

    def from_index(self, rank: int):
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        values = []
        for card in reversed(self.cardinalities):
            values.append(rank % card)
            rank //= card
        return tuple(reversed(values))

    # ------------------------------------------------------------------
    # Sampling and mutation
    # ------------------------------------------------------------------
    def random_architecture(self, rng=None):
        gen = as_generator(rng)
        return tuple(int(gen.integers(card)) for card in self.cardinalities)

    def mutate(self, encoding, rng=None):
        """Re-draw one uniformly chosen gene to a different value —
        the same single-node mutation the architecture space uses, over
        the extended encoding (hyperparameter genes mutate too)."""
        encoding = self.validate(encoding)
        gen = as_generator(rng)
        pos = int(gen.integers(len(encoding)))
        card = self.cardinalities[pos]
        offset = int(gen.integers(1, card))
        child = list(encoding)
        child[pos] = (encoding[pos] + offset) % card
        return tuple(child)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def count_parameters(self, encoding) -> int:
        """Parameter count of the realized network (hyperparameter genes
        do not change the architecture's weight count)."""
        arch, _ = self.split(encoding)
        return self.arch_space.count_parameters(arch)

    def config(self) -> dict:
        return {"grid": self.grid.config()}

    def __repr__(self) -> str:
        return (f"JointArchitectureSpace({self.arch_space!r}, "
                f"{self.grid!r}, size={self.size})")
