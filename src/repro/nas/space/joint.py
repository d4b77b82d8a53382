"""Joint architecture + training-hyperparameter search space.

Pawar et al. (PAPERS.md) search a geophysical surrogate's architecture
*and* its training hyperparameters with one genetic algorithm. This
module extends a :class:`~repro.nas.space.search_space.StackedLSTMSpace`
encoding with three trailing hyperparameter genes — learning rate,
input window length, and POD rank — each an index into a small discrete
grid. The joint space inherits the architecture genome
(:class:`~repro.nas.space.search_space.MixedRadixSpace`: ``validate`` /
``random_architecture`` / ``mutate`` / ``index_of`` / ``from_index``)
and defines only its ``cardinalities``, so every searcher runs on it
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nas.space.search_space import Architecture, MixedRadixSpace, \
    StackedLSTMSpace

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


class JointArchitectureSpace(MixedRadixSpace):
    """A stacked-LSTM space with three hyperparameter genes appended.

    The encoding is ``arch_genes + (lr_index, window_index, rank_index)``.
    Sampling, mutation (hyperparameter genes mutate too) and the
    mixed-radix rank are the architecture space's, over the extended
    :attr:`cardinalities`, so
    :class:`~repro.nas.algorithms.genetic.GeneticSearch` (and in fact any
    existing searcher) runs on it unchanged.
    """

    N_HYPER = 3

    def __init__(self, arch_space: StackedLSTMSpace,
                 grid: HyperparameterGrid | None = None) -> None:
        self.arch_space = arch_space
        self.grid = grid if grid is not None else HyperparameterGrid()

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return self.arch_space.cardinalities + self.grid.cardinalities

    @property
    def n_variable_nodes(self) -> int:
        return self.arch_space.n_variable_nodes + self.N_HYPER

    def split(self, encoding) -> tuple[Architecture, Hyperparameters]:
        """Decompose a joint encoding into (architecture, hyperparameters)."""
        encoding = self.validate(encoding)
        return (encoding[:-self.N_HYPER],
                self.grid.decode(encoding[-self.N_HYPER:]))

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
