"""Aging evolution (regularized evolution), paper Sec. III-B1.

Completely asynchronous evolutionary algorithm after Real et al. (2019):

* a population of the ``population_size`` most recently evaluated
  architectures is kept in a FIFO ring (ageing: the *oldest* member is
  replaced, regardless of fitness — the regularization mechanism the paper
  credits for AE's robustness to training noise);
* to propose a child, ``sample_size`` members are drawn uniformly without
  replacement, the fittest of the sample is the parent, and a single
  variable node of the parent is mutated to a different value;
* until the population is primed, proposals are random (the initial
  population of the paper).

Proposal requires no communication and no barrier: any number of asks may
be outstanding, and tells may arrive in any order — exactly the property
that gives AE its node-utilization advantage on the simulated cluster.
"""

from __future__ import annotations

from collections import deque

from repro.nas.algorithms.base import SearchAlgorithm
from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.utils.validation import check_positive_int

__all__ = ["AgingEvolution"]


class AgingEvolution(SearchAlgorithm):
    """Asynchronous aging evolution.

    Parameters
    ----------
    population_size:
        p — ring capacity (paper: 100).
    sample_size:
        s — tournament sample per mutation (paper: 10).
    aging:
        True (default) replaces the *oldest* member — regularized
        evolution. False replaces the *worst* member instead (classical
        tournament GA) — the ablation the paper's Sec. IV-A discussion
        motivates: without ageing, a lucky noisy evaluation can sit in the
        population forever.
    """

    asynchronous = True

    def __init__(self, space: StackedLSTMSpace, rng=None, *,
                 population_size: int = 100, sample_size: int = 10,
                 aging: bool = True) -> None:
        super().__init__(space, rng)
        self.aging = bool(aging)
        self.population_size = check_positive_int(population_size,
                                                  name="population_size")
        self.sample_size = check_positive_int(sample_size, name="sample_size")
        if self.sample_size > self.population_size:
            raise ValueError(
                f"sample_size ({sample_size}) cannot exceed population_size "
                f"({population_size})")
        self.population: deque[tuple[Architecture, float]] = deque(
            maxlen=self.population_size)

    def can_ask_ahead(self) -> bool:
        # Asks 1..p draw random_architecture(self.rng) and _observe never
        # touches the RNG, so a priming ask reads no tell.
        return self.n_asked < self.population_size

    def _propose(self) -> Architecture:
        # Random initialization phase: propose random architectures until
        # enough evaluations have come back to fill the population. Using
        # n_asked keeps concurrent workers from all mutating a tiny early
        # population.
        if self.n_asked <= self.population_size or not self.population:
            return self.space.random_architecture(self.rng)
        k = min(self.sample_size, len(self.population))
        sample_idx = self.rng.choice(len(self.population), size=k,
                                     replace=False)
        parent = max((self.population[int(i)] for i in sample_idx),
                     key=lambda entry: entry[1])[0]
        return self.space.mutate(parent, self.rng)

    def _observe(self, arch: Architecture, reward: float) -> None:
        if self.aging or len(self.population) < self.population_size:
            # deque(maxlen=p) evicts the oldest member automatically.
            self.population.append((arch, reward))
            return
        # Non-aging ablation: evict the current worst instead.
        worst = min(range(len(self.population)),
                    key=lambda i: self.population[i][1])
        if reward > self.population[worst][1]:
            del self.population[worst]
            self.population.append((arch, reward))

    def _state_extra(self) -> dict:
        return {"population_size": self.population_size,
                "sample_size": self.sample_size,
                "aging": self.aging,
                "population": [[list(arch), float(reward)]
                               for arch, reward in self.population]}

    def _load_extra(self, state: dict) -> None:
        self.population.clear()
        for arch, reward in state["population"]:
            self.population.append((self.space.validate(arch),
                                    float(reward)))

    @property
    def population_rewards(self) -> list[float]:
        """Rewards of current population members, oldest first."""
        return [reward for _, reward in self.population]
