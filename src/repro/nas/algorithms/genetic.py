"""Generational genetic algorithm for joint arch/hyperparameter search.

Pawar et al. (PAPERS.md) tune a geophysical surrogate's architecture and
training hyperparameters with one GA; this searcher reproduces that
recipe over any mixed-radix integer-tuple space — in particular
:class:`~repro.nas.space.joint.JointArchitectureSpace`, whose trailing
genes select learning rate, input window, and POD rank.

The GA is generational but *ask/tell-asynchronous*: proposals come from
a bred-offspring queue, and a new generation is bred as soon as a full
population of tells has accumulated, regardless of the ask/tell
interleaving. When the queue runs dry between generations (more workers
than offspring), proposals fall back to random immigrants — fresh
genetic material, counted in ``nas/ga/immigrants``. Every random draw
comes from the algorithm's own RNG in event order, so a campaign is a
pure function of the (deterministic) executor event sequence and
checkpoints restore the exact trajectory.

``speculative_ask`` stays False: the proposal stream depends on tell
timing (breeding), so ask-ahead would make the trajectory depend on
worker-pool depth and break the bitwise serial==pooled contract.
"""

from __future__ import annotations

from collections import deque

from repro import obs
from repro.durable import check_identity
from repro.nas.algorithms.base import SearchAlgorithm
from repro.nas.space.search_space import Architecture
from repro.utils.validation import check_positive_int

__all__ = ["GeneticSearch"]


class GeneticSearch(SearchAlgorithm):
    """Elitist generational GA with tournament selection, uniform
    crossover, and per-gene mutation.

    Parameters
    ----------
    population_size:
        Individuals per generation (and tells required to breed).
    tournament_size:
        Sample size for each parent-selection tournament.
    crossover_rate:
        Probability an offspring is bred from two parents by uniform
        crossover (otherwise it is a clone of the first parent).
    mutation_rate:
        Per-gene redraw probability. ``None`` (default) uses ``1/L`` for
        an encoding of length ``L`` — one expected mutation per child.
    elite:
        Number of best individuals carried into the next generation's
        breeding pool alongside the fresh results.
    """

    asynchronous = True
    speculative_ask = False

    def __init__(self, space, rng=None, *, population_size: int = 20,
                 tournament_size: int = 4, crossover_rate: float = 0.9,
                 mutation_rate: float | None = None, elite: int = 2) -> None:
        super().__init__(space, rng)
        self.population_size = check_positive_int(population_size,
                                                  name="population_size")
        self.tournament_size = check_positive_int(tournament_size,
                                                  name="tournament_size")
        if self.tournament_size > self.population_size:
            raise ValueError(
                f"tournament_size ({tournament_size}) cannot exceed "
                f"population_size ({population_size})")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError(
                f"crossover_rate must be in [0, 1], got {crossover_rate}")
        self.crossover_rate = float(crossover_rate)
        if mutation_rate is not None and not 0.0 < mutation_rate <= 1.0:
            raise ValueError(
                f"mutation_rate must be in (0, 1], got {mutation_rate}")
        self.mutation_rate = (float(mutation_rate)
                              if mutation_rate is not None else None)
        if not isinstance(elite, int) or elite < 0:
            raise ValueError(f"elite must be a non-negative int, got {elite!r}")
        if elite > self.population_size:
            raise ValueError(
                f"elite ({elite}) cannot exceed population_size "
                f"({population_size})")
        self.elite = elite
        self.generation = 0
        self.n_immigrants = 0
        self.population: list[tuple[Architecture, float]] = []
        self._results: list[tuple[Architecture, float]] = []
        self._pending: deque[Architecture] = deque()

    def config(self) -> dict:
        """The experiment-defining knobs — checkpoint identity."""
        return {"population_size": self.population_size,
                "tournament_size": self.tournament_size,
                "crossover_rate": self.crossover_rate,
                "mutation_rate": self.mutation_rate,
                "elite": self.elite}

    # ------------------------------------------------------------------
    # Ask/tell protocol
    # ------------------------------------------------------------------
    def _propose(self) -> Architecture:
        # Seeding phase: the first population is uniform random, keyed on
        # n_asked so concurrent workers never breed from an empty pool.
        if self.n_asked <= self.population_size:
            return self.space.random_architecture(self.rng)
        if not self._pending and len(self._results) >= self.population_size:
            self._breed()
        if self._pending:
            return self._pending.popleft()
        # Offspring queue exhausted before enough tells came back: feed
        # the workers fresh genetic material rather than stalling.
        self.n_immigrants += 1
        if obs.enabled():
            obs.counter_add("nas/ga/immigrants")
        return self.space.random_architecture(self.rng)

    def _observe(self, arch: Architecture, reward: float) -> None:
        self._results.append((arch, reward))

    # ------------------------------------------------------------------
    # Breeding
    # ------------------------------------------------------------------
    def _breed(self) -> None:
        """Form the next generation and queue its offspring."""
        pool = sorted(self.population, key=lambda e: e[1], reverse=True)
        pool = pool[:self.elite] + self._results
        # Stable sort: on reward ties, elites (listed first) win.
        pool.sort(key=lambda e: e[1], reverse=True)
        self.population = pool[:self.population_size]
        self._results = []
        self.generation += 1
        if obs.enabled():
            obs.counter_add("nas/ga/generations")
        for _ in range(self.population_size):
            self._pending.append(self._make_offspring())

    def _select(self) -> Architecture:
        k = min(self.tournament_size, len(self.population))
        idx = self.rng.choice(len(self.population), size=k, replace=False)
        return max((self.population[int(i)] for i in idx),
                   key=lambda entry: entry[1])[0]

    def _make_offspring(self) -> Architecture:
        parent = self._select()
        child = list(parent)
        if float(self.rng.random()) < self.crossover_rate:
            other = self._select()
            # Uniform crossover: each gene comes from either parent.
            for pos in range(len(child)):
                if int(self.rng.integers(2)):
                    child[pos] = other[pos]
            if obs.enabled():
                obs.counter_add("nas/ga/crossovers")
        cards = self.space.cardinalities
        rate = (self.mutation_rate if self.mutation_rate is not None
                else 1.0 / len(cards))
        for pos, card in enumerate(cards):
            if float(self.rng.random()) < rate:
                offset = int(self.rng.integers(1, card))
                child[pos] = (child[pos] + offset) % card
                if obs.enabled():
                    obs.counter_add("nas/ga/mutations")
        return self.space.validate(child)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _state_extra(self) -> dict:
        return {"config": self.config(),
                "generation": self.generation,
                "n_immigrants": self.n_immigrants,
                "population": [[list(arch), float(reward)]
                               for arch, reward in self.population],
                "results": [[list(arch), float(reward)]
                            for arch, reward in self._results],
                "pending": [list(arch) for arch in self._pending]}

    def _load_extra(self, state: dict) -> None:
        check_identity("GeneticSearch state", "GA config", state["config"],
                       self.config())
        self.generation = int(state["generation"])
        self.n_immigrants = int(state["n_immigrants"])
        self.population = [(self.space.validate(arch), float(reward))
                           for arch, reward in state["population"]]
        self._results = [(self.space.validate(arch), float(reward))
                         for arch, reward in state["results"]]
        self._pending = deque(self.space.validate(arch)
                              for arch in state["pending"])

    @property
    def population_rewards(self) -> list[float]:
        """Rewards of the current generation's members, best first."""
        return [reward for _, reward in self.population]
