"""Shared, lazily built experiment state.

Several experiments need the same expensive artifacts — the dataset, the
test snapshot matrix, a searched best architecture, the post-trained
NAS-POD-LSTM emulator, and the comparator models. ``ReproductionContext``
builds each once on first use and caches it; ``get_context`` memoizes
contexts per preset so a pytest session shares them across benchmarks.
Its :meth:`~ReproductionContext.campaigns` is the one scaling-study
recipe that Table III and Figs. 3, 8 and 9 read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.comparators import SimulatedCESM, SimulatedHYCOM
from repro.data import SSTDataset, load_sst_dataset
from repro.forecast import PODLSTMEmulator
from repro.forecast.posttraining import posttrain_architecture
from repro.hpc import ThetaPartition, rl_node_allocation, run_search
from repro.hpc.tracking import SearchTracker
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    DistributedRL,
    RandomSearch,
    StackedLSTMSpace,
    SurrogateEvaluator,
)

__all__ = ["ExperimentPreset", "ReproductionContext", "get_context"]


@dataclass(frozen=True)
class ExperimentPreset:
    """Knobs that trade fidelity for wall time.

    ``quick`` keeps the full data geometry but shrinks training budgets;
    ``full`` matches the paper-equivalent budgets (see EXPERIMENTS.md for
    the epoch-budget equivalence argument).
    """

    name: str
    degrees: float = 4.0
    seed: int = 0
    posttrain_epochs: int = 250
    search_evaluations: int = 3000
    forest_estimators: int = 100
    boosting_rounds: int = 100
    wall_seconds: float = 3 * 3600.0


QUICK = ExperimentPreset(name="quick", posttrain_epochs=60,
                         search_evaluations=1200, forest_estimators=20,
                         boosting_rounds=40, wall_seconds=1800.0)
FULL = ExperimentPreset(name="full")

_PRESETS = {"quick": QUICK, "full": FULL}

#: The scaling studies' searchers, by name: (space, n_nodes, rng) -> algorithm.
_SEARCHERS = {
    "AE": lambda space, n_nodes, rng: AgingEvolution(space, rng=rng),
    "RL": lambda space, n_nodes, rng: DistributedRL(
        space, rng=rng,
        workers_per_agent=rl_node_allocation(n_nodes).workers_per_agent),
    "RS": lambda space, n_nodes, rng: RandomSearch(space, rng=rng),
}


class ReproductionContext:
    """Lazily built shared artifacts for the experiment suite."""

    def __init__(self, preset: ExperimentPreset) -> None:
        self.preset = preset
        self._dataset: SSTDataset | None = None
        self._test_snapshots: np.ndarray | None = None
        self._space: StackedLSTMSpace | None = None
        self._perf_model: ArchitecturePerformanceModel | None = None
        self._best_architecture: tuple | None = None
        self._emulator: PODLSTMEmulator | None = None
        self._cesm: SimulatedCESM | None = None
        self._hycom: SimulatedHYCOM | None = None

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> SSTDataset:
        if self._dataset is None:
            self._dataset = load_sst_dataset(degrees=self.preset.degrees,
                                             seed=self.preset.seed)
        return self._dataset

    def test_snapshots(self) -> np.ndarray:
        """Full test-period snapshot matrix ``(N_h, n_test)``."""
        if self._test_snapshots is None:
            dataset = self.dataset
            self._test_snapshots = dataset.snapshots(
                np.asarray(dataset.test_indices))
        return self._test_snapshots

    @property
    def space(self) -> StackedLSTMSpace:
        if self._space is None:
            self._space = StackedLSTMSpace()
        return self._space

    @property
    def performance_model(self) -> ArchitecturePerformanceModel:
        if self._perf_model is None:
            self._perf_model = ArchitecturePerformanceModel(
                self.space, seed=self.preset.seed)
        return self._perf_model

    # ------------------------------------------------------------------
    def best_architecture(self) -> tuple:
        """Best architecture from a serial aging-evolution search over the
        surrogate (the scale experiments exercise the full cluster; here
        we only need a good architecture for the science results)."""
        if self._best_architecture is None:
            search = AgingEvolution(self.space,
                                    rng=_stream((self.preset.seed, 0xAE)))
            evaluator = SurrogateEvaluator(self.space, self.performance_model)
            eval_rng = _stream((self.preset.seed, 0xEE))
            for _ in range(self.preset.search_evaluations):
                arch = search.ask()
                search.tell(arch, evaluator.evaluate(arch, eval_rng).reward)
            self._best_architecture = search.best_architecture
        return self._best_architecture

    def campaigns(self, methods: tuple[str, ...], n_nodes: int,
                  key: tuple[int, ...]) -> dict[str, SearchTracker]:
        """One surrogate campaign per method on an ``n_nodes`` partition
        of the preset's wall time, the recipe of Table III and Figs. 3, 8
        and 9.

        Method *i* (1-based, in ``methods`` order, names from ``AE``,
        ``RL``, ``RS``) proposes from ``SeedSequence(key + (i,))``; every
        run's cluster stream is ``SeedSequence(key + (len(methods) + 1,))``
        and every run has a fresh evaluator over the shared performance
        model.
        """
        partition = ThetaPartition(n_nodes=n_nodes,
                                   wall_seconds=self.preset.wall_seconds)
        cluster_seed = key + (len(methods) + 1,)
        trackers: dict[str, SearchTracker] = {}
        for i, name in enumerate(methods, start=1):
            algorithm = _SEARCHERS[name](self.space, n_nodes,
                                         _stream(key + (i,)))
            evaluator = SurrogateEvaluator(self.space, self.performance_model)
            trackers[name] = run_search(algorithm, evaluator, partition,
                                        rng=_stream(cluster_seed))
        return trackers

    def emulator(self) -> PODLSTMEmulator:
        """The post-trained NAS-POD-LSTM (paper Sec. IV-B)."""
        if self._emulator is None:
            self._emulator = posttrain_architecture(
                self.space, self.best_architecture(),
                self.dataset.training_snapshots(),
                epochs=self.preset.posttrain_epochs,
                rng=self.preset.seed)
        return self._emulator

    # ------------------------------------------------------------------
    @property
    def cesm(self) -> SimulatedCESM:
        if self._cesm is None:
            self._cesm = SimulatedCESM(self.dataset.generator,
                                       member_seed=self.preset.seed + 1)
        return self._cesm

    @property
    def hycom(self) -> SimulatedHYCOM:
        if self._hycom is None:
            self._hycom = SimulatedHYCOM(self.dataset.generator)
        return self._hycom


def _stream(key: tuple[int, ...]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


@lru_cache(maxsize=4)
def get_context(preset: str = "quick") -> ReproductionContext:
    """Memoized context per preset name ('quick' or 'full')."""
    try:
        return ReproductionContext(_PRESETS[preset])
    except KeyError:
        raise ValueError(
            f"unknown preset {preset!r}; options: {sorted(_PRESETS)}"
        ) from None
