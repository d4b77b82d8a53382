"""End-to-end integration: the full paper workflow at miniature scale.

Search on the simulated cluster -> post-train the best architecture with
real NumPy training -> forecast fields -> compare against the simulated
process models -> persist and reload the emulator.
"""

import numpy as np
import pytest

from repro.comparators import SimulatedCESM, SimulatedHYCOM, regional_rmse
from repro.data import EASTERN_PACIFIC
from repro.forecast import posttrain_architecture
from repro.hpc import ThetaPartition, run_search
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    SurrogateEvaluator,
)
from repro.nas.space import StackedLSTMSpace
from repro.nas.space.ops import Operation
from repro.serve import load_bundle, save_bundle


@pytest.fixture(scope="module")
def workflow(generator):
    """Run the whole pipeline once; individual tests assert pieces."""
    ops = (Operation("identity"), Operation("lstm", 8),
           Operation("lstm", 16))
    space = StackedLSTMSpace(n_layers=3, input_dim=3, output_dim=3,
                             operations=ops)
    model = ArchitecturePerformanceModel(space, seed=0)
    partition = ThetaPartition(n_nodes=8, wall_seconds=2500.0)
    search = AgingEvolution(space, rng=0, population_size=12, sample_size=4)
    tracker = run_search(search, SurrogateEvaluator(space, model),
                         partition, rng=3)

    train = generator.snapshots(np.arange(150))
    emulator = posttrain_architecture(space, search.best_architecture,
                                      train, epochs=20, rng=0)
    return {"space": space, "search": search, "tracker": tracker,
            "train": train, "emulator": emulator}


class TestSearchPhase:
    def test_search_found_architectures(self, workflow):
        assert workflow["tracker"].n_evaluations > 20
        assert workflow["search"].best_reward > 0.9

    def test_best_architecture_valid(self, workflow):
        workflow["space"].validate(workflow["search"].best_architecture)


class TestPosttrainPhase:
    def test_posttraining_learned(self, workflow):
        assert workflow["emulator"].validation_r2 > 0.3

    def test_emulator_scores_unseen_period(self, workflow, generator):
        future = generator.snapshots(np.arange(150, 220))
        score = workflow["emulator"].score(future)
        assert np.isfinite(score)


class TestSciencePhase:
    def test_beats_cesm_in_eastern_pacific(self, workflow, generator):
        targets = np.arange(170, 185)
        first = int(targets.min()) - workflow["emulator"].pipeline.window
        series = generator.snapshots(
            np.arange(first, targets.max() + 9))
        times, cols = workflow["emulator"].forecast_fields(series, horizon=1)
        absolute = times + first
        keep = np.isin(absolute, targets)
        pod = np.stack([generator.unflatten(c) for c in cols[:, keep].T])
        truth = generator.fields(targets)
        cesm = SimulatedCESM(generator).fields(targets)
        grid, mask = generator.grid, generator.ocean_mask
        pod_rmse = regional_rmse(truth, pod, grid, EASTERN_PACIFIC, mask)
        cesm_rmse = regional_rmse(truth, cesm, grid, EASTERN_PACIFIC, mask)
        assert pod_rmse < cesm_rmse


class TestPersistencePhase:
    def test_save_load_forecast_identical(self, workflow, tmp_path):
        emulator = workflow["emulator"]
        path = save_bundle(emulator, tmp_path / "workflow-emulator.npz")
        loaded = load_bundle(path)
        snaps = workflow["train"][:, -40:]
        a = emulator.score(snaps)
        b = loaded.score(snaps)
        assert a == pytest.approx(b, abs=1e-12)
