"""Experiment-driver tests on a miniature preset.

These exercise the same code paths as the paper-scale benchmarks but with
tiny budgets, asserting structural correctness and the coarse orderings
(full-shape assertions live in the benchmarks).
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.experiments.context import (
    ExperimentPreset,
    ReproductionContext,
    get_context,
)


@pytest.fixture(scope="module")
def mini_ctx():
    preset = ExperimentPreset(name="mini", degrees=12.0, seed=3,
                              posttrain_epochs=4, search_evaluations=150,
                              forest_estimators=4, boosting_rounds=6,
                              wall_seconds=900.0)
    return ReproductionContext(preset)


class TestContext:
    def test_get_context_memoized(self):
        assert get_context("quick") is get_context("quick")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_context("huge")

    def test_lazy_dataset(self, mini_ctx):
        ds = mini_ctx.dataset
        assert ds is mini_ctx.dataset  # cached
        assert ds.grid.degrees == 12.0

    def test_best_architecture_valid_and_cached(self, mini_ctx):
        arch = mini_ctx.best_architecture()
        mini_ctx.space.validate(arch)
        assert mini_ctx.best_architecture() is arch

    def test_test_snapshots_shape(self, mini_ctx):
        snaps = mini_ctx.test_snapshots()
        assert snaps.shape == (mini_ctx.dataset.n_ocean,
                               mini_ctx.dataset.n_test)


class TestSearchExperiments:
    def test_fig3_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import fig3_trajectories as f3
        monkeypatch.setattr(f3, "get_context", lambda preset: mini_ctx)
        result = f3.run_fig3("mini", n_nodes=24, seed=1)
        assert set(result.trajectories) == {"AE", "RL", "RS"}
        for times, rewards in result.trajectories.values():
            assert times.size == rewards.size > 0
        assert 0.5 < result.reward_at("AE", 10.0) < 1.0

    def test_table3_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import table3_scaling as t3
        monkeypatch.setattr(t3, "get_context", lambda preset: mini_ctx)
        result = t3.run_table3("mini", node_counts=(24, 48), seed=1)
        assert set(result.table) == {24, 48}
        for methods in result.table.values():
            assert set(methods) == {"AE", "RL", "RS"}
        # Asynchronous methods beat RL utilization at every size.
        for methods in result.table.values():
            assert methods["AE"][0] > methods["RL"][0]
            assert methods["RS"][0] > methods["RL"][0]
        # Evaluations grow with node count for AE.
        assert result.table[48]["AE"][1] > result.table[24]["AE"][1]

    def test_fig8_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import fig8_scaling_architectures as f8
        monkeypatch.setattr(f8, "get_context", lambda preset: mini_ctx)
        result = f8.run_fig8("mini", node_counts=(24,), seed=1,
                             threshold=0.94)
        assert 24 in result.ae_curves
        counts = result.final_counts[24]
        assert set(counts) == {"AE", "RL", "RS"}

    def test_fig9_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import fig9_variability as f9
        monkeypatch.setattr(f9, "get_context", lambda preset: mini_ctx)
        result = f9.run_fig9("mini", n_nodes=24, n_repetitions=3, seed=1)
        assert result.final_rewards["AE"].shape == (3,)
        mean, band = result.reward_band("AE")
        assert 0.5 < mean < 1.0
        assert band >= 0.0

    def test_fig4_description(self, mini_ctx, monkeypatch):
        from repro.experiments import fig4_best_architecture as f4
        monkeypatch.setattr(f4, "get_context", lambda preset: mini_ctx)
        result = f4.run_fig4("mini")
        assert "layer ops" in result.description
        assert result.n_parameters > 0
        assert 0 <= result.n_active_layers <= 5


class TestScienceExperiments:
    def test_fig5_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import fig5_posttraining as f5
        monkeypatch.setattr(f5, "get_context", lambda preset: mini_ctx)
        result = f5.run_fig5("mini")
        assert len(result.train_mode_r2) == 5
        assert len(result.cesm_mode_correlation) == 5
        assert np.isfinite(result.validation_r2)

    def test_table1_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import table1_rmse as t1
        monkeypatch.setattr(t1, "get_context", lambda preset: mini_ctx)
        result = t1.run_table1("mini", max_targets=10, n_weeks=3)
        assert result.weeks == [1, 2, 3]
        assert set(result.rmse) == {"Predicted", "CESM", "HYCOM"}
        for values in result.rmse.values():
            assert len(values) == 3
            assert all(v > 0 for v in values)
        # CESM (uninitialized climate run) is the least accurate system.
        assert result.rmse["CESM"][0] > result.rmse["HYCOM"][0]

    def test_fig6_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import fig6_field_forecast as f6
        monkeypatch.setattr(f6, "get_context", lambda preset: mini_ctx)
        result = f6.run_fig6("mini")
        assert set(result.fields) == {"NOAA (truth)", "HYCOM", "CESM",
                                      "POD-LSTM"}
        assert result.global_rmse["NOAA (truth)"] == 0.0
        for name in ("HYCOM", "CESM", "POD-LSTM"):
            assert result.global_rmse[name] > 0.0

    def test_fig7_structure(self, mini_ctx, monkeypatch):
        from repro.experiments import fig7_probes as f7
        monkeypatch.setattr(f7, "get_context", lambda preset: mini_ctx)
        result = f7.run_fig7("mini", max_targets=12)
        from repro.experiments.fig7_probes import PROBES
        for name, per_probe in result.rmse.items():
            assert set(per_probe) == set(PROBES)
        for probe in PROBES:
            assert result.rmse["NOAA (truth)"][probe] == 0.0


def _digest(value) -> str:
    """sha256 of ``value`` as sorted-key JSON: arrays carry their dtype
    and shape, trackers their ``state_dict()``, floats their exact repr."""
    def jsonable(obj):
        if isinstance(obj, np.ndarray):
            return [str(obj.dtype), list(obj.shape), obj.tolist()]
        if isinstance(obj, np.integer):
            return int(obj)
        if hasattr(obj, "state_dict"):
            return obj.state_dict()
        raise TypeError(f"cannot digest {type(obj).__name__}")
    text = json.dumps(value, sort_keys=True, default=jsonable)
    return hashlib.sha256(text.encode()).hexdigest()


#: run_fig3(n_nodes=24, seed=1): evaluations per method and the digest
#: of the trackers and moving-average trajectories.
RECORDED_FIG3 = (
    {"AE": 99, "RL": 37, "RS": 101},
    "bc7462cb62438d50e29e0ac02d77c016ec69096e32e1ddee881def54ffa7764a")
#: run_table3(node_counts=(24, 48), seed=1): the utilization and
#: evaluation table.
RECORDED_TABLE3 = \
    "4fefa9cb8852682660164d65572bc2c2dc31025252cb14c95c1885a449a1a62a"
#: run_fig8(node_counts=(24, 48), seed=1, threshold=0.94): the AE
#: unique-high-performer curves and every method's final count.
RECORDED_FIG8 = \
    "2267d00d60c48f1da672643e816384f2c038c66e3ebc2a5b7b2ef6a71489ecfe"
#: run_fig9(n_nodes=24, n_repetitions=3, seed=1): the per-repetition
#: final rewards, utilizations and evaluation counts.
RECORDED_FIG9 = \
    "541e0297bb8363698c78b3a6f7c6b2fd6b51f3edcea7f4aeadd5f3f0b4f0297c"

#: run_table1(max_targets=80, n_weeks=8) at the mini preset with one BLAS
#: thread: the weeks and the three RMSE rows. Recorded when every lead
#: still ran its own forecast over the whole window.
RECORDED_TABLE1 = \
    "7e82f3127c19c161c69d517f77facae1ee6ceb6c55cb17ea57ce924d6d068722"

#: The mini preset's Table I, run in a child process: OpenBLAS rounds the
#: POD's S^T S product, and so every trained weight, differently once it
#: threads it, so the child pins one BLAS thread.
_TABLE1_SCRIPT = """
import json
from repro.experiments import table1_rmse as t1
from repro.experiments.context import ExperimentPreset, ReproductionContext
preset = ExperimentPreset(name="mini", degrees=12.0, seed=3,
                          posttrain_epochs=4, search_evaluations=150,
                          forest_estimators=4, boosting_rounds=6,
                          wall_seconds=900.0)
ctx = ReproductionContext(preset)
t1.get_context = lambda name: ctx
result = t1.run_table1("mini", n_weeks=8)
print(json.dumps({"weeks": result.weeks, "rmse": result.rmse}))
"""


class TestRecordedOutput:
    """The search drivers' results at the mini preset, pinned bit for bit
    (each campaign's seeds, partition and evaluator are part of the
    result)."""

    def test_fig3_digest(self, mini_ctx, monkeypatch):
        from repro.experiments import fig3_trajectories as f3
        monkeypatch.setattr(f3, "get_context", lambda preset: mini_ctx)
        result = f3.run_fig3("mini", n_nodes=24, seed=1)
        assert list(result.trackers) == ["AE", "RL", "RS"]
        assert {name: t.n_evaluations
                for name, t in result.trackers.items()} == RECORDED_FIG3[0]
        assert _digest({"trackers": result.trackers,
                        "trajectories": result.trajectories}) \
            == RECORDED_FIG3[1]

    def test_table3_digest(self, mini_ctx, monkeypatch):
        from repro.experiments import table3_scaling as t3
        monkeypatch.setattr(t3, "get_context", lambda preset: mini_ctx)
        result = t3.run_table3("mini", node_counts=(24, 48), seed=1)
        assert _digest(result.table) == RECORDED_TABLE3

    def test_fig8_digest(self, mini_ctx, monkeypatch):
        from repro.experiments import fig8_scaling_architectures as f8
        monkeypatch.setattr(f8, "get_context", lambda preset: mini_ctx)
        result = f8.run_fig8("mini", node_counts=(24, 48), seed=1,
                             threshold=0.94)
        assert _digest({"ae_curves": result.ae_curves,
                        "final_counts": result.final_counts}) \
            == RECORDED_FIG8

    def test_fig9_digest(self, mini_ctx, monkeypatch):
        from repro.experiments import fig9_variability as f9
        monkeypatch.setattr(f9, "get_context", lambda preset: mini_ctx)
        result = f9.run_fig9("mini", n_nodes=24, n_repetitions=3, seed=1)
        assert _digest({"final_rewards": result.final_rewards,
                        "utilizations": result.utilizations,
                        "n_evaluations": result.n_evaluations}) \
            == RECORDED_FIG9

    def test_table1_digest(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        child = subprocess.run([sys.executable, "-c", _TABLE1_SCRIPT],
                               capture_output=True, text=True, env=env,
                               timeout=600)
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout)
        assert result["weeks"] == list(range(1, 9))
        assert _digest(result) == RECORDED_TABLE1
