"""The tabular NAS benchmark backend (docs/NAS_BENCHMARK.md).

Headline contract, tested differentially: a search campaign evaluated
from a benchmark archive is **bitwise identical** (``==`` on floats,
never approximate) in its ask/tell trajectory to the same campaign paying
per-candidate surrogate training — for every algorithm (ae/rs/rl), in
both in-loop and backend evaluation modes — whenever every asked
architecture is in the table. Plus: archive round-trip fidelity,
header/version/digest validation, deterministic surrogate fallback for
off-table points, obs hit/miss counters, campaign-checkpoint identity
pinning, and the multi-seed sweep report schema.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import obs
from repro.durable import atomic_write_npz as write_npz_artifact
from repro.hpc import (
    ParallelEvaluator,
    SerialEvaluator,
    ThetaPartition,
    resume_search,
    run_search,
)
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    BenchmarkEvaluator,
    CheckpointPolicy,
    DistributedRL,
    RandomSearch,
    SurrogateEvaluator,
    build_archive,
    load_archive,
    read_archive_header,
    run_benchmark_campaign,
    run_seed_sweep,
    validate_sweep_report,
)
from repro.nas.benchmark import ARCHIVE_FORMAT, ARCHIVE_VERSION


@pytest.fixture(scope="module")
def model(small_space):
    return ArchitecturePerformanceModel(small_space, seed=0)


@pytest.fixture(scope="module")
def archive_path(small_space, model, tmp_path_factory):
    """Exhaustive archive of the whole 512-architecture small space."""
    path = tmp_path_factory.mktemp("nasb") / "exhaustive.npz"
    return build_archive(small_space, model, path,
                         metadata={"purpose": "tests"})


@pytest.fixture(scope="module")
def archive(archive_path):
    return load_archive(archive_path)


@pytest.fixture()
def evaluator(archive):
    return BenchmarkEvaluator(archive)


# ---------------------------------------------------------------------------
# Archive build / round-trip
# ---------------------------------------------------------------------------

class TestArchiveRoundTrip:
    def test_exhaustive_build_covers_the_space(self, small_space, archive):
        assert archive.n_records == small_space.size
        ranks = sorted(small_space.index_of(tuple(row))
                       for row in archive.encodings)
        assert ranks == list(range(small_space.size))

    def test_records_are_the_models_noise_free_truth(self, small_space,
                                                     model, archive):
        for i in (0, 17, 255, 511):
            arch = tuple(int(v) for v in archive.encodings[i])
            assert archive.rewards[i] == model.quality(arch, 20)
            assert archive.costs[i] == model.training_seconds(arch,
                                                              rng=None)

    def test_final_curve_point_equals_reward(self, archive):
        assert archive.curves.shape == (archive.n_records, archive.epochs)
        np.testing.assert_array_equal(archive.curves[:, -1],
                                      archive.rewards)

    def test_curve_lookup_by_architecture(self, small_space, model,
                                          archive):
        arch = small_space.from_index(42)
        curve = archive.curve(arch)
        assert curve[4] == model.quality(arch, 5)
        with pytest.raises(KeyError):
            archive.curve((9, 9, 9, 9, 9, 9))  # raises in validate-free path

    def test_space_round_trips_through_header(self, small_space, archive):
        assert archive.space.cardinalities == small_space.cardinalities
        assert archive.space.operations == small_space.operations
        assert archive.space.input_dim == small_space.input_dim

    def test_header_readable_without_loading(self, archive_path, archive):
        header = read_archive_header(archive_path)
        assert header["format"] == ARCHIVE_FORMAT
        assert header["version"] == ARCHIVE_VERSION
        assert header["n_records"] == 512
        assert header["digest"] == archive.digest
        assert header["metadata"] == {"purpose": "tests"}

    def test_sampled_build_records_distinct_architectures(self,
                                                          small_space,
                                                          model, tmp_path):
        path = build_archive(small_space, model, tmp_path / "s.npz",
                             n_samples=50, rng=3)
        arc = load_archive(path)
        assert arc.n_records == 50
        assert len({tuple(r) for r in arc.encodings.tolist()}) == 50

    def test_build_rejects_bad_arguments(self, small_space, model,
                                         tmp_path):
        with pytest.raises(ValueError, match="n_samples"):
            build_archive(small_space, model, tmp_path / "x.npz",
                          n_samples=small_space.size + 1)
        with pytest.raises(ValueError, match="not both"):
            build_archive(small_space, model, tmp_path / "x.npz",
                          architectures=[small_space.from_index(0)],
                          n_samples=3)
        with pytest.raises(ValueError, match="epochs"):
            build_archive(small_space, model, tmp_path / "x.npz", epochs=0)
        with pytest.raises(TypeError, match="model"):
            build_archive(small_space, object(), tmp_path / "x.npz")

    def test_exhaustive_build_refuses_huge_spaces(self, tmp_path):
        from repro.nas import StackedLSTMSpace
        paper = StackedLSTMSpace()  # 8.6M architectures
        with pytest.raises(ValueError, match="capped"):
            build_archive(paper, ArchitecturePerformanceModel(paper),
                          tmp_path / "huge.npz")


class TestArchiveValidation:
    def test_rejects_foreign_format(self, tmp_path):
        path = write_npz_artifact(
            tmp_path / "alien.npz", {"format": "something-else",
                                     "version": 1},
            {"arch": np.zeros((1, 1))}, key="__benchmark__")
        with pytest.raises(ValueError, match="not a NAS benchmark"):
            read_archive_header(path)

    def test_rejects_newer_schema_version(self, archive_path, tmp_path,
                                          small_space):
        header = read_archive_header(archive_path)
        header["version"] = ARCHIVE_VERSION + 1
        with np.load(archive_path) as npz:
            arrays = {n: npz[n] for n in npz.files
                      if n != "__benchmark__"}
        path = write_npz_artifact(tmp_path / "future.npz", header, arrays,
                                  key="__benchmark__")
        with pytest.raises(ValueError, match="schema version"):
            load_archive(path)

    def test_rejects_missing_header(self, tmp_path):
        np.savez(tmp_path / "bare.npz", arch=np.zeros((1, 1)))
        with pytest.raises(ValueError, match="missing __benchmark__"):
            read_archive_header(tmp_path / "bare.npz")

    def test_rejects_tampered_records(self, archive_path, tmp_path):
        header = read_archive_header(archive_path)
        with np.load(archive_path) as npz:
            arrays = {n: npz[n] for n in npz.files
                      if n != "__benchmark__"}
        arrays["reward"] = arrays["reward"].copy()
        arrays["reward"][0] += 0.5  # flip a reward, keep the old digest
        path = write_npz_artifact(tmp_path / "tampered.npz", header,
                                  arrays, key="__benchmark__")
        with pytest.raises(ValueError, match="digest mismatch"):
            load_archive(path)

    def test_rejects_missing_arrays(self, archive_path, tmp_path):
        header = read_archive_header(archive_path)
        path = write_npz_artifact(tmp_path / "empty.npz", header, {},
                                  key="__benchmark__")
        with pytest.raises(ValueError, match="lacks arrays"):
            load_archive(path)


# ---------------------------------------------------------------------------
# Differential: table-backed campaign == surrogate campaign, bitwise
# ---------------------------------------------------------------------------

PARTITION = ThetaPartition(n_nodes=6, wall_seconds=1500.0)
RL_PARTITION = ThetaPartition(n_nodes=8, wall_seconds=1200.0)


def _make_algorithm(name, space):
    if name == "rs":
        return RandomSearch(space, rng=0), PARTITION
    if name == "ae":
        return AgingEvolution(space, rng=3, population_size=8,
                              sample_size=3), PARTITION
    return DistributedRL(space, rng=0, n_agents=2,
                         workers_per_agent=3), RL_PARTITION


def _fingerprint(tracker):
    return [(r.architecture, r.reward, r.start_time, r.end_time, r.node,
             r.n_parameters) for r in tracker.records]


def _run_campaign(space, evaluator, name, workers):
    algorithm, partition = _make_algorithm(name, space)
    if workers == "in-loop":
        return run_search(algorithm, evaluator, partition, rng=5)
    backend = SerialEvaluator(evaluator) if workers == 0 \
        else ParallelEvaluator(evaluator, n_workers=workers)
    with backend:
        return run_search(algorithm, evaluator, partition, rng=5,
                          backend=backend)


@pytest.mark.parametrize("algorithm", ["ae", "rs", "rl"])
@pytest.mark.parametrize("workers", ["in-loop", 0, 2])
class TestBitwiseEquivalence:
    """For in-table asks the archive replays the surrogate path exactly:
    the full recorded trajectory must be ``==``, never approximate."""

    def test_table_campaign_matches_surrogate_campaign(
            self, small_space, model, archive, algorithm, workers):
        surrogate = _fingerprint(_run_campaign(
            small_space, SurrogateEvaluator(small_space, model),
            algorithm, workers))
        assert surrogate, "surrogate reference recorded nothing"
        table = _fingerprint(_run_campaign(
            small_space, BenchmarkEvaluator(archive), algorithm, workers))
        assert table == surrogate


class TestEvaluatorSemantics:
    def test_in_table_metadata_and_counters(self, small_space, evaluator):
        obs.enable()
        result = evaluator.evaluate(small_space.from_index(7),
                                    np.random.default_rng(0))
        assert result.metadata["fidelity"] == "benchmark"
        assert result.metadata["source"] == "table"
        counters = obs.get_registry().counters
        assert counters["nas/benchmark/table_hit"].value == 1
        assert "nas/benchmark/surrogate_miss" not in counters

    def test_reward_noise_comes_from_the_caller_stream(self, small_space,
                                                       evaluator):
        arch = small_space.from_index(12)
        a = evaluator.evaluate(arch, np.random.default_rng(1))
        b = evaluator.evaluate(arch, np.random.default_rng(1))
        c = evaluator.evaluate(arch, np.random.default_rng(2))
        assert a.reward == b.reward and a.duration == b.duration
        assert a.reward != c.reward

    def test_n_parameters_matches_the_space(self, small_space, evaluator):
        arch = small_space.from_index(200)
        result = evaluator.evaluate(arch, np.random.default_rng(0))
        assert result.n_parameters == small_space.count_parameters(arch)

    def test_evaluator_is_picklable(self, small_space, evaluator):
        clone = pickle.loads(pickle.dumps(evaluator))
        arch = small_space.from_index(99)
        assert clone.evaluate(arch, np.random.default_rng(5)).reward == \
            evaluator.evaluate(arch, np.random.default_rng(5)).reward

    def test_constructor_rejects_bad_options(self, archive):
        with pytest.raises(ValueError, match="surrogate"):
            BenchmarkEvaluator(archive, surrogate="forest")
        with pytest.raises(ValueError, match="ridge_lambda"):
            BenchmarkEvaluator(archive, ridge_lambda=0.0)
        with pytest.raises(ValueError, match="knn_k"):
            BenchmarkEvaluator(archive, knn_k=0)


class TestSurrogateFallback:
    @pytest.fixture(scope="class")
    def partial_path(self, small_space, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("nasb-partial") / "partial.npz"
        return build_archive(small_space, model, path, n_samples=64,
                             rng=11)

    @pytest.mark.parametrize("surrogate", ["ridge", "knn"])
    def test_off_table_predictions_are_deterministic(self, small_space,
                                                     partial_path,
                                                     surrogate):
        ev_a = BenchmarkEvaluator(partial_path, surrogate=surrogate)
        ev_b = BenchmarkEvaluator(partial_path, surrogate=surrogate)
        in_table = {tuple(int(v) for v in row)
                    for row in load_archive(partial_path).encodings}
        seen_miss = 0
        for rank in range(0, 512, 17):
            arch = small_space.from_index(rank)
            a = ev_a.evaluate(arch, np.random.default_rng(rank))
            b = ev_b.evaluate(arch, np.random.default_rng(rank))
            assert a.reward == b.reward and a.duration == b.duration
            expected = "table" if arch in in_table else "surrogate"
            assert a.metadata["source"] == expected
            seen_miss += expected == "surrogate"
        assert seen_miss > 0, "no off-table architecture exercised"

    def test_miss_counter_increments(self, small_space, partial_path):
        obs.enable()
        ev = BenchmarkEvaluator(partial_path)
        in_table = {tuple(int(v) for v in row)
                    for row in load_archive(partial_path).encodings}
        off = next(small_space.from_index(r) for r in range(512)
                   if small_space.from_index(r) not in in_table)
        ev.evaluate(off, np.random.default_rng(0))
        counters = obs.get_registry().counters
        assert counters["nas/benchmark/surrogate_miss"].value == 1

    def test_ridge_recovers_table_points_on_linear_landscape(
            self, small_space, tmp_path):
        # A purely linear-in-choices reward is in the ridge model class:
        # predictions at *archived* points must match to ridge precision.
        rng = np.random.default_rng(0)
        weights = [rng.normal(size=c) for c in small_space.cardinalities]
        archs = [small_space.from_index(r) for r in range(0, 512, 7)]

        class _LinearModel(ArchitecturePerformanceModel):
            def quality(inner, arch, epochs=20):
                return float(sum(w[v] for w, v in zip(weights, arch)))

        path = build_archive(small_space, _LinearModel(small_space),
                             tmp_path / "lin.npz", architectures=archs)
        ev = BenchmarkEvaluator(path, ridge_lambda=1e-10)
        probe = archs[3]
        quality, _ = ev._predict(probe)
        assert quality == pytest.approx(
            sum(w[v] for w, v in zip(weights, probe)), abs=1e-6)


# ---------------------------------------------------------------------------
# Campaign checkpointing: the archive digest pins the resume
# ---------------------------------------------------------------------------

class TestCheckpointIdentity:
    def _checkpoint(self, small_space, evaluator, tmp_path):
        algorithm = RandomSearch(small_space, rng=7)
        ckpt = tmp_path / "campaign.json"
        run_search(algorithm, evaluator, PARTITION, rng=9, walltime=400.0,
                   checkpoint=CheckpointPolicy(ckpt))
        return ckpt

    def test_payload_records_the_archive_digest(self, small_space,
                                                archive, evaluator,
                                                tmp_path):
        ckpt = self._checkpoint(small_space, evaluator, tmp_path)
        state = json.loads(ckpt.read_text())
        assert state["evaluator"] == {
            "kind": "nas-benchmark", "digest": archive.digest,
            "epochs": 20, "surrogate": "ridge"}

    def test_resume_with_same_archive_continues(self, small_space,
                                                archive, evaluator,
                                                tmp_path):
        ckpt = self._checkpoint(small_space, evaluator, tmp_path)
        algorithm, tracker = resume_search(ckpt, small_space,
                                           BenchmarkEvaluator(archive))
        assert tracker.n_evaluations > 0
        assert algorithm.best_reward > 0

    def test_resume_with_different_archive_is_refused(self, small_space,
                                                      evaluator, tmp_path):
        ckpt = self._checkpoint(small_space, evaluator, tmp_path)
        other_path = build_archive(
            small_space, ArchitecturePerformanceModel(small_space, seed=1),
            tmp_path / "other.npz")
        with pytest.raises(ValueError, match="different experiment"):
            resume_search(ckpt, small_space,
                          BenchmarkEvaluator(other_path))

    def test_resume_with_surrogate_evaluator_is_refused(self, small_space,
                                                        model, evaluator,
                                                        tmp_path):
        ckpt = self._checkpoint(small_space, evaluator, tmp_path)
        with pytest.raises(ValueError, match="different experiment"):
            resume_search(ckpt, small_space,
                          SurrogateEvaluator(small_space, model))

    def test_legacy_checkpoints_without_identity_still_resume(
            self, small_space, model, evaluator, tmp_path):
        # Pre-identity checkpoints (and surrogate campaigns, which record
        # None) must keep resuming exactly as before.
        ckpt = self._checkpoint(small_space, evaluator, tmp_path)
        state = json.loads(ckpt.read_text())
        del state["evaluator"]
        _, tracker = resume_search(state, small_space,
                                   SurrogateEvaluator(small_space, model))
        assert tracker.n_evaluations > 0


# ---------------------------------------------------------------------------
# Campaign runner + multi-seed sweep report
# ---------------------------------------------------------------------------

class TestCampaignsAndSweeps:
    def test_campaign_is_a_pure_function_of_its_inputs(self, evaluator):
        a = run_benchmark_campaign(evaluator, algorithm="rs",
                                   n_evaluations=40, seed=0)
        b = run_benchmark_campaign(evaluator, algorithm="rs",
                                   n_evaluations=40, seed=0)
        for key in ("best_reward", "best_architecture", "n_evaluations"):
            assert a[key] == b[key]
        c = run_benchmark_campaign(evaluator, algorithm="rs",
                                   n_evaluations=40, seed=1)
        assert c["best_architecture"] != a["best_architecture"] or \
            c["best_reward"] != a["best_reward"]

    def test_rl_campaign_runs_whole_rounds(self, evaluator):
        result = run_benchmark_campaign(evaluator, algorithm="rl",
                                        n_evaluations=5, seed=0)
        assert result["n_evaluations"] >= 5
        assert result["n_evaluations"] % 4 == 0  # 2 agents x 2 workers

    def test_campaign_counts_table_hits(self, evaluator):
        obs.enable()
        result = run_benchmark_campaign(evaluator, algorithm="rs",
                                        n_evaluations=25, seed=0)
        assert result["table_hits"] == 25
        assert result["surrogate_misses"] == 0

    def test_unknown_algorithm_and_bad_budget(self, evaluator):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_benchmark_campaign(evaluator, algorithm="sa")
        with pytest.raises(ValueError, match="n_evaluations"):
            run_benchmark_campaign(evaluator, n_evaluations=0)

    def test_sweep_report_validates_and_aggregates(self, evaluator):
        report = run_seed_sweep(evaluator, algorithm="rs",
                                n_evaluations=20, n_seeds=4, base_seed=3)
        validate_sweep_report(report)
        assert [c["seed"] for c in report["campaigns"]] == [3, 4, 5, 6]
        best = [c["best_reward"] for c in report["campaigns"]]
        assert report["best_reward"]["min"] == min(best)
        assert report["best_reward"]["max"] == max(best)
        assert report["archive_digest"] == evaluator.digest
        # JSON-serializable end to end (the CLI writes it verbatim).
        validate_sweep_report(json.loads(json.dumps(report)))

    @pytest.mark.parametrize("mutate,match", [
        (lambda r: r.update(format="nope"), "not a sweep report"),
        (lambda r: r.update(version=99), "version"),
        (lambda r: r.pop("campaigns"), "campaigns"),
        (lambda r: r["campaigns"].pop(), "campaigns"),
        (lambda r: r["campaigns"][0].pop("best_reward"), "best_reward"),
        (lambda r: r["campaigns"][0].update(n_evaluations=1), "completed"),
        (lambda r: r["best_reward"].update(mean=float("nan")), "mean"),
    ])
    def test_sweep_report_schema_violations(self, evaluator, mutate,
                                            match):
        report = run_seed_sweep(evaluator, algorithm="rs",
                                n_evaluations=10, n_seeds=2)
        mutate(report)
        with pytest.raises(ValueError, match=match):
            validate_sweep_report(report)


# ---------------------------------------------------------------------------
# Partial-fidelity lookups (the multi-fidelity schedulers' low rungs)
# ---------------------------------------------------------------------------

class TestPartialFidelity:
    def test_in_table_truncation_matches_surrogate_bitwise(
            self, small_space, model, evaluator):
        """`evaluate_at(arch, e)` answered from the archived curve is
        bitwise the surrogate's truncated evaluation: same quality row,
        same two noise draws, linearly prorated cost."""
        surrogate = SurrogateEvaluator(small_space, model)
        for idx, epochs in ((5, 1), (123, 4), (321, 16), (42, 20)):
            arch = small_space.from_index(idx)
            a = evaluator.evaluate_at(arch, epochs,
                                      np.random.default_rng(99))
            b = surrogate.evaluate_at(arch, epochs,
                                      np.random.default_rng(99))
            assert a.reward == b.reward
            assert a.duration == b.duration

    def test_epoch_bounds_are_validated(self, evaluator):
        arch = evaluator.space.from_index(0)
        with pytest.raises(ValueError, match="epochs"):
            evaluator.evaluate_at(arch, 0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="epochs"):
            evaluator.evaluate_at(arch, 21, np.random.default_rng(0))

    def test_curveless_archive_raises_typed_error(self, small_space,
                                                  model, tmp_path):
        """An archive built without per-epoch curves answers full-budget
        asks normally but refuses partial-fidelity ones with
        CurveUnavailableError — a ValueError, never a bare KeyError."""
        from repro.nas import CurveUnavailableError
        path = build_archive(small_space, model, tmp_path / "flat.npz",
                             with_curves=False)
        archive = load_archive(path)
        assert not archive.has_curves
        assert archive.curves.shape == (archive.n_records, 0)
        arch = small_space.from_index(7)
        with pytest.raises(CurveUnavailableError, match="curves"):
            archive.curve(arch)
        assert issubclass(CurveUnavailableError, ValueError)

        flat = BenchmarkEvaluator(archive)
        full = flat.evaluate(arch, np.random.default_rng(3))
        assert full.reward == pytest.approx(full.reward)
        with pytest.raises(CurveUnavailableError, match="curves"):
            flat.evaluate_at(arch, 5, np.random.default_rng(3))
        # Full-budget asks through evaluate_at still work curveless.
        again = flat.evaluate_at(arch, flat.epochs,
                                 np.random.default_rng(3))
        assert again.reward == full.reward
