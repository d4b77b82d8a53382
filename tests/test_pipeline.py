"""Continuous-learning pipeline (repro.pipeline): feed replayability,
durable state, promotion-gate semantics, and the headline contract —
an interrupted-and-resumed pipeline reproduces the bitwise-identical
promotion sequence of an uninterrupted run, under climate drift
(docs/PIPELINE.md)."""

import numpy as np
import pytest

from repro.pipeline import (
    ContinuousPipeline,
    FeedConfig,
    PipelineConfig,
    PromotionDecision,
    SnapshotFeed,
    emulator_digest,
    field_rmse,
    load_state,
    validate_pipeline_status,
)
from repro.serve import ModelRegistry

# Small but real: 12-degree grid, 6-week batches, retrain every 3
# batches on a trailing 48-week window with 12 held-out weeks. Drift
# onset at week 40 so the validation window crosses it mid-stream and
# the promotion gate faces genuine regime change.
FEED = FeedConfig(degrees=12.0, seed=3, batch_weeks=6, n_weeks=108,
                  scenario="none")
CONFIG = PipelineConfig(n_modes=3, pod_rank=6, window=4, retrain_every=3,
                        train_weeks=48, val_weeks=12, epochs=1,
                        batch_size=16, lstm_units=8, seed=1)


def drift_feed(scenario: str) -> FeedConfig:
    return FeedConfig(degrees=12.0, seed=3, batch_weeks=6, n_weeks=108,
                      scenario=scenario, scenario_onset_week=40,
                      scenario_ramp_weeks=20)


def decision_tuple(d: PromotionDecision) -> tuple:
    """Everything the determinism contract covers, floats unrounded."""
    return (d.retrain_index, d.batch_index, d.week_end, d.version,
            d.candidate_rmse, d.active_rmse, d.promoted, d.reason)


class TestSnapshotFeed:
    def test_batches_cover_stream_exactly(self):
        feed = SnapshotFeed(FEED)
        assert feed.n_batches == 18
        weeks = np.concatenate([feed.batch_indices(b) for b in range(18)])
        np.testing.assert_array_equal(weeks, np.arange(108))
        assert feed.batch_indices(18).size == 0

    def test_short_final_batch(self):
        feed = SnapshotFeed(FeedConfig(degrees=12.0, batch_weeks=4,
                                       n_weeks=10))
        assert feed.n_batches == 3
        np.testing.assert_array_equal(feed.batch_indices(2), [8, 9])

    def test_replayable(self):
        a = SnapshotFeed(FEED)
        b = SnapshotFeed(FEED)
        _, block_a = a.batch(7)
        _, block_b = b.batch(7)
        np.testing.assert_array_equal(block_a, block_b)

    def test_batches_iterator_matches_random_access(self):
        feed = SnapshotFeed(FeedConfig(degrees=12.0, batch_weeks=30,
                                       n_weeks=60))
        seen = list(feed.batches())
        assert [b for b, _, _ in seen] == [0, 1]
        np.testing.assert_array_equal(seen[1][2], feed.batch(1)[1])

    def test_unbounded_feed_has_no_batch_count(self):
        feed = SnapshotFeed(FeedConfig(degrees=12.0, n_weeks=None))
        assert feed.n_batches is None
        assert feed.batch_indices(1000).size == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FeedConfig(batch_weeks=0)
        with pytest.raises(ValueError):
            FeedConfig(n_weeks=0)
        with pytest.raises(ValueError):
            FeedConfig(scenario="nope")

    def test_config_json_round_trip(self):
        cfg = drift_feed("enso_shift")
        assert FeedConfig.from_json(cfg.as_json()) == cfg


class TestPipelineConfig:
    def test_json_round_trip(self):
        assert PipelineConfig.from_json(CONFIG.as_json()) == CONFIG

    def test_validation(self):
        with pytest.raises(ValueError, match="pod_rank"):
            PipelineConfig(n_modes=8, pod_rank=4)
        with pytest.raises(ValueError, match="val_weeks"):
            PipelineConfig(window=8, val_weeks=10)
        with pytest.raises(ValueError, match="retrain_every"):
            PipelineConfig(retrain_every=0)


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "reg")


class TestPipelineLoop:
    def test_full_run_promotes_and_rejects(self, tmp_path, registry):
        pipe = ContinuousPipeline(tmp_path / "state", registry, FEED,
                                  CONFIG)
        decisions = pipe.run()
        # 18 batches, retrain at batches 2,5,8,11,14,17 — but only once
        # 60 ingested weeks cover train+val: batches 9(60w)... -> at
        # batch 11, 14, 17.
        assert [d.batch_index for d in decisions] == [11, 14, 17]
        assert decisions[0].promoted and decisions[0].reason == "no-active"
        assert registry.active() is not None
        assert set(registry.versions()) == {
            d.version for d in decisions if d.promoted}
        promoted = [d for d in decisions if d.promoted]
        rejected = [d for d in decisions if not d.promoted]
        assert pipe.state.promotions == len(promoted)
        assert pipe.state.rejections == len(rejected)
        # Rejected versions are never published.
        assert not any(d.version in registry.versions() for d in rejected)

    def test_state_persisted_every_batch(self, tmp_path, registry):
        pipe = ContinuousPipeline(tmp_path / "state", registry, FEED,
                                  CONFIG)
        pipe.run(max_batches=2)
        state = load_state(tmp_path / "state.npz")
        assert state.next_batch == 2
        assert state.snapshots_ingested == 12
        assert state.basis_updates == 2
        assert state.pod.basis_version == 2

    def test_resume_refuses_different_feed(self, tmp_path, registry):
        ContinuousPipeline(tmp_path / "state", registry, FEED,
                           CONFIG).run(max_batches=1)
        with pytest.raises(ValueError, match="refusing to resume"):
            ContinuousPipeline(tmp_path / "state", registry,
                               drift_feed("enso_shift"), CONFIG)

    def test_resume_refuses_different_protocol(self, tmp_path, registry):
        ContinuousPipeline(tmp_path / "state", registry, FEED,
                           CONFIG).run(max_batches=1)
        other = PipelineConfig.from_json(
            {**CONFIG.as_json(), "retrain_every": 5})
        with pytest.raises(ValueError, match="refusing"):
            ContinuousPipeline(tmp_path / "state", registry, FEED, other)

    @pytest.mark.parametrize("name", ["state", "state.npz", "state.bin"])
    def test_resume_classmethod_reads_configs(self, tmp_path, registry,
                                              name):
        ContinuousPipeline(tmp_path / name, registry,
                           drift_feed("enso_shift"),
                           CONFIG).run(max_batches=1)
        resumed = ContinuousPipeline.resume(tmp_path / name, registry)
        assert resumed.feed.config == drift_feed("enso_shift")
        assert resumed.config == CONFIG
        # Reopening through the constructor resumes too (no restart).
        reopened = ContinuousPipeline(tmp_path / name, registry,
                                      drift_feed("enso_shift"), CONFIG)
        assert reopened.state.next_batch == 1
        with pytest.raises(FileNotFoundError):
            ContinuousPipeline.resume(tmp_path / "missing", registry)

    def test_unbounded_feed_requires_max_batches(self, tmp_path,
                                                 registry):
        pipe = ContinuousPipeline(
            tmp_path / "state", registry,
            FeedConfig(degrees=12.0, n_weeks=None), CONFIG)
        with pytest.raises(ValueError, match="max_batches"):
            pipe.run()

    def test_status_document_validates(self, tmp_path, registry):
        pipe = ContinuousPipeline(tmp_path / "state", registry, FEED,
                                  CONFIG)
        pipe.run()
        status = validate_pipeline_status(pipe.status())
        assert status["stream"]["weeks_ingested"] == 108
        assert status["counters"]["retrains"] == 3
        assert status["active"] == registry.active()
        # and the validator actually rejects malformed documents
        broken = {**status, "counters": {**status["counters"],
                                         "retrains": 99}}
        with pytest.raises(ValueError, match="retrains"):
            validate_pipeline_status(broken)

    def test_report_embeds_registry_report(self, tmp_path, registry):
        pipe = ContinuousPipeline(tmp_path / "state", registry, FEED,
                                  CONFIG)
        pipe.run()
        report = pipe.report()
        assert registry.report() in report
        for d in pipe.state.decisions:
            assert d.version in report


class TestPromotionGate:
    def test_promotion_iff_strict_improvement(self, tmp_path, registry):
        pipe = ContinuousPipeline(tmp_path / "state", registry, FEED,
                                  CONFIG)
        decisions = pipe.run()
        gated = [d for d in decisions if d.active_rmse is not None]
        assert gated, "expected at least one gated retrain"
        for d in gated:
            assert d.promoted == (d.candidate_rmse < d.active_rmse)
            assert d.reason == ("improved" if d.promoted
                                else "not-improved")

    def test_field_rmse_definition(self, tmp_path, registry):
        pipe = ContinuousPipeline(tmp_path / "state", registry, FEED,
                                  CONFIG)
        pipe.run()
        _, emulator = registry.load()
        feed = SnapshotFeed(FEED)
        val = feed.snapshots(np.arange(96, 108))
        times, fields = emulator.forecast_fields(val, horizon=1)
        expected = float(np.sqrt(np.mean(
            (val[:, times] - fields) ** 2)))
        assert field_rmse(emulator, val) == pytest.approx(expected,
                                                          rel=1e-12)


def run_pipeline(tmp_path, feed, interrupt_at=()):
    """One complete pipeline run, optionally killed-and-resumed after
    the given batch counts. Returns the promotion-sequence identity."""
    registry = ModelRegistry(tmp_path / "reg")
    decisions = []
    done = 0
    for stop in interrupt_at:
        pipe = ContinuousPipeline(tmp_path / "state", registry, feed,
                                  CONFIG)
        decisions += pipe.run(max_batches=stop - done)
        done = stop
        del pipe  # simulate process death; only the state file survives
    pipe = ContinuousPipeline(tmp_path / "state", registry, feed, CONFIG)
    decisions += pipe.run()
    _, active = registry.load()
    return ([decision_tuple(d) for d in decisions],
            registry.versions(), registry.active(),
            emulator_digest(active),
            [decision_tuple(d) for d in pipe.state.decisions])


class TestDeterministicResume:
    """The acceptance contract: interrupted-and-resumed == uninterrupted,
    bitwise, for the full promotion sequence, under both drift
    scenarios."""

    @pytest.mark.parametrize("scenario",
                             ["enso_shift", "trend_acceleration"])
    def test_interrupted_equals_uninterrupted(self, tmp_path, scenario):
        feed = drift_feed(scenario)
        baseline = run_pipeline(tmp_path / "a", feed)
        # Kill once mid-ingest (before any retrain) and once between
        # retrains; resume each time from the state artifact alone.
        resumed = run_pipeline(tmp_path / "b", feed,
                               interrupt_at=(5, 13))
        assert resumed == baseline

    def test_interrupt_immediately_after_retrain_batch(self, tmp_path):
        """The publish-then-save window: state saved right after the
        batch that retrained; next run must not retrain twice."""
        feed = drift_feed("enso_shift")
        baseline = run_pipeline(tmp_path / "a", feed)
        resumed = run_pipeline(tmp_path / "b", feed,
                               interrupt_at=(12,))  # batch 11 retrained
        assert resumed == baseline

    def test_no_drift_also_deterministic(self, tmp_path):
        baseline = run_pipeline(tmp_path / "a", FEED)
        resumed = run_pipeline(tmp_path / "b", FEED, interrupt_at=(9,))
        assert resumed == baseline

    def test_scenarios_change_outcomes(self, tmp_path):
        """Drift must actually flow into the decisions: the RMSE
        sequences under drift differ from no-drift."""
        none = run_pipeline(tmp_path / "a", FEED)
        enso = run_pipeline(tmp_path / "b", drift_feed("enso_shift"))
        assert none[0] != enso[0]
