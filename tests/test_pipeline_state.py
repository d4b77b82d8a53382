"""The pipeline state: the promotion decision's JSON form, written
field by field, and the counters derived from the decisions and POD."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.durable import read_npz
from repro.pipeline import FeedConfig, PipelineConfig
from repro.pipeline.state import (
    DECISION_REASONS,
    PipelineState,
    PromotionDecision,
    load_state,
    save_state,
)
from repro.pod.incremental import IncrementalPOD


@pytest.mark.parametrize("active_rmse", [0.25, None], ids=["active", "none"])
@pytest.mark.parametrize("reason", DECISION_REASONS)
def test_as_json_is_asdict(reason, active_rmse):
    decision = PromotionDecision(
        retrain_index=3, batch_index=17, week_end=412, version="r0003",
        candidate_rmse=0.123456789012345, active_rmse=active_rmse,
        promoted=reason != "not-improved", reason=reason)
    encoded = decision.as_json()
    # Same keys in the same order, so the state header's bytes agree.
    assert json.dumps(encoded) == json.dumps(asdict(decision))
    assert PromotionDecision.from_json(encoded) == decision


def _saved_state(tmp_path):
    """A state after two 6-week batches and three retrains (two
    promoted), as ``save_state`` writes it."""
    pod = IncrementalPOD(2)
    for seed in (0, 1):
        pod.partial_fit(
            np.random.default_rng(seed).standard_normal((20, 6)))
    decisions = [PromotionDecision(
        retrain_index=i, batch_index=4 * i + 3, week_end=12,
        version=f"r{i:04d}", candidate_rmse=0.5 - i / 10,
        active_rmse=None if i == 0 else 0.5, promoted=i < 2,
        reason=("no-active", "improved", "not-improved")[i])
        for i in range(3)]
    return save_state(tmp_path / "pipe.state", PipelineState(
        feed_config=FeedConfig().as_json(),
        pipeline_config=PipelineConfig().as_json(), next_batch=2,
        decisions=decisions, pod=pod))


def test_counters_derive_from_decisions_and_pod(tmp_path):
    path = _saved_state(tmp_path)
    header, _ = read_npz(path, key="__pipeline_state__",
                         fmt="repro-pipeline-state", versions=(1,),
                         describe="a pipeline state artifact")
    state = load_state(path)
    counts = {"snapshots_ingested": 12, "basis_updates": 2, "retrains": 3,
              "promotions": 2, "rejections": 1}
    assert {name: header[name] for name in counts} == counts
    assert {name: getattr(state, name) for name in counts} == counts
    with pytest.raises(AttributeError):
        state.retrains = 4


@pytest.mark.parametrize("counter, value", [
    ("snapshots_ingested", 18), ("basis_updates", 3), ("retrains", 2),
    ("promotions", 3), ("rejections", 0)])
def test_disagreeing_header_counter_refused(tmp_path, counter, value):
    path = _saved_state(tmp_path)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays.pop("__pipeline_state__").tobytes())
    header[counter] = value
    np.savez(path, __pipeline_state__=np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8), **arrays)
    with pytest.raises(ValueError) as err:
        load_state(path)
    assert str(err.value).startswith(f"{path}: header {counter} {value}")
