"""The promotion decision's JSON form, written field by field."""

import json
from dataclasses import asdict

import pytest

from repro.pipeline.state import DECISION_REASONS, PromotionDecision


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
