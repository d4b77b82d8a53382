"""Durable pipeline state: one atomic ``.npz`` artifact per pipeline.

The continuous-learning service persists its **complete** progress after
every ingested batch through :mod:`repro.durable`: the stream cursor,
every typed promotion decision made so far, the exact
:class:`~repro.pod.IncrementalPOD` factorization (float64, bitwise), and
the counters derived from the last two.
Because the snapshot feed is replayable and the POD state round-trips
exactly, a pipeline killed at any batch boundary and restarted from this
file reproduces the identical promotion sequence an uninterrupted run
produces (pinned in tests/test_pipeline.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.durable import atomic_write_npz, npz_path, read_npz
from repro.pod.incremental import IncrementalPOD

__all__ = ["STATE_FORMAT", "STATE_VERSION", "PromotionDecision",
           "PipelineState", "save_state", "load_state"]

STATE_FORMAT = "repro-pipeline-state"
STATE_VERSION = 1

_HEADER_KEY = "__pipeline_state__"

#: Reasons a retrain can conclude with.
DECISION_REASONS = ("no-active", "improved", "not-improved")


@dataclass(frozen=True)
class PromotionDecision:
    """The typed record of one retrain's promote-or-reject outcome.

    The pipeline's determinism contract is defined over the *sequence* of
    these records (plus the registry contents), never over wall-clock
    audit bytes.
    """

    retrain_index: int          # 0-based retrain counter
    batch_index: int            # feed batch that triggered the retrain
    week_end: int               # stream position (exclusive) at retrain
    version: str                # candidate version name (r%04d)
    candidate_rmse: float       # lead-1 field RMSE on the validation window
    active_rmse: float | None   # incumbent's RMSE (None if no ACTIVE)
    promoted: bool
    reason: str                 # one of DECISION_REASONS

    def __post_init__(self) -> None:
        if self.reason not in DECISION_REASONS:
            raise ValueError(f"unknown decision reason {self.reason!r}; "
                             f"expected one of {DECISION_REASONS}")

    def as_json(self) -> dict:
        # Field by field, in field order: ``dataclasses.asdict`` deep-
        # copies every value, and every state save encodes every
        # decision so far (0.39 ms of a 1.27 ms save at 23 decisions).
        return {"retrain_index": self.retrain_index,
                "batch_index": self.batch_index,
                "week_end": self.week_end,
                "version": self.version,
                "candidate_rmse": self.candidate_rmse,
                "active_rmse": self.active_rmse,
                "promoted": self.promoted,
                "reason": self.reason}

    @classmethod
    def from_json(cls, data: dict) -> "PromotionDecision":
        active = data["active_rmse"]
        return cls(retrain_index=int(data["retrain_index"]),
                   batch_index=int(data["batch_index"]),
                   week_end=int(data["week_end"]),
                   version=str(data["version"]),
                   candidate_rmse=float(data["candidate_rmse"]),
                   active_rmse=None if active is None else float(active),
                   promoted=bool(data["promoted"]),
                   reason=str(data["reason"]))


#: The counters a state file's header records, each derived from the
#: decisions and the POD it stores.
COUNTERS = ("snapshots_ingested", "basis_updates", "retrains",
            "promotions", "rejections")


@dataclass
class PipelineState:
    """Everything a restarted pipeline needs to continue bit-identically.

    The counters are read from what they count, so they cannot drift
    from it: weeks and basis updates from the POD, retrains and their
    outcomes from the decisions.
    """

    feed_config: dict           # FeedConfig.as_json()
    pipeline_config: dict       # PipelineConfig.as_json()
    next_batch: int             # first batch NOT yet ingested
    decisions: list[PromotionDecision]
    pod: IncrementalPOD

    @property
    def snapshots_ingested(self) -> int:
        return self.pod.n_seen

    @property
    def basis_updates(self) -> int:
        return self.pod.basis_version

    @property
    def retrains(self) -> int:
        return len(self.decisions)

    @property
    def promotions(self) -> int:
        return sum(d.promoted for d in self.decisions)

    @property
    def rejections(self) -> int:
        return self.retrains - self.promotions


def save_state(path, state: PipelineState):
    """Atomically persist ``state`` (tmp + fsync + rename, via
    :func:`repro.durable.atomic_write_npz`). Returns the path the
    artifact lives at (:func:`repro.durable.npz_path` of ``path``)."""
    pod_config, pod_arrays = state.pod.state()
    header = {
        "format": STATE_FORMAT,
        "version": STATE_VERSION,
        "feed_config": state.feed_config,
        "pipeline_config": state.pipeline_config,
        "next_batch": state.next_batch,
        **{name: getattr(state, name) for name in COUNTERS},
        "decisions": [d.as_json() for d in state.decisions],
        "pod": pod_config,
    }
    return atomic_write_npz(path, header, pod_arrays, key=_HEADER_KEY)


def load_state(path) -> PipelineState:
    """Load a :func:`save_state` artifact back, POD arrays bitwise.

    A header whose counters disagree with its decisions and POD is
    refused with ``ValueError`` naming the file.
    """
    header, arrays = read_npz(path, key=_HEADER_KEY, fmt=STATE_FORMAT,
                              versions=(STATE_VERSION,),
                              describe="a pipeline state artifact")
    state = PipelineState(
        feed_config=header["feed_config"],
        pipeline_config=header["pipeline_config"],
        next_batch=int(header["next_batch"]),
        decisions=[PromotionDecision.from_json(d)
                   for d in header["decisions"]],
        pod=IncrementalPOD.from_state(header["pod"], arrays))
    for name in COUNTERS:
        if header.get(name) != getattr(state, name):
            raise ValueError(
                f"{npz_path(path)}: header {name} {header.get(name)!r} "
                f"disagrees with the {getattr(state, name)} its decisions "
                f"and POD give")
    return state
