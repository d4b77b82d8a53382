"""The continuous-learning service: ingest → fold → retrain → promote.

``ContinuousPipeline`` drives one loop over a replayable
:class:`~repro.pipeline.feed.SnapshotFeed`:

1. **Ingest** the next weekly batch and fold it into the streaming
   :class:`~repro.pod.IncrementalPOD` basis.
2. Every ``retrain_every`` batches (once enough weeks have arrived),
   **retrain** a :class:`~repro.forecast.pod_lstm.PODLSTMEmulator` on
   the trailing training window, projected through the *current*
   incremental basis. The train and validation windows are copied from
   the ingested batches kept in memory, so each week is synthesized
   once (after a resume, the weeks from before it are read once more).
3. **Gate** the candidate on a held-out validation window (lead-1
   physical-field RMSE) against the registry's ACTIVE incumbent, and
   **publish + promote** only on improvement — otherwise record a typed
   rejection (:class:`~repro.pipeline.state.PromotionDecision`) and
   leave ACTIVE untouched.
4. **Persist** the complete pipeline state atomically after every batch
   (:mod:`repro.pipeline.state`).

Determinism contract (pinned in tests/test_pipeline.py): a pipeline
killed after any batch and resumed from its state file reproduces the
*identical* promotion sequence — same version names, same
promote/reject decisions, same RMSE values bit for bit, same final
ACTIVE bundle content — as an uninterrupted run, under every drift
scenario. The three ingredients are the replayable feed, the bitwise
POD state round-trip, and per-retrain RNG streams seeded by
``SeedSequence((seed, 0x504C, retrain_index))`` (independent of how
many times the process restarted).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.baselines.manual_lstm import build_manual_lstm
from repro.durable import check_identity, npz_path
from repro.forecast.pod_lstm import PODLSTMEmulator
from repro.nn.metrics import rmse
from repro.nn.training import Trainer
from repro.pipeline.feed import FeedConfig, SnapshotFeed
from repro.pipeline.state import (
    PipelineState,
    PromotionDecision,
    load_state,
    save_state,
)
from repro.pod.incremental import IncrementalPOD
from repro.serve.registry import ModelRegistry

__all__ = ["PipelineConfig", "ContinuousPipeline", "field_rmse",
           "emulator_digest", "validate_pipeline_status"]

#: RNG stream tag for retrain seeding ("PL").
_RETRAIN_TAG = 0x504C

STATUS_FORMAT = "repro-pipeline-status"
STATUS_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Retraining protocol of one continuous pipeline (JSON-serializable).

    ``pod_rank`` is the rank the incremental factorization retains
    between updates; keep it comfortably above ``n_modes`` (the emulator
    rank) so inter-update truncation does not eat the modes the emulator
    uses. ``train_weeks``/``val_weeks`` are trailing windows measured
    from the current stream position; retraining waits until the stream
    is at least ``train_weeks + val_weeks`` deep. ``val_weeks`` must
    cover at least two forecast windows (``2 * window``).
    """

    n_modes: int = 4            # emulator POD rank
    pod_rank: int = 8           # incremental factorization rank
    window: int = 4             # K (input/forecast length)
    retrain_every: int = 4      # batches between retrains
    train_weeks: int = 96       # trailing training window
    val_weeks: int = 24         # held-out validation window
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.003
    lstm_units: int = 16
    seed: int = 0               # retrain RNG stream root
    forgetting: float = 1.0     # IncrementalPOD forgetting factor

    def __post_init__(self) -> None:
        if self.pod_rank < self.n_modes:
            raise ValueError(f"pod_rank {self.pod_rank} must be >= "
                             f"n_modes {self.n_modes}")
        if self.retrain_every < 1:
            raise ValueError(
                f"retrain_every must be >= 1, got {self.retrain_every}")
        if self.val_weeks < 2 * self.window:
            raise ValueError(
                f"val_weeks {self.val_weeks} must cover two forecast "
                f"windows (>= {2 * self.window})")
        if self.train_weeks < 2 * self.window + 1:
            raise ValueError(
                f"train_weeks {self.train_weeks} too short to window "
                f"(need >= {2 * self.window + 1})")
        if self.lstm_units < 1:
            raise ValueError(
                f"lstm_units must be >= 1, got {self.lstm_units}")
        self.trainer()  # the retrain protocol is valid before any state

    def trainer(self) -> Trainer:
        """The :class:`~repro.nn.training.Trainer` every retrain uses."""
        return Trainer(epochs=self.epochs, batch_size=self.batch_size,
                       learning_rate=self.learning_rate)

    def as_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "PipelineConfig":
        return cls(n_modes=int(data["n_modes"]),
                   pod_rank=int(data["pod_rank"]),
                   window=int(data["window"]),
                   retrain_every=int(data["retrain_every"]),
                   train_weeks=int(data["train_weeks"]),
                   val_weeks=int(data["val_weeks"]),
                   epochs=int(data["epochs"]),
                   batch_size=int(data["batch_size"]),
                   learning_rate=float(data["learning_rate"]),
                   lstm_units=int(data["lstm_units"]),
                   seed=int(data["seed"]),
                   forgetting=float(data["forgetting"]))


# ----------------------------------------------------------------------
# Evaluation helpers
# ----------------------------------------------------------------------
def field_rmse(emulator: PODLSTMEmulator,
               snapshots: np.ndarray) -> float:
    """Lead-1 physical-field RMSE of ``emulator`` over a snapshot series.

    Computed in field space (not coefficient space) so candidates
    trained on *different* POD bases are comparable — the promotion
    gate's whole point.
    """
    times, fields = emulator.forecast_fields(snapshots, horizon=1)
    return rmse(snapshots[:, times], fields)


def emulator_digest(emulator: PODLSTMEmulator) -> str:
    """SHA-256 over an emulator's complete fitted content.

    Hashes the pipeline's fitted state (config JSON + arrays, sorted by
    name) and the network weights — *content*, not serialized file
    bytes, because ``.npz`` archives embed member timestamps that differ
    between otherwise identical bundles. Two emulators with equal
    digests forecast identically.
    """
    config, arrays = emulator.pipeline.fitted_state()
    digest = hashlib.sha256()
    digest.update(json.dumps(config, sort_keys=True).encode("utf-8"))
    for name in sorted(arrays):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    network = emulator.network
    if network is not None:
        for weight in network.get_weights():
            digest.update(np.ascontiguousarray(weight).tobytes())
    return digest.hexdigest()


def validate_pipeline_status(data: dict) -> dict:
    """Schema-check a :meth:`ContinuousPipeline.status` document.

    Raises ``ValueError`` on malformed documents; returns ``data``
    otherwise. The CI pipeline-smoke job runs every ``pipeline status
    --json`` through this.
    """
    if data.get("format") != STATUS_FORMAT:
        raise ValueError(f"not a pipeline status document "
                         f"(format {data.get('format')!r})")
    if data.get("version") != STATUS_VERSION:
        raise ValueError(
            f"unsupported status version {data.get('version')!r}")
    for key in ("feed", "config", "stream", "counters", "basis",
                "active", "decisions"):
        if key not in data:
            raise ValueError(f"status document missing key {key!r}")
    stream = data["stream"]
    for key in ("next_batch", "weeks_ingested"):
        if not isinstance(stream.get(key), int) or stream[key] < 0:
            raise ValueError(f"stream.{key} must be a non-negative int, "
                             f"got {stream.get(key)!r}")
    counters = data["counters"]
    for key in ("basis_updates", "retrains", "promotions", "rejections"):
        if not isinstance(counters.get(key), int) or counters[key] < 0:
            raise ValueError(f"counters.{key} must be a non-negative int, "
                             f"got {counters.get(key)!r}")
    if counters["retrains"] != (counters["promotions"]
                                + counters["rejections"]):
        raise ValueError("retrains must equal promotions + rejections")
    if not isinstance(data["decisions"], list):
        raise ValueError("decisions must be a list")
    for entry in data["decisions"]:
        PromotionDecision.from_json(entry)  # raises on malformed entries
    return data


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class ContinuousPipeline:
    """One continuous-learning loop bound to a state file and a registry.

    Parameters
    ----------
    state_path:
        Where the durable state artifact lives (``.npz`` suffix
        normalized by :func:`repro.durable.npz_path`, so ``pipe.state``
        lives at ``pipe.state.npz``). If it exists, the pipeline
        **resumes** from it — and refuses configs that contradict the
        persisted ones, since a changed stream or protocol would
        silently break the replay contract.
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` receiving
        published candidates and promotions.
    feed_config / config:
        Stream identity and retraining protocol for a *fresh* pipeline;
        both default to their dataclass defaults.
    """

    def __init__(self, state_path, registry: ModelRegistry,
                 feed_config: FeedConfig | None = None,
                 config: PipelineConfig | None = None) -> None:
        self.state_path = Path(state_path)
        self.registry = registry
        feed_config = feed_config or FeedConfig()
        config = config or PipelineConfig()
        source = npz_path(self.state_path)
        if source.exists():
            state = load_state(source)
            check_identity(source, "feed",
                           FeedConfig.from_json(state.feed_config),
                           feed_config)
            check_identity(source, "pipeline config",
                           PipelineConfig.from_json(state.pipeline_config),
                           config)
            self.state = state
        else:
            self.state = PipelineState(
                feed_config=feed_config.as_json(),
                pipeline_config=config.as_json(),
                next_batch=0, decisions=[],
                pod=IncrementalPOD(config.pod_rank,
                                   forgetting=config.forgetting))
        self.feed = SnapshotFeed(feed_config)
        self.config = config
        # ``(first_week, block)`` pairs, oldest first, of the ingested
        # blocks that still reach into the trailing train+val window.
        self._window: deque[tuple[int, np.ndarray]] = deque()

    @classmethod
    def resume(cls, state_path, registry: ModelRegistry
               ) -> "ContinuousPipeline":
        """Reattach to an existing state file, taking both the feed and
        the pipeline config from it (the ``repro pipeline`` CLI path)."""
        if not npz_path(state_path).exists():
            raise FileNotFoundError(
                f"no pipeline state at {state_path} (run the pipeline "
                f"first)")
        state = load_state(state_path)
        return cls(state_path, registry,
                   feed_config=FeedConfig.from_json(state.feed_config),
                   config=PipelineConfig.from_json(state.pipeline_config))

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, max_batches: int | None = None) -> list[PromotionDecision]:
        """Ingest up to ``max_batches`` batches (all remaining when
        ``None``; the feed must then be bounded). Returns the decisions
        made *during this call*.

        State is persisted atomically after every batch, so killing the
        process at any point loses at most the batch in flight — and
        replaying that batch after restart is bit-identical.
        """
        if max_batches is None and self.feed.config.n_weeks is None:
            raise ValueError(
                "max_batches is required on an unbounded feed")
        made: list[PromotionDecision] = []
        processed = 0
        with obs.scope("pipeline/run"):
            while max_batches is None or processed < max_batches:
                batch = self.state.next_batch
                indices, block = self.feed.batch(batch)
                if indices.size == 0:
                    break
                self._ingest(block)
                decision = None
                if self._should_retrain(batch):
                    decision = self._retrain(batch)
                    self.state.decisions.append(decision)
                    made.append(decision)
                self.state.next_batch = batch + 1
                save_state(self.state_path, self.state)
                processed += 1
        return made

    def _ingest(self, block: np.ndarray) -> None:
        # Batches are contiguous from week 0: the block starts at the
        # week count ingested so far.
        self._window.append((self.state.snapshots_ingested, block))
        with obs.scope("pipeline/ingest"):
            self.state.pod.partial_fit(block)
        obs.counter_add("pipeline/snapshots_ingested", block.shape[1])
        obs.counter_add("pipeline/basis_updates")
        start = self.state.snapshots_ingested - (self.config.train_weeks
                                                 + self.config.val_weeks)
        while self._window[0][0] + self._window[0][1].shape[1] <= start:
            self._window.popleft()

    def _window_columns(self, start: int, stop: int) -> np.ndarray:
        """Weeks ``[start, stop)`` of the trailing window as a fresh
        C-contiguous ``(N_h, stop - start)`` array, the layout
        :meth:`SnapshotFeed.snapshots` returns: training then sees the
        same bytes through the same matmul paths.

        Weeks ingested before this process started (a resume) come from
        one feed read, at the first retrain that needs them.
        """
        held = self._window[0][0]
        if start < held:
            self._window.appendleft(
                (start, self.feed.snapshots(np.arange(start, held))))
        return np.concatenate(
            [block[:, max(start - first, 0):stop - first]
             for first, block in self._window
             if first < stop and first + block.shape[1] > start], axis=1)

    def _should_retrain(self, batch: int) -> bool:
        cfg = self.config
        if (batch + 1) % cfg.retrain_every != 0:
            return False
        return (self.state.snapshots_ingested
                >= cfg.train_weeks + cfg.val_weeks)

    # ------------------------------------------------------------------
    # Retrain + promotion gate
    # ------------------------------------------------------------------
    def _retrain(self, batch: int) -> PromotionDecision:
        cfg = self.config
        retrain_index = self.state.retrains
        week_end = self.state.snapshots_ingested
        val_start = week_end - cfg.val_weeks
        train_start = val_start - cfg.train_weeks
        train_snaps = self._window_columns(train_start, val_start)
        val_snaps = self._window_columns(val_start, week_end)

        # One RNG stream per retrain index: resume-independent.
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, _RETRAIN_TAG, retrain_index)))
        basis = self.state.pod.basis(cfg.n_modes)
        emulator = PODLSTMEmulator(n_modes=cfg.n_modes, window=cfg.window,
                                   trainer=cfg.trainer())
        network = build_manual_lstm(cfg.lstm_units, 1,
                                    input_dim=cfg.n_modes,
                                    output_dim=cfg.n_modes, rng=rng)
        with obs.scope("pipeline/retrain"):
            emulator.fit(train_snaps, network=network, basis=basis, rng=rng)
        obs.counter_add("pipeline/retrains")

        candidate_rmse = field_rmse(emulator, val_snaps)
        obs.gauge_set("pipeline/candidate_rmse", candidate_rmse)
        active_name = self.registry.active()
        active_rmse = None
        if active_name is not None:
            _, incumbent = self.registry.load(active_name)
            active_rmse = field_rmse(incumbent, val_snaps)
            obs.gauge_set("pipeline/active_rmse", active_rmse)

        version = f"r{retrain_index:04d}"
        if active_rmse is None:
            promoted, reason = True, "no-active"
        elif candidate_rmse < active_rmse:
            promoted, reason = True, "improved"
        else:
            promoted, reason = False, "not-improved"

        if promoted:
            self.registry.publish(
                version, emulator,
                metadata={"pipeline": {
                    "retrain_index": retrain_index,
                    "batch_index": batch,
                    "week_end": week_end,
                    "basis_version": self.state.pod.basis_version,
                    "candidate_rmse": candidate_rmse,
                    "active_rmse": active_rmse,
                }},
                activate=True,
                note=f"pipeline retrain {retrain_index} ({reason})")
            obs.counter_add("pipeline/promotions")
        else:
            obs.counter_add("pipeline/rejections")

        return PromotionDecision(
            retrain_index=retrain_index, batch_index=batch,
            week_end=week_end, version=version,
            candidate_rmse=candidate_rmse, active_rmse=active_rmse,
            promoted=promoted, reason=reason)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """A JSON-serializable status document (see
        :func:`validate_pipeline_status` for the schema)."""
        state = self.state
        return {
            "format": STATUS_FORMAT,
            "version": STATUS_VERSION,
            "feed": dict(state.feed_config),
            "config": dict(state.pipeline_config),
            "stream": {
                "next_batch": state.next_batch,
                "weeks_ingested": state.snapshots_ingested,
            },
            "counters": {
                "basis_updates": state.basis_updates,
                "retrains": state.retrains,
                "promotions": state.promotions,
                "rejections": state.rejections,
            },
            "basis": {
                "rank": state.pod.n_modes,
                "version": state.pod.basis_version,
                "n_seen": state.pod.n_seen,
            },
            "active": self.registry.active(),
            "decisions": [d.as_json() for d in state.decisions],
        }

    def report(self) -> str:
        """Human-readable status: stream position, counters, the shared
        registry listing (:meth:`~repro.serve.registry.ModelRegistry.report`)
        and the decision history."""
        state = self.state
        lines = [
            f"pipeline {self.state_path}",
            f"  stream: batch {state.next_batch}, "
            f"{state.snapshots_ingested} weeks ingested",
            f"  basis: rank {state.pod.n_modes}, "
            f"version {state.pod.basis_version}",
            f"  retrains: {state.retrains} "
            f"({state.promotions} promoted, {state.rejections} rejected)",
            self.registry.report(),
        ]
        for d in state.decisions:
            outcome = "promote" if d.promoted else "reject"
            active = "-" if d.active_rmse is None \
                else f"{d.active_rmse:.6f}"
            lines.append(
                f"  [{d.retrain_index}] week {d.week_end}: {d.version} "
                f"rmse {d.candidate_rmse:.6f} vs active {active} "
                f"-> {outcome} ({d.reason})")
        return "\n".join(lines)
