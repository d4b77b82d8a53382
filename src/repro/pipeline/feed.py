"""Replayable weekly snapshot feed over the synthetic SST archive.

A :class:`SnapshotFeed` models snapshots "arriving" from an observing
system: the stream is chunked into fixed-size weekly batches, addressed
by batch index. Because :class:`~repro.data.sst.SyntheticSST` is
random-access bit-reproducible, the feed is **replayable** — batch ``b``
has identical bytes whether it is read during live ingestion, re-read
after a crash, or regenerated months later from the same
:class:`FeedConfig`. That property is what lets the continuous pipeline
(:mod:`repro.pipeline.service`) persist only a cursor (plus the POD
factorization) instead of raw data, and still resume deterministically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from repro.data.grid import LatLonGrid
from repro.data.sst import DRIFT_SCENARIOS, SSTConfig, SyntheticSST

__all__ = ["FeedConfig", "SnapshotFeed"]


@dataclass(frozen=True)
class FeedConfig:
    """Complete identity of a snapshot stream (JSON-serializable).

    Two feeds built from equal configs produce bitwise-identical batches
    for every index — the config is therefore pinned inside the durable
    pipeline state, and resume refuses a mismatching stream.
    """

    degrees: float = 12.0        # grid resolution (must divide 180)
    seed: int = 0                # generator seed
    batch_weeks: int = 4         # snapshots per arrival
    n_weeks: int | None = None   # stream end (exclusive); None = unbounded
    scenario: str = "none"       # drift scenario (repro.data.sst)
    scenario_onset_week: int = 430
    scenario_ramp_weeks: int = 104
    scenario_strength: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_weeks < 1:
            raise ValueError(
                f"batch_weeks must be >= 1, got {self.batch_weeks}")
        if self.n_weeks is not None and self.n_weeks < 1:
            raise ValueError(f"n_weeks must be >= 1, got {self.n_weeks}")
        if self.scenario not in DRIFT_SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"expected one of {DRIFT_SCENARIOS}")

    def as_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "FeedConfig":
        n_weeks = data["n_weeks"]
        return cls(degrees=float(data["degrees"]), seed=int(data["seed"]),
                   batch_weeks=int(data["batch_weeks"]),
                   n_weeks=None if n_weeks is None else int(n_weeks),
                   scenario=str(data["scenario"]),
                   scenario_onset_week=int(data["scenario_onset_week"]),
                   scenario_ramp_weeks=int(data["scenario_ramp_weeks"]),
                   scenario_strength=float(data["scenario_strength"]))


class SnapshotFeed:
    """Batched random access over one configured snapshot stream."""

    def __init__(self, config: FeedConfig) -> None:
        self.config = config
        sst_config = SSTConfig(
            scenario=config.scenario,
            scenario_onset_week=config.scenario_onset_week,
            scenario_ramp_weeks=config.scenario_ramp_weeks,
            scenario_strength=config.scenario_strength)
        self.generator = SyntheticSST(
            grid=LatLonGrid(degrees=config.degrees), seed=config.seed,
            config=sst_config)

    # ------------------------------------------------------------------
    @property
    def n_batches(self) -> int | None:
        """Total batches in the stream (``None`` when unbounded). The
        final batch may be short."""
        if self.config.n_weeks is None:
            return None
        return -(-self.config.n_weeks // self.config.batch_weeks)

    def batch_indices(self, batch: int) -> np.ndarray:
        """Week indices of batch ``batch`` (empty past the stream end)."""
        if batch < 0:
            raise ValueError(f"batch must be >= 0, got {batch}")
        start = batch * self.config.batch_weeks
        stop = start + self.config.batch_weeks
        if self.config.n_weeks is not None:
            stop = min(stop, self.config.n_weeks)
        return np.arange(start, max(start, stop), dtype=np.int64)

    def batch(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        """``(week_indices, snapshots)`` of one batch; snapshots are
        ocean-only columns of shape ``(N_h, len(week_indices))``."""
        idx = self.batch_indices(batch)
        if idx.size == 0:
            return idx, np.empty((self.generator.n_ocean, 0))
        return idx, self.generator.snapshots(idx)

    def batches(self, start: int = 0) -> Iterator[tuple[int, np.ndarray,
                                                        np.ndarray]]:
        """Yield ``(batch_index, week_indices, snapshots)`` from batch
        ``start`` to the stream end (forever when unbounded)."""
        b = start
        while True:
            idx, block = self.batch(b)
            if idx.size == 0:
                return
            yield b, idx, block
            b += 1

    def snapshots(self, indices) -> np.ndarray:
        """Arbitrary week columns (a resumed pipeline's window re-read)."""
        return self.generator.snapshots(indices)
