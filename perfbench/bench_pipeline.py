"""``pipeline``: continuous learning, one closed-loop caller.

A unit replays a bounded ``enso_shift`` stream of weekly 4-degree
snapshots through ``ContinuousPipeline.run`` with the default
``PipelineConfig``, one batch per call: each batch is an incremental POD
fold plus an atomic state save, and every 4th batch a rolling retrain,
the RMSE gate and a ``ModelRegistry`` publish/promote. The only workload
that uses ``IncrementalPOD`` and the per-batch durable writes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from harness import Tracer, cpu_seconds, median, now, percentile, unit_span
from layers import common_metrics, instrument

#: Stream length in weeks (batches of 4); the drift starts at week 430.
N_WEEKS = 480


class Pipeline:
    name = "pipeline"
    min_units = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.units = 0
        self.pending = None

    def _fresh(self):
        """A new pipeline on fresh state and registry, feed warmed."""
        from repro.pipeline import ContinuousPipeline, FeedConfig
        from repro.serve.registry import ModelRegistry

        self.units += 1
        root = self.workdir / f"replay{self.units}"
        registry = ModelRegistry(root / "registry")
        pipeline = ContinuousPipeline(
            root / "state.npz", registry,
            feed_config=FeedConfig(degrees=4.0, seed=self.seed,
                                   n_weeks=N_WEEKS, scenario="enso_shift"))
        # The generator extends its ENSO and weather series lazily; one
        # read at the last week builds them for the whole stream.
        pipeline.feed.snapshots([N_WEEKS - 1])
        return pipeline

    def setup(self) -> None:
        self.pending = self._fresh()

    def teardown(self) -> None:
        self.pending = None

    def unit(self, tracer: Tracer | None = None) -> dict:
        import repro.pipeline.service as service
        from repro.pipeline.service import emulator_digest, field_rmse
        from repro.serve.registry import ModelRegistry

        pipeline = self.pending or self._fresh()
        self.pending = None
        state_path = pipeline.state_path
        if tracer is not None:
            instrument(tracer)
            tracer.patch(service, "field_rmse", "pipeline.gate")
            tracer.patch(ModelRegistry, "load", "pipeline.gate")
            tracer.patch(ModelRegistry, "publish", "pipeline.publish")
            tracer.patch(service, "save_state", "pipeline.save",
                         count=("pipeline.state_bytes",
                                lambda a, k, r: Path(r).stat().st_size))
        batches = []
        try:
            cpu = cpu_seconds([os.getpid()])
            start = now()
            with unit_span(tracer, self.name):
                self._replay(pipeline, tracer, batches)
            wall = now() - start
            cpu = cpu_seconds([os.getpid()]) - cpu
        finally:
            if tracer is not None:
                tracer.unpatch()
                tracer.ident = None
        name, active = pipeline.registry.load()
        val = pipeline.feed.snapshots(
            np.arange(N_WEEKS - pipeline.config.val_weeks, N_WEEKS))
        return {"wall_s": wall, "cpu_s": cpu, "batches": batches,
                "weeks": pipeline.state.snapshots_ingested,
                "ledger": json.dumps([d.as_json()
                                      for d in pipeline.state.decisions]),
                "retrains": pipeline.state.retrains,
                "promotions": pipeline.state.promotions,
                "active": name, "digest": emulator_digest(active),
                "active_rmse_c": field_rmse(active, val),
                "state_bytes": state_path.with_suffix(".npz").stat().st_size}

    @staticmethod
    def _replay(pipeline, tracer, batches: list) -> None:
        """Every batch of the stream, one ``run`` call each, timed from
        its arrival to its decision recorded and state saved."""
        while pipeline.state.next_batch < pipeline.feed.n_batches:
            start = now()
            if tracer is None:
                decisions = pipeline.run(max_batches=1)
            else:
                tracer.ident = pipeline.state.next_batch
                with tracer.span("pipeline.run"):
                    decisions = pipeline.run(max_batches=1)
            batches.append((now() - start, bool(decisions)))

    # ------------------------------------------------------------------
    def summarize(self, units: list[dict]) -> tuple[dict, dict]:
        rate = sum(u["weeks"] for u in units) / sum(u["wall_s"]
                                                     for u in units)
        times = [t for u in units for t, _ in u["batches"]]
        retrains = [t for u in units for t, r in u["batches"] if r]
        named = {
            "pipeline.weeks_per_s": (rate, "weeks/s"),
            "pipeline.retrain_p50_s": (median(retrains), "s"),
            "pipeline.retrain_p90_s": (percentile(retrains, 90.0), "s"),
            "pipeline.active_rmse_c": (units[0]["active_rmse_c"], "degC"),
        }
        generic = {"ops_per_s": rate,
                   "cpu_ms_per_op": 1e3 * sum(u["cpu_s"] for u in units)
                   / len(times)}
        return named, generic

    def counts(self, units: list[dict]) -> tuple[int, int]:
        return sum(len(u["batches"]) for u in units), 0

    def checks(self, units: list[dict]) -> list[tuple[str, bool, str]]:
        ledgers = {u["ledger"] for u in units}
        digests = {u["digest"] for u in units}
        return [
            ("pipeline.decision_ledger", len(ledgers) == 1,
             f"{len(units)} replays, {units[0]['retrains']} retrains, "
             f"{len(ledgers)} distinct ledgers"),
            ("pipeline.emulator_digest", len(digests) == 1,
             f"final ACTIVE {units[0]['active']}, "
             f"{len(digests)} distinct digests"),
            ("pipeline.active_rmse_finite",
             all(np.isfinite(u["active_rmse_c"]) for u in units),
             f"{units[0]['active_rmse_c']:.6f} degC"),
        ]

    def layer_metrics(self, tracer: Tracer, agg: dict, unit: dict) -> dict:
        def get(name: str, key: str) -> float:
            return agg.get(name, {}).get(key, 0.0)

        metrics = common_metrics(agg, tracer.counts)
        saves = get("pipeline.save", "calls")
        metrics.update({
            "pipeline.fit_s": get("forecast.fit", "total_s"),
            "pipeline.gate_s": get("pipeline.gate", "total_s"),
            "pipeline.publish_s": get("pipeline.publish", "total_s"),
            "pipeline.save_s": get("pipeline.save", "self_s"),
            "pipeline.state_bytes": tracer.counts["pipeline.state_bytes"]
            / max(1, saves),
            "pipeline.promote_ratio": unit["promotions"]
            / max(1, unit["retrains"]),
        })
        return metrics
