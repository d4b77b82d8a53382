"""``search``: the paper's search loop, closed loop.

A unit is one ``AgingEvolution`` campaign through
``run_asynchronous_search`` on ``RealTrainingEvaluator``, evaluated by a
2-worker ``ParallelEvaluator`` with periodic campaign checkpoints. The
evaluator charges simulated time from an ``ArchitecturePerformanceModel``,
so the trajectory and the evaluation count depend on the seed only, not
on wall time. Many short trainings of differently shaped networks: the
per-evaluation overhead (network build, pickling, pipes, ask/tell,
checkpoint writes) is a large share of the cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.nas.evaluation import RealTrainingEvaluator

from harness import (Tracer, cpu_seconds, median, now, percentile,
                     program_pids, unit_span)
from layers import common_metrics, instrument

WORKERS = 2
EPOCHS = 2
#: Simulated allocation: about 15 evaluations on 2 simulated nodes.
NODES = 2
WALL_SECONDS = 300.0
CHECKPOINT_EVERY = 60.0
#: Root of the campaign's own streams (proposals, node and task seeds,
#: simulated costs). The workload seed varies only the SST archive; with
#: the paper's population of 100 a short campaign stays in its random
#: initial phase, so every seed trains the same architectures, as
#: emulate does.
CAMPAIGN_SEED = 0


class TracingEvaluator(RealTrainingEvaluator):
    """Real training that records which process evaluated and, when
    ``trace`` is set, records spans there and ships them back in the
    result metadata."""

    trace = False

    def evaluate(self, arch, rng=None):
        if not self.trace:
            result = super().evaluate(arch, rng)
        else:
            tracer = getattr(self, "_tracer", None)
            if tracer is None:  # first call in this worker
                tracer = self._tracer = Tracer()
                instrument(tracer)
            first = len(tracer.spans)
            with tracer.span("nas.evaluate"):
                result = super().evaluate(arch, rng)
            result.metadata["spans"] = [
                (n, s, e, p - first if p >= first else -1, i)
                for n, s, e, p, i in tracer.spans[first:]]
            del tracer.spans[first:]
            result.metadata["train_batches"] = \
                tracer.counts.pop("nn.train_batches", 0)
        result.metadata["pid"] = os.getpid()
        return result

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_tracer", None)
        return state


class Search:
    name = "search"
    min_units = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.pool = None

    def setup(self) -> None:
        from repro.data import load_sst_dataset
        from repro.data.windowing import train_validation_split
        from repro.forecast.pipeline import PODCoefficientPipeline
        from repro.hpc.parallel import ParallelEvaluator
        from repro.nas import ArchitecturePerformanceModel, StackedLSTMSpace
        from repro.nn.training import Trainer

        dataset = load_sst_dataset(degrees=4.0, seed=self.seed)
        train = dataset.training_snapshots()
        pipeline = PODCoefficientPipeline(n_modes=5, window=8).fit(train)
        examples = pipeline.windows_from_snapshots(train)
        fit, val = train_validation_split(
            examples, train_fraction=0.8,
            rng=np.random.default_rng(np.random.SeedSequence((self.seed, 1))))
        self.space = StackedLSTMSpace()
        self.evaluator = TracingEvaluator(
            self.space, (fit.inputs, fit.outputs, val.inputs, val.outputs),
            trainer=Trainer(epochs=EPOCHS, batch_size=64,
                            learning_rate=0.001),
            cost_model=ArchitecturePerformanceModel(self.space,
                                                    seed=CAMPAIGN_SEED))
        self.pool = ParallelEvaluator(self.evaluator, n_workers=WORKERS)
        # Warm-up: every worker finishes one evaluation before timing.
        seeds = np.random.SeedSequence((self.seed, 2)).spawn(WORKERS)
        arch = self.space.random_architecture(np.random.default_rng(0))
        handles = [self.pool.submit(arch, s) for s in seeds]
        for handle in handles:
            self.pool.gather(handle)

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # ------------------------------------------------------------------
    def unit(self, tracer: Tracer | None = None) -> dict:
        import repro.hpc.executor as executor
        from repro.hpc.executor import run_asynchronous_search
        from repro.hpc.parallel import ParallelEvaluator
        from repro.hpc.theta import ThetaPartition
        from repro.nas import AgingEvolution
        from repro.nas.checkpoint import CheckpointPolicy

        pool = self.pool
        if tracer is not None:
            # A pool of its own, forked before any parent-side patch, so
            # the workers record only what the evaluator ships back.
            self.evaluator.trace = True
            pool = ParallelEvaluator(self.evaluator, n_workers=WORKERS)
            self.evaluator.trace = False
        algorithm = AgingEvolution(
            self.space,
            rng=np.random.default_rng(
                np.random.SeedSequence((CAMPAIGN_SEED, 3))))
        checkpoint = self.workdir / "campaign.json"
        evals: list[dict] = []
        submitted: dict[int, float] = {}
        original_submit, original_gather = pool.submit, pool.gather
        ipc = [0]
        inflight = {"n": 0, "since": now(), "area": 0.0}

        def tick(delta: int) -> None:
            t = now()
            inflight["area"] += inflight["n"] * (t - inflight["since"])
            inflight["n"] += delta
            inflight["since"] = t

        def submit(arch, seed, epochs=None):
            handle = original_submit(arch, seed, epochs)
            submitted[handle] = now()
            ipc[0] += len(pickle.dumps((handle, tuple(arch), seed, epochs)))
            tick(+1)
            return handle

        def gather(handle):
            if tracer is None:
                result = original_gather(handle)
            else:
                with tracer.span("hpc.gather"):
                    result = original_gather(handle)
                    tracer.add_spans(result.metadata.pop("spans"),
                                     ident=len(evals))
                    tracer.counts["nn.train_batches"] += \
                        result.metadata.pop("train_batches")
            done = now()
            tick(-1)
            ipc[0] += len(pickle.dumps(("ok", handle, result)))
            evals.append({"latency_s": done - submitted.pop(handle),
                          "wall_s": result.metadata.get("wall_seconds", 0.0),
                          "failed": bool(result.metadata.get("failed")),
                          "pid": result.metadata.get("pid"),
                          "arch": tuple(result.architecture)})
            return result

        pool.submit, pool.gather = submit, gather
        if tracer is not None:
            instrument(tracer)
            tracer.patch(algorithm, "ask", "nas.ask")
            tracer.patch(algorithm, "tell", "nas.tell")
            tracer.patch(executor, "atomic_write_json", "nas.checkpoint",
                         count=("nas.checkpoint_bytes",
                                lambda a, k, r: Path(a[0]).stat().st_size))
        try:
            pids = program_pids()
            cpu = cpu_seconds(pids)
            start = now()
            with unit_span(tracer, self.name), \
                    tracer.span("hpc.campaign") if tracer is not None \
                    else nullcontext():
                tracker = run_asynchronous_search(
                    algorithm, self.evaluator,
                    ThetaPartition(n_nodes=NODES, wall_seconds=WALL_SECONDS),
                    rng=np.random.default_rng(
                        np.random.SeedSequence((CAMPAIGN_SEED, 4))),
                    backend=pool,
                    checkpoint=CheckpointPolicy(
                        checkpoint, every_seconds=CHECKPOINT_EVERY))
            wall = now() - start
            cpu = cpu_seconds(pids) - cpu
        finally:
            del pool.submit, pool.gather
            if tracer is not None:
                tracer.unpatch()
                pool.close()
        tick(0)
        digest = hashlib.sha256(json.dumps(
            [[list(r.architecture), r.reward, r.start_time, r.end_time,
              r.node] for r in tracker.records]).encode()).hexdigest()
        return {"wall_s": wall, "cpu_s": cpu, "evals": evals,
                "n_evaluations": tracker.n_evaluations,
                "best_r2": float(algorithm.best_reward), "digest": digest,
                "ipc_bytes": ipc[0],
                "inflight_mean": inflight["area"] / wall}

    # ------------------------------------------------------------------
    def summarize(self, units: list[dict]) -> tuple[dict, dict]:
        n_evals = sum(u["n_evaluations"] for u in units)
        rate = n_evals / sum(u["wall_s"] for u in units)
        named = {"search.evals_per_s": (rate, "1/s"),
                 "search.best_r2": (units[0]["best_r2"], "R2"),
                 "search.evaluations": (float(units[0]["n_evaluations"]),
                                        "count")}
        generic = {"ops_per_s": rate,
                   "cpu_ms_per_op": 1e3 * sum(u["cpu_s"] for u in units)
                   / n_evals}
        return named, generic

    def counts(self, units: list[dict]) -> tuple[int, int]:
        evals = [e for u in units for e in u["evals"]]
        return len(evals), sum(e["failed"] for e in evals)

    def checks(self, units: list[dict]) -> list[tuple[str, bool, str]]:
        digests = {u["digest"] for u in units}
        return [
            ("search.trajectory_digest", len(digests) == 1,
             f"{len(units)} campaigns, {len(digests)} distinct digests"),
            ("search.pool_evaluated",
             all(e["pid"] != os.getpid() for u in units for e in u["evals"]),
             "every evaluation ran in a pool worker"),
            ("search.no_failed_evaluations",
             not any(e["failed"] for u in units for e in u["evals"]),
             "every evaluation trained"),
            ("search.best_r2_finite",
             all(np.isfinite(u["best_r2"]) for u in units),
             f"best R2 {units[0]['best_r2']:.6f}"),
        ]

    def layer_metrics(self, tracer: Tracer, agg: dict, unit: dict) -> dict:
        def self_s(name: str) -> float:
            return agg.get(name, {}).get("self_s", 0.0)

        walls = [e["wall_s"] for e in unit["evals"]]
        metrics = common_metrics(agg, tracer.counts)
        metrics.update({
            "nas.ask_s": self_s("nas.ask"),
            "nas.tell_s": self_s("nas.tell"),
            "nas.evaluate_s.p50": median(walls),
            "nas.evaluate_s.p90": percentile(walls, 90.0),
            "nas.checkpoint_s": self_s("nas.checkpoint"),
            "nas.checkpoint_bytes": float(
                tracer.counts["nas.checkpoint_bytes"]),
            "nas.unique_arch_ratio":
                len({e["arch"] for e in unit["evals"]}) / len(walls),
            # The campaign loop's wait beyond the evaluation itself: pickling,
            # pipes and wake-ups (the worker starts before gather opens).
            "hpc.dispatch_s": sum(e["latency_s"] - e["wall_s"]
                                  for e in unit["evals"]),
            "hpc.inflight_mean": unit["inflight_mean"],
            "hpc.worker_busy_ratio": sum(walls) / (WORKERS * unit["wall_s"]),
            "hpc.ipc_bytes": float(unit["ipc_bytes"]),
            "hpc.driver_self_s": self_s("hpc.campaign"),
        })
        return metrics
