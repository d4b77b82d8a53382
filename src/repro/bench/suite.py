"""The core benchmark suite behind ``python -m repro.cli bench``.

Covers the four cost centres of the reproduction (ISSUE: the paths every
"make it faster" PR will touch):

* recurrent-cell forward+backward at several ``(B, T, H)`` points
  (LSTM / GRU / SimpleRNN — the BPTT inner loop);
* one full :class:`~repro.nn.training.Trainer` epoch (batching, loss,
  clipping, Adam);
* POD basis computation (method of snapshots) at archive-like shape;
* synthesis of the 427-week SST training matrix on a fresh generator
  (the data layer under every paper-path workload);
* Table I's forecast path: a fitted emulator's leads 1-8 in one call,
  with the eight single-lead calls it replaces timed alongside;
* a 10-evaluation random-search slice over the surrogate (ask /
  evaluate / tell machinery, the NAS outer loop);
* a 200-evaluation RS campaign from a tabular benchmark archive
  (docs/NAS_BENCHMARK.md), with the extrapolated real-training cost of
  the same campaign recorded alongside for the speedup gate;
* a checkpoint save+load round-trip of a warm search (the per-write
  cost of campaign checkpointing, docs/CHECKPOINTING.md);
* the inference serving hot path (docs/SERVING.md): draining queued
  requests through the micro-batching engine at ``max_batch`` 1 vs 8,
  and closed-loop load-generator throughput at 4 clients.

Every benchmark is seeded and self-contained: ``make()`` builds all data
so only steady-state compute is timed, and tears down what it started —
pools, routers, engines and temp directories — when the timing is done.
The ``quick`` suite is sized to finish on one CPU core in well under two
minutes.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.bench.core import Benchmark

__all__ = ["default_suite"]

#: Input feature width of the cell benchmarks (the paper's POD setting
#: uses Nr = 5 modes; 8 keeps GEMM shapes BLAS-friendly).
_CELL_FEATURES = 8

#: (B, T, H) grid of the recurrent-cell benchmarks.
_QUICK_CELL_POINTS = (
    ("lstm", 32, 8, 32),
    ("lstm", 64, 16, 64),
    ("gru", 32, 8, 32),
    ("gru", 64, 16, 64),
    ("rnn", 64, 16, 64),
)
_FULL_CELL_POINTS = _QUICK_CELL_POINTS + (
    ("lstm", 64, 32, 96),
    ("gru", 64, 32, 96),
    ("rnn", 64, 32, 96),
)


def _cell_benchmark(kind: str, batch: int, steps: int,
                    units: int) -> Benchmark:
    @contextmanager
    def make():
        from repro.nn.layers import RECURRENT_LAYERS
        layer = RECURRENT_LAYERS[kind](units)
        layer.build([_CELL_FEATURES], rng=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((batch, steps, _CELL_FEATURES))
        grad = rng.standard_normal((batch, steps, units))

        def run():
            layer.forward([x], training=True)
            layer.zero_grads()
            layer.backward(grad)
        yield run

    return Benchmark(
        name=f"{kind}_fwd_bwd_b{batch}_t{steps}_h{units}",
        make=make,
        metadata={"kind": kind, "batch": batch, "steps": steps,
                  "units": units, "features": _CELL_FEATURES,
                  "measures": "forward+backward, full BPTT"})


def _trainer_epoch_benchmark(quick: bool) -> Benchmark:
    n, steps, features, units = (256, 8, 5, 16) if quick \
        else (1024, 8, 5, 64)

    @contextmanager
    def make():
        from repro.nn import LSTMLayer, Network, Trainer
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, steps, features))
        y = 0.3 * np.cumsum(x, axis=1)
        net = Network(input_dim=features, rng=0)
        net.add_node("l1", LSTMLayer(units), ["input"])
        net.add_node("output", LSTMLayer(features), ["l1"])
        net.set_output("output")
        trainer = Trainer(epochs=1, batch_size=64)

        def run():
            # Each rep continues training the same network: per-epoch cost
            # is weight-independent, so steady-state timing is unaffected.
            trainer.fit(net, x, y, rng=0)
        yield run

    return Benchmark(
        name="trainer_epoch",
        make=make,
        metadata={"examples": n, "steps": steps, "features": features,
                  "units": units, "batch_size": 64,
                  "measures": "one Trainer epoch incl. validation pass"})


def _pod_basis_benchmark(quick: bool) -> Benchmark:
    n_state, n_snapshots = (1500, 120) if quick else (6000, 400)

    @contextmanager
    def make():
        from repro.pod import fit_pod
        rng = np.random.default_rng(0)
        # Low-rank structure + noise, the regime of a geophysical archive.
        basis = rng.standard_normal((n_state, 12))
        coeffs = rng.standard_normal((12, n_snapshots))
        snapshots = basis @ coeffs + 0.1 * rng.standard_normal(
            (n_state, n_snapshots))

        def run():
            fit_pod(snapshots, n_modes=5)
        yield run

    return Benchmark(
        name="pod_basis",
        make=make,
        metadata={"n_state": n_state, "n_snapshots": n_snapshots,
                  "n_modes": 5,
                  "measures": "POD method of snapshots (paper Eq. 3-5)"})


def _sst_synthesis_benchmark(quick: bool) -> Benchmark:
    """A fresh :class:`~repro.data.sst.SyntheticSST` and its 427-week
    training matrix: grid patterns, the ENSO and weather oscillator
    series, then every snapshot column — what each paper-path workload
    pays for data before it trains. 4 degrees is the workloads' grid; the
    quick suite uses 9, which keeps the entry under a second of the quick
    suite at 3 reps."""
    degrees, n_weeks = (9.0 if quick else 4.0), 427

    @contextmanager
    def make():
        from repro.data.grid import LatLonGrid
        from repro.data.sst import SyntheticSST
        grid = LatLonGrid(degrees=degrees)

        def run():
            SyntheticSST(grid=grid, seed=0).snapshots(np.arange(n_weeks))
        yield run

    return Benchmark(
        name="sst_synthesis",
        make=make,
        metadata={"degrees": degrees, "weeks": n_weeks, "seed": 0,
                  "measures": "SyntheticSST construction (patterns, "
                              "ENSO and weather series) plus the "
                              "training snapshot matrix"})


def _forecast_leads_benchmark(quick: bool) -> Benchmark:
    """Table I's forecast path: a fitted emulator forecasts leads 1-8 of
    a test series in one call — one transform, one forward pass over
    the windows' first eight steps and eight reconstructions.

    ``make()`` also times the same leads as eight single-lead
    ``forecast_fields`` calls, each of which transforms, windows and
    predicts on its own; the median of three lands in the metadata as
    ``eight_calls_s``, and the number of threads the forecast's chunked
    predict runs on as ``threads``. 4 degrees and the 1,487 test weeks
    are the ``emulate`` workload's shape; the quick suite uses 9 degrees
    and 300 weeks."""
    degrees, n_test = (9.0, 300) if quick else (4.0, 1487)
    n_train, leads = 427, tuple(range(1, 9))

    @contextmanager
    def make():
        import time as _time

        from repro.data.grid import LatLonGrid
        from repro.data.sst import SyntheticSST
        from repro.forecast import PODLSTMEmulator
        from repro.nn.model import _usable_cpus
        from repro.nn.training import Trainer
        generator = SyntheticSST(grid=LatLonGrid(degrees=degrees), seed=0)
        snapshots = generator.snapshots(np.arange(n_train + n_test))
        emulator = PODLSTMEmulator(
            n_modes=5, window=8,
            trainer=Trainer(epochs=2, batch_size=64, learning_rate=0.002))
        emulator.fit(snapshots[:, :n_train], rng=0)
        test = snapshots[:, n_train:]
        windows = emulator.pipeline.windows(
            emulator.pipeline.transform(test)).n_examples
        # 256: the chunk size of PODLSTMEmulator.predict_windows.
        metadata["threads"] = min(-(-windows // 256), len(_usable_cpus()))
        times = []
        for _ in range(3):
            t0 = _time.perf_counter()
            for lead in leads:
                emulator.forecast_fields(test, horizon=lead)
            times.append(_time.perf_counter() - t0)
        metadata["eight_calls_s"] = sorted(times)[1]

        def run():
            emulator.forecast_leads(test, leads)
        yield run

    metadata = {"degrees": degrees, "train_weeks": n_train,
                "test_weeks": n_test, "leads": list(leads),
                "network": "LSTM(80) + LSTM(5) head, 2 epochs",
                "measures": "PODLSTMEmulator.forecast_leads over leads "
                            "1-8 in one call; eight_calls_s is the same "
                            "leads as eight single-lead forecast_fields "
                            "calls"}
    return Benchmark(name="forecast_leads", make=make, metadata=metadata)


def _random_search_benchmark() -> Benchmark:
    n_evaluations = 10

    @contextmanager
    def make():
        from repro.nas import RandomSearch, StackedLSTMSpace, \
            SurrogateEvaluator
        from repro.nas.space.ops import default_operations
        space = StackedLSTMSpace(n_layers=5, input_dim=5, output_dim=5,
                                 operations=default_operations())
        evaluator = SurrogateEvaluator(space)

        def run():
            algorithm = RandomSearch(space, rng=0)
            rng = np.random.default_rng(1)
            for _ in range(n_evaluations):
                arch = algorithm.ask()
                result = evaluator.evaluate(arch, rng)
                algorithm.tell(arch, result.reward)
        yield run

    return Benchmark(
        name=f"random_search_{n_evaluations}_evals",
        make=make,
        metadata={"n_evaluations": n_evaluations, "fidelity": "surrogate",
                  "measures": "ask/evaluate/tell loop over the paper's "
                              "full 5-layer space"})


def _checkpoint_roundtrip_benchmark() -> Benchmark:
    """Save + load of a warm aging-evolution search (docs/CHECKPOINTING.md)
    — the fixed cost every periodic campaign checkpoint pays, so it must
    stay cheap relative to the evaluations it snapshots between."""
    n_warm = 200

    @contextmanager
    def make():
        from repro.nas import AgingEvolution, StackedLSTMSpace, \
            SurrogateEvaluator, load_search, save_search
        from repro.nas.space.ops import default_operations
        space = StackedLSTMSpace(n_layers=5, input_dim=5, output_dim=5,
                                 operations=default_operations())
        evaluator = SurrogateEvaluator(space)
        search = AgingEvolution(space, rng=0)
        rng = np.random.default_rng(1)
        for _ in range(n_warm):
            arch = search.ask()
            search.tell(arch, evaluator.evaluate(arch, rng).reward)
        with tempfile.TemporaryDirectory(prefix="repro_bench_ckpt_") as tmp:
            path = Path(tmp) / "search.json"

            def run():
                save_search(search, path)
                load_search(path, space)
            yield run

    return Benchmark(
        name="checkpoint_roundtrip",
        make=make,
        metadata={"n_warm_evaluations": n_warm,
                  "measures": "atomic JSON save + exact-RNG load of a "
                              "warm AgingEvolution search"})


#: Pool sizes of the serial-vs-pool throughput benchmarks.
_PARALLEL_WORKER_COUNTS = (1, 2, 4)


#: Modeled per-evaluation node latency of the pool benchmarks (seconds).
_PACE_SECONDS = 0.08


def _parallel_search_evaluator():
    """A latency-bound random-search slice: surrogate quality plus the
    per-evaluation node occupancy the real machine pays.

    An evaluation on Theta holds a node for minutes while the search
    master merely waits, so the quantity a dispatch backend improves is
    *overlapped latency* — which also keeps this benchmark meaningful on
    single-core CI runners, where compute-bound work cannot speed up.
    """
    from repro.nas.evaluation import PacedEvaluator, SurrogateEvaluator
    from repro.nas.space.ops import Operation
    from repro.nas.space.search_space import StackedLSTMSpace
    ops = (Operation("identity"), Operation("lstm", 8),
           Operation("lstm", 16), Operation("lstm", 24))
    space = StackedLSTMSpace(n_layers=3, input_dim=5, output_dim=5,
                             operations=ops, max_skip_depth=3)
    evaluator = PacedEvaluator(SurrogateEvaluator(space),
                               pace_seconds=_PACE_SECONDS)
    return space, evaluator


def _parallel_search_benchmark(workers: int | None,
                               quick: bool) -> Benchmark:
    """Throughput of one random-search slice through an evaluation
    backend: ``workers=None`` is the in-process serial reference, else a
    ``workers``-process pool (same tasks, bitwise-identical results)."""
    n_evaluations = 8 if quick else 16

    @contextmanager
    def make():
        from repro.hpc.parallel import ParallelEvaluator, SerialEvaluator
        from repro.utils.rng import child_sequence, spawn_sequences
        space, evaluator = _parallel_search_evaluator()
        rng = np.random.default_rng(1)
        archs = [space.random_architecture(rng)
                 for _ in range(n_evaluations)]
        seeds = spawn_sequences(2, n_evaluations)
        if workers is None:
            backend = SerialEvaluator(evaluator)
        else:
            backend = ParallelEvaluator(evaluator, n_workers=workers)

        def run():
            handles = [backend.submit(arch, seed)
                       for arch, seed in zip(archs, seeds)]
            for handle in handles:
                backend.gather(handle)
        with backend:
            yield run

    label = "serial" if workers is None else f"w{workers}"
    return Benchmark(
        name=f"parallel_search_{label}",
        make=make,
        metadata={"workers": 0 if workers is None else workers,
                  "n_evaluations": n_evaluations,
                  "pace_seconds": _PACE_SECONDS, "fidelity": "surrogate",
                  "measures": "submit/gather throughput of a paced "
                              "random-search slice through the evaluation "
                              "backend (serial vs process pool)"})


def _serve_emulator():
    """A forecast-ready emulator for the serving benchmarks: pipeline
    fitted on a low-rank synthetic archive, network assembled untrained
    (inference cost is weight-independent)."""
    from repro.baselines.manual_lstm import build_manual_lstm
    from repro.forecast import PODCoefficientPipeline, PODLSTMEmulator
    rng = np.random.default_rng(0)
    n_state, n_snapshots = 400, 80
    base = rng.standard_normal((n_state, 8))
    snapshots = base @ rng.standard_normal((8, n_snapshots)) \
        + 0.05 * rng.standard_normal((n_state, n_snapshots))
    pipeline = PODCoefficientPipeline(n_modes=5, window=8)
    pipeline.fit(snapshots)
    network = build_manual_lstm(32, 1, input_dim=5, output_dim=5, rng=0)
    return PODLSTMEmulator.from_artifacts(pipeline, network)


def _serve_latency_benchmark(max_batch: int) -> Benchmark:
    """64 requests submitted at once through the engine, waited to
    completion — max_batch=1 is the no-coalescing reference, max_batch=8
    shows what micro-batching buys (cache off: compute, not lookups)."""
    n_requests = 64

    @contextmanager
    def make():
        from repro.serve import ForecastEngine
        emulator = _serve_emulator()
        rng = np.random.default_rng(1)
        windows = rng.uniform(-1.0, 1.0, size=(n_requests, 8, 5))
        with ForecastEngine(emulator, version=f"bench-b{max_batch}",
                            max_batch=max_batch, max_queue=n_requests,
                            cache_entries=0) as engine:

            def run():
                pendings = [engine.submit(w) for w in windows]
                for pending in pendings:
                    pending.result(timeout=30.0)
            yield run

    return Benchmark(
        name=f"serve_latency_b{max_batch}",
        make=make,
        metadata={"n_requests": n_requests, "max_batch": max_batch,
                  "cache": "off",
                  "measures": "drain 64 queued forecast requests through "
                              "the micro-batching engine (batch-invariant "
                              "kernels)"})


def _serve_throughput_benchmark() -> Benchmark:
    """Closed-loop load-generator throughput at 4 clients — the
    ``serve_throughput`` SLO trajectory entry of BENCH_core.json."""
    clients, requests_per_client = 4, 16

    @contextmanager
    def make():
        from repro.serve import ForecastEngine, run_loadgen
        emulator = _serve_emulator()
        rng = np.random.default_rng(2)
        windows = rng.uniform(
            -1.0, 1.0, size=(clients * requests_per_client, 8, 5))
        with ForecastEngine(emulator, version="bench-loadgen",
                            cache_entries=0) as engine:

            def run():
                run_loadgen(engine, windows, clients=clients,
                            requests_per_client=requests_per_client)
            yield run

    return Benchmark(
        name="serve_throughput",
        make=make,
        metadata={"clients": clients,
                  "requests_per_client": requests_per_client,
                  "cache": "off",
                  "measures": "closed-loop load generation against the "
                              "engine (threads, queueing, batching, SLO "
                              "aggregation)"})


def _nas_benchmark_campaign_benchmark() -> Benchmark:
    """A 200-evaluation random-search campaign answered entirely from a
    tabular benchmark archive (docs/NAS_BENCHMARK.md).

    ``make()`` also times a few real short trainings of the same space
    and extrapolates what the identical campaign would cost on the
    training path; both numbers land in the metadata so the JSON itself
    witnesses the archive's speedup (the acceptance floor is 100x, the
    measured ratio is typically >> 1000x)."""
    n_evaluations = 200
    n_reference_evals = 3

    @contextmanager
    def make():
        import time as _time

        from repro.nas import ArchitecturePerformanceModel, \
            BenchmarkEvaluator, RealTrainingEvaluator, build_archive, \
            run_benchmark_campaign
        from repro.nas.space.ops import Operation
        from repro.nas.space.search_space import StackedLSTMSpace
        from repro.nn.training import Trainer
        space = StackedLSTMSpace(
            3, input_dim=3, output_dim=3,
            operations=(Operation("identity"), Operation("lstm", 4),
                        Operation("lstm", 8), Operation("lstm", 12)),
            max_skip_depth=3)
        # The evaluator loads the archive into memory: its file can go.
        with tempfile.TemporaryDirectory(prefix="repro_bench_nasb_") as tmp:
            path = build_archive(space, ArchitecturePerformanceModel(space),
                                 Path(tmp) / "archive.npz")
            evaluator = BenchmarkEvaluator(path)

        # Reference: what each evaluation costs when it actually trains.
        # Tiny data and 4 epochs — still 5x below the search protocol's
        # 20 — so reference_campaign_s is a generous lower bound on the
        # per-candidate training the archive replaces.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 6, 3))
        y = 0.3 * np.cumsum(x, axis=1)
        real = RealTrainingEvaluator(
            space, (x, y, x[:16], y[:16]),
            trainer=Trainer(epochs=4, batch_size=16))
        t0 = _time.perf_counter()
        for i in range(n_reference_evals):
            real.evaluate(space.random_architecture(rng),
                          np.random.default_rng(i))
        per_eval = (_time.perf_counter() - t0) / n_reference_evals
        metadata["real_training_per_eval_s"] = per_eval
        metadata["reference_campaign_s"] = per_eval * n_evaluations

        def run():
            run_benchmark_campaign(evaluator, algorithm="rs",
                                   n_evaluations=n_evaluations, seed=0)
        yield run

    metadata = {"n_evaluations": n_evaluations,
                "n_records": 512, "fidelity": "benchmark (tabular)",
                "speedup_floor": 100.0,
                "measures": "200-evaluation RS campaign answered from an "
                            "exhaustive small-space archive; "
                            "reference_campaign_s extrapolates the same "
                            "campaign on the real-training path "
                            "(reference_campaign_s / mean_s must stay "
                            ">= speedup_floor)"}
    return Benchmark(name="nas_benchmark_campaign", make=make,
                     metadata=metadata)


def _hyperband_campaign_benchmark() -> Benchmark:
    """Hyperband on the 512-architecture benchmark archive vs the
    full-budget 200-evaluation random-search campaign (docs/SEARCH.md).

    ``make()`` runs the RS reference once and records both campaigns'
    noise-free archived quality and training-epoch totals into the
    metadata; the JSON itself witnesses the multi-fidelity win.
    ``hyperband_epochs`` is the campaign's ``epochs_incremental``: the
    budget a scheduler charges when each promotion pays only the delta
    over the candidate's previous rung. CI
    (multifidelity-smoke) gates on ``epochs_saved_ratio >=
    epochs_saved_floor`` and ``hyperband_clean_quality >=
    rs_clean_quality`` — Hyperband must reach the full-budget random
    search's best quality in at most a third of the training epochs.
    The timed region is the Hyperband campaign itself."""
    seed = 0
    rs_evaluations = 200
    multiplier = 4

    @contextmanager
    def make():
        from repro.nas import ArchitecturePerformanceModel, \
            BenchmarkEvaluator, Hyperband, build_archive, \
            run_benchmark_campaign, run_multifidelity_campaign
        from repro.nas.space.ops import Operation
        from repro.nas.space.search_space import StackedLSTMSpace
        space = StackedLSTMSpace(
            3, input_dim=3, output_dim=3,
            operations=(Operation("identity"), Operation("lstm", 4),
                        Operation("lstm", 8), Operation("lstm", 12)),
            max_skip_depth=3)
        model = ArchitecturePerformanceModel(space)
        # The evaluator loads the archive into memory: its file can go.
        with tempfile.TemporaryDirectory(prefix="repro_bench_hb_") as tmp:
            path = build_archive(space, model, Path(tmp) / "archive.npz")
            evaluator = BenchmarkEvaluator(path)
        scheduler = Hyperband(min_epochs=1, max_epochs=evaluator.epochs,
                              eta=4, candidate_multiplier=multiplier)

        rs = run_benchmark_campaign(evaluator, algorithm="rs",
                                    n_evaluations=rs_evaluations,
                                    seed=seed)
        hb = run_multifidelity_campaign(scheduler, evaluator, seed=seed)
        rs_epochs = rs_evaluations * evaluator.epochs
        metadata["rs_clean_quality"] = model.quality(
            tuple(rs["best_architecture"]))
        metadata["hyperband_clean_quality"] = model.quality(
            tuple(hb["best_architecture"]))
        metadata["rs_epochs"] = rs_epochs
        metadata["hyperband_epochs"] = hb["epochs_incremental"]
        metadata["hyperband_evaluations"] = hb["n_evaluations"]
        metadata["epochs_saved_ratio"] = rs_epochs \
            / hb["epochs_incremental"]

        def run():
            run_multifidelity_campaign(scheduler, evaluator, seed=seed)
        yield run

    metadata = {"seed": seed, "rs_evaluations": rs_evaluations,
                "eta": 4, "min_epochs": 1,
                "candidate_multiplier": multiplier, "n_records": 512,
                "epochs_saved_floor": 3.0,
                "measures": "Hyperband (eta=4, x4 brackets) over the "
                            "512-arch archive vs 200-evaluation "
                            "full-budget RS; *_clean_quality are the "
                            "noise-free archived qualities of each "
                            "campaign's best, epochs_saved_ratio = "
                            "rs_epochs / hyperband_epochs (must stay >= "
                            "epochs_saved_floor with hyperband quality "
                            ">= rs quality)"}
    return Benchmark(name="nas_hyperband_campaign", make=make,
                     metadata=metadata)


#: Per-request service-time floor of the router benchmarks. Like
#: ``_PACE_SECONDS`` above, a pace keeps the scaling measurement
#: meaningful on single-core CI runners: with paced workers the w4/w1
#: throughput ratio measures dispatch/sharding overlap, not how many
#: LSTM forward passes one core can interleave.
_ROUTER_PACE_SECONDS = 0.01


def _serve_router_benchmark(workers: int) -> Benchmark:
    """Closed-loop load through the sharded socket router at 1 vs 4
    paced workers — the distributed-tier scaling entries of
    BENCH_core.json (w4 must sustain >= 2x the w1 throughput)."""
    clients, requests_per_client = 8, 6

    @contextmanager
    def make():
        from repro.serve import EngineConfig, ModelRegistry
        from repro.serve.loadgen import run_router_loadgen
        from repro.serve.router import ForecastRouter
        emulator = _serve_emulator()
        rng = np.random.default_rng(3)
        windows = rng.uniform(
            -1.0, 1.0, size=(clients * requests_per_client, 8, 5))
        # max_batch=1 + cache off: every request occupies its worker for
        # the full pace, so throughput scales with worker overlap only.
        worker_config = EngineConfig(max_batch=1, cache_entries=0,
                                     pace_s=_ROUTER_PACE_SECONDS)
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-router-") as registry_dir:
            ModelRegistry(registry_dir).publish("bench", emulator,
                                                activate=True)
            with ForecastRouter(registry_dir, n_workers=workers,
                                worker_config=worker_config) as router:

                def run():
                    run_router_loadgen(
                        router.address, windows, clients=clients,
                        requests_per_client=requests_per_client)
                yield run

    return Benchmark(
        name=f"serve_router_throughput_w{workers}",
        make=make,
        metadata={"workers": workers, "clients": clients,
                  "requests_per_client": requests_per_client,
                  "max_batch": 1, "cache": "off",
                  "pace_seconds": _ROUTER_PACE_SECONDS,
                  "measures": "closed-loop load through the sharded "
                              "socket router against paced engine "
                              "workers (framing, consistent-hash "
                              "dispatch, multi-process overlap)"})


def _pipeline_cycle_benchmark() -> Benchmark:
    """One full continuous-learning cycle — ingest a weekly batch, fold
    it into the incremental POD basis, retrain the emulator and run the
    promotion gate — the end-to-end cost of `repro pipeline run` per
    retraining batch."""
    batch_weeks = 6

    @contextmanager
    def make():
        from repro.pipeline import (
            ContinuousPipeline,
            FeedConfig,
            PipelineConfig,
        )
        from repro.serve import ModelRegistry
        feed = FeedConfig(degrees=20.0, seed=0, batch_weeks=batch_weeks)
        config = PipelineConfig(n_modes=3, pod_rank=6, window=4,
                                retrain_every=1, train_weeks=36,
                                val_weeks=12, epochs=1, batch_size=32,
                                lstm_units=8)
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-pipeline-") as tmp:
            service = ContinuousPipeline(
                Path(tmp) / "state", ModelRegistry(Path(tmp) / "reg"),
                feed, config)
            # Pre-ingest past train+val depth so every timed cycle
            # retrains (the feed is unbounded; repetitions keep advancing
            # the stream).
            while (service.state.snapshots_ingested
                   < config.train_weeks + config.val_weeks):
                service.run(max_batches=1)

            def run():
                service.run(max_batches=1)
            yield run

    return Benchmark(
        name="pipeline_cycle",
        make=make,
        metadata={"degrees": 20.0, "batch_weeks": batch_weeks,
                  "train_weeks": 36, "val_weeks": 12, "epochs": 1,
                  "measures": "one continuous-learning batch: incremental "
                              "POD fold, rolling emulator retrain, "
                              "validation-gated promotion and the atomic "
                              "state save"})


def default_suite(quick: bool = True, *,
                  max_workers: int = 4) -> list[Benchmark]:
    """The BENCH_core.json suite (23 benchmarks quick, 26 full).

    ``max_workers`` caps the pool sizes of the serial-vs-pool throughput
    benchmarks (``repro bench --workers``); 0 drops them entirely.
    """
    points = _QUICK_CELL_POINTS if quick else _FULL_CELL_POINTS
    suite = [_cell_benchmark(*p) for p in points]
    suite.append(_trainer_epoch_benchmark(quick))
    suite.append(_pod_basis_benchmark(quick))
    suite.append(_sst_synthesis_benchmark(quick))
    suite.append(_forecast_leads_benchmark(quick))
    suite.append(_random_search_benchmark())
    suite.append(_nas_benchmark_campaign_benchmark())
    suite.append(_hyperband_campaign_benchmark())
    suite.append(_checkpoint_roundtrip_benchmark())
    if max_workers > 0:
        suite.append(_parallel_search_benchmark(None, quick))
        suite.extend(_parallel_search_benchmark(w, quick)
                     for w in _PARALLEL_WORKER_COUNTS if w <= max_workers)
    suite.append(_serve_latency_benchmark(1))
    suite.append(_serve_latency_benchmark(8))
    suite.append(_serve_throughput_benchmark())
    suite.append(_serve_router_benchmark(1))
    suite.append(_serve_router_benchmark(4))
    suite.append(_pipeline_cycle_benchmark())
    return suite
