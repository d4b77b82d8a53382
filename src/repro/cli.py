"""Command-line entry point: regenerate any paper table or figure, run
the core microbenchmark suite, or drive a NAS search directly.

Usage::

    python -m repro list
    python -m repro fig3 [--preset quick|full]
    python -m repro table3 --preset full
    python -m repro all --preset quick
    python -m repro bench --quick            # writes BENCH_core.json
    python -m repro bench --quick --compare OLD.json   # perf gate
    python -m repro bench --obs --jsonl run.obs.jsonl
    python -m repro search --algorithm rs --workers 4  # pooled search
    python -m repro benchmark build --space small --out archive.npz
    python -m repro benchmark sweep --archive archive.npz --report sweep.json
    python -m repro search --benchmark archive.npz --algorithm rs
    python -m repro serve --registry reg --train-demo v1
    python -m repro serve --registry reg --loadgen --report slo.json
    python -m repro serve --registry reg --router --workers 4 --loadgen
    python -m repro pipeline run --state pipe --registry reg --weeks 144
    python -m repro pipeline status --state pipe --registry reg --json
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable

__all__ = ["main", "EXPERIMENTS", "SUBCOMMANDS"]


def _lazy(module: str) -> Callable[[str], object]:
    """Import the experiment module only when invoked (fast `list`)."""
    def run(preset: str) -> object:
        import importlib
        return importlib.import_module(module).main(preset)
    return run


EXPERIMENTS: dict[str, tuple[str, Callable[[str], object]]] = {
    "fig3": ("search trajectories AE/RL/RS, 128 nodes",
             _lazy("repro.experiments.fig3_trajectories")),
    "fig4": ("best AE-discovered architecture",
             _lazy("repro.experiments.fig4_best_architecture")),
    "fig5": ("post-training convergence + coefficient forecasts",
             _lazy("repro.experiments.fig5_posttraining")),
    "fig6": ("field forecast for the week of 2015-06-14",
             _lazy("repro.experiments.fig6_field_forecast")),
    "fig7": ("temporal probes in the Eastern Pacific",
             _lazy("repro.experiments.fig7_probes")),
    "fig8": ("unique high-performing architectures vs scale",
             _lazy("repro.experiments.fig8_scaling_architectures")),
    "fig9": ("10-seed variability of AE and RL",
             _lazy("repro.experiments.fig9_variability")),
    "table1": ("weekly Eastern-Pacific RMSE breakdown",
               _lazy("repro.experiments.table1_rmse")),
    "table2": ("R^2 of all forecasting methods",
               _lazy("repro.experiments.table2_baselines")),
    "table3": ("node utilization and evaluation counts",
               _lazy("repro.experiments.table3_scaling")),
}


def bench_main(argv: list[str]) -> int:
    """``repro bench`` — run the microbenchmark suite, write the perf
    trajectory JSON, optionally with observability enabled."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the core hot paths (recurrent cells, Trainer "
                    "epoch, POD basis, random-search slice) and write the "
                    "perf trajectory file (see docs/OBSERVABILITY.md).")
    parser.add_argument("--quick", action="store_true",
                        help="small workload sizes (single-core, < 2 min)")
    parser.add_argument("--reps", type=int, default=None, metavar="N",
                        help="timed repetitions per benchmark "
                             "(default: 3 quick, 5 full)")
    parser.add_argument("--out", default="BENCH_core.json", metavar="PATH",
                        help="output JSON path (default: BENCH_core.json)")
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only run benchmarks whose name contains this")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list benchmark names and exit")
    parser.add_argument("--obs", action="store_true",
                        help="enable the observability registry during the "
                             "run and print its summary table")
    parser.add_argument("--jsonl", default=None, metavar="PATH",
                        help="with --obs: export the registry as JSONL")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="largest pool size of the serial-vs-pool "
                             "throughput benchmarks; 0 skips them "
                             "(default: 4)")
    parser.add_argument("--compare", default=None, metavar="OLD.json",
                        help="after the run, print a delta table against "
                             "this baseline and exit 1 on any >20%% "
                             "regression")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.bench import default_suite, run_suite

    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    # Validate the baseline up front: a malformed or zero-mean file
    # should fail with a diagnosis *before* minutes of timing, and with
    # a typed exit code rather than a traceback after them.
    baseline = None
    if args.compare is not None:
        # The run writes --out before it compares: the same file on both
        # sides would be overwritten and then "compared" against itself.
        if Path(args.compare).resolve() == Path(args.out).resolve():
            print(f"error: --compare baseline {args.compare} is also the "
                  f"--out path; pass a different --out", file=sys.stderr)
            return 2
        from repro.bench import load_bench_file
        try:
            baseline = load_bench_file(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: --compare baseline rejected: {exc}",
                  file=sys.stderr)
            return 2
    suite = default_suite(quick=args.quick, max_workers=args.workers)
    if args.filter is not None:
        suite = [b for b in suite if args.filter in b.name]
        if not suite:
            print(f"no benchmark matches --filter {args.filter!r}")
            return 2
    if args.list_only:
        for bench in suite:
            print(bench.name)
        return 0

    reps = args.reps if args.reps is not None else (3 if args.quick else 5)
    if reps < 1:
        parser.error(f"--reps must be >= 1, got {reps}")
    if args.obs:
        obs.enable()
    print(f"running {len(suite)} benchmarks "
          f"({'quick' if args.quick else 'full'} sizes, reps={reps})")
    # 0.25 s warmup floor: measure at steady-state CPU frequency, not
    # mid-ramp (matters for the first few ms-scale cell benchmarks).
    results = run_suite(suite, reps=reps, warmup_s=0.25,
                        out_path=args.out, progress=print)
    print(f"wrote {args.out}")
    if args.obs:
        print()
        print(obs.summary())
        if args.jsonl is not None:
            obs.export_jsonl(args.jsonl)
            print(f"wrote {args.jsonl}")
    if baseline is not None:
        from repro.bench import compare_bench
        new = {name: r.as_json() for name, r in results.items()}
        comparison = compare_bench(baseline, new)
        print()
        print(f"comparison against {args.compare}:")
        print(comparison.table())
        if not comparison.ok:
            return 1
    return 0


def _multifidelity_search(args, evaluator, resume_state) -> int:
    """``repro search --algo sh|hyperband`` — budget-scheduled search."""
    from repro.nas.multifidelity import (Hyperband, SuccessiveHalving,
                                         resume_multifidelity_campaign,
                                         run_multifidelity_campaign,
                                         scheduler_from_config)

    max_epochs = int(getattr(evaluator, "epochs", 20))
    try:
        if resume_state is not None:
            # Explicit flags must agree with the checkpoint: overlay them
            # on the saved config and let the resume check refuse any
            # difference ("refusing to resume a different experiment").
            config = dict(resume_state["scheduler"])
            if args.min_epochs is not None:
                config["min_epochs"] = args.min_epochs
            if args.eta is not None:
                config["eta"] = args.eta
            if config["algorithm"] == "sh" and args.candidates is not None:
                config["n_candidates"] = args.candidates
            if config["algorithm"] == "hyperband":
                if args.brackets is not None:
                    config["brackets"] = args.brackets
                if args.multiplier is not None:
                    config["candidate_multiplier"] = args.multiplier
            scheduler = scheduler_from_config(config)
            print(f"resuming {config['algorithm']} campaign from "
                  f"{args.resume} ({resume_state['n_evaluations']} "
                  f"evaluations done)")
            report = resume_multifidelity_campaign(
                args.resume, evaluator, scheduler=scheduler,
                workers=args.workers, checkpoint=args.checkpoint,
                stop_after_evaluations=args.stop_after)
        else:
            min_epochs = 1 if args.min_epochs is None else args.min_epochs
            eta = 4 if args.eta is None else args.eta
            if args.algorithm == "sh":
                scheduler = SuccessiveHalving(
                    n_candidates=(64 if args.candidates is None
                                  else args.candidates),
                    min_epochs=min_epochs, max_epochs=max_epochs, eta=eta)
            else:
                scheduler = Hyperband(
                    min_epochs=min_epochs, max_epochs=max_epochs, eta=eta,
                    brackets=args.brackets,
                    candidate_multiplier=(1 if args.multiplier is None
                                          else args.multiplier))
            ladder = "; ".join(
                " -> ".join(f"{r.n_candidates}@{r.epochs}ep"
                            for r in bracket.rungs)
                for bracket in scheduler.brackets())
            print(f"search: {args.algorithm} (eta={eta}, "
                  f"min_epochs={min_epochs}, max_epochs={max_epochs})")
            print(f"brackets: {ladder}")
            report = run_multifidelity_campaign(
                scheduler, evaluator, seed=args.seed,
                workers=args.workers, checkpoint=args.checkpoint,
                stop_after_evaluations=args.stop_after)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint is not None:
        print(f"checkpoint written to {args.checkpoint}")
    print(f"completed:             {report['completed']}")
    print(f"evaluations:           {report['n_evaluations']}")
    print(f"epochs (incremental):  {report['epochs_incremental']}")
    print(f"epochs (fresh equiv.): {report['epochs_fresh']}")
    if report["best_reward"] is not None:
        print(f"best reward:           {report['best_reward']:.4f}")
        print(f"best architecture:     {report['best_architecture']}")
    return 0


def search_main(argv: list[str]) -> int:
    """``repro search`` — run one NAS search on the simulated cluster,
    optionally evaluating on a real process pool (``--workers``)."""
    parser = argparse.ArgumentParser(
        prog="repro search",
        description="Run an architecture search (surrogate fidelity) on "
                    "the simulated Theta partition and print the paper's "
                    "scaling metrics.")
    parser.add_argument("--algorithm",
                        choices=("ae", "rs", "rl", "ga", "sh", "hyperband"),
                        default="ae",
                        help="aging evolution, random search, distributed "
                             "PPO, genetic joint arch/hyperparameter "
                             "search, successive halving, or Hyperband "
                             "(default: ae)")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="simulated partition size (default: 16)")
    parser.add_argument("--wall", type=float, default=None, metavar="S",
                        help="simulated wall-clock budget in seconds "
                             "(default: 3600)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="evaluation processes: 0 for the serial "
                             "backend, N>=1 for a pool of N workers (0 and "
                             "every N give identical results); omit for "
                             "in-loop evaluation, the experiments' path, "
                             "which draws from the node streams and gives "
                             "different ones")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="master seed of the run (default: 0)")
    parser.add_argument("--benchmark", default=None, metavar="ARCHIVE.npz",
                        help="evaluate from a tabular NAS benchmark "
                             "archive (repro benchmark build) instead of "
                             "the live surrogate; the search space is "
                             "taken from the archive")
    parser.add_argument("--agents", type=int, default=None, metavar="N",
                        help="PPO masters for --algorithm rl (default: 2)")
    parser.add_argument("--obs", action="store_true",
                        help="enable observability and print its summary "
                             "(includes the parallel/* pool metrics)")
    parser.add_argument("--walltime", type=float, default=None, metavar="S",
                        help="simulated allocation budget for THIS "
                             "invocation; the campaign stops (checkpoint "
                             "it with --checkpoint) once the clock "
                             "advances this far, even if --wall remains")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="write a resumable campaign checkpoint "
                             "(atomically) at walltime expiry / completion")
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="S", dest="checkpoint_every",
                        help="also checkpoint every S simulated seconds "
                             "(requires --checkpoint)")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="continue a campaign from a checkpoint file; "
                             "the algorithm, partition and agents are "
                             "taken from the file, so --nodes/--wall/"
                             "--agents are refused (pass the original "
                             "--seed so the surrogate matches)")
    parser.add_argument("--min-epochs", type=int, default=None,
                        metavar="R", dest="min_epochs",
                        help="sh/hyperband: smallest training budget per "
                             "candidate (default: 1)")
    parser.add_argument("--eta", type=int, default=None, metavar="E",
                        help="sh/hyperband: budget growth / survival "
                             "factor per rung (default: 4)")
    parser.add_argument("--brackets", type=int, default=None, metavar="B",
                        help="hyperband: run only the B most exploratory "
                             "brackets (default: all)")
    parser.add_argument("--candidates", type=int, default=None,
                        metavar="N",
                        help="sh: bracket width — candidates at the first "
                             "rung (default: 64)")
    parser.add_argument("--multiplier", type=int, default=None,
                        metavar="M",
                        help="hyperband: scale every bracket's width by M "
                             "(default: 1)")
    parser.add_argument("--stop-after", type=int, default=None,
                        metavar="N", dest="stop_after",
                        help="sh/hyperband: stop after N new evaluations "
                             "(deterministic mid-rung interrupt; resume "
                             "with --resume)")
    args = parser.parse_args(argv)
    if args.nodes is not None and args.nodes < 1:
        parser.error(f"--nodes must be >= 1, got {args.nodes}")
    if args.wall is not None and args.wall <= 0:
        parser.error(f"--wall must be positive, got {args.wall}")
    if args.workers is not None and args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.walltime is not None and args.walltime <= 0:
        parser.error(f"--walltime must be positive, got {args.walltime}")
    if args.checkpoint_every is not None and args.checkpoint_every <= 0:
        parser.error(f"--checkpoint-every must be positive, got "
                     f"{args.checkpoint_every}")
    if args.checkpoint_every is not None and args.checkpoint is None:
        parser.error("--checkpoint-every requires --checkpoint")

    from repro import obs
    from repro.hpc import ThetaPartition, rl_node_allocation, \
        resume_search, run_search
    from repro.nas import (
        AgingEvolution,
        ArchitecturePerformanceModel,
        CheckpointPolicy,
        DistributedRL,
        GeneticSearch,
        JointArchitectureSpace,
        JointSurrogateEvaluator,
        RandomSearch,
        SurrogateEvaluator,
        load_checkpoint,
    )
    from repro.nas.checkpoint import CAMPAIGN_FORMAT
    from repro.nas.multifidelity import MULTIFIDELITY_FORMAT
    from repro.nas.space.ops import default_operations
    from repro.nas.space.search_space import StackedLSTMSpace

    mf_flags = any(v is not None for v in (
        args.min_epochs, args.eta, args.brackets, args.candidates,
        args.multiplier, args.stop_after))

    resume_state = None
    if args.resume is not None:
        try:
            resume_state = load_checkpoint(args.resume)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read --resume checkpoint: {exc}",
                  file=sys.stderr)
            return 2

    multifidelity = (
        resume_state.get("format") == MULTIFIDELITY_FORMAT
        if resume_state is not None
        else args.algorithm in ("sh", "hyperband"))
    genetic = (
        resume_state.get("format") == CAMPAIGN_FORMAT
        and resume_state.get("algorithm", {}).get("algorithm")
        == "GeneticSearch"
        if resume_state is not None
        else args.algorithm == "ga")
    if mf_flags and not multifidelity:
        parser.error("--min-epochs/--eta/--brackets/--candidates/"
                     "--multiplier/--stop-after require --algorithm "
                     "sh or hyperband")
    cluster_flags = [flag for flag, value in (
        ("--nodes", args.nodes), ("--wall", args.wall),
        ("--agents", args.agents)) if value is not None]
    # A multi-fidelity campaign runs no simulated cluster: --stop-after
    # bounds it and it checkpoints after every evaluation.
    executor_flags = [flag for flag, value in (
        ("--walltime", args.walltime),
        ("--checkpoint-every", args.checkpoint_every)) if value is not None]
    if executor_flags + cluster_flags and multifidelity:
        parser.error(f"{'/'.join(executor_flags + cluster_flags)} cannot "
                     "be used with an sh or hyperband campaign")
    # A resumed campaign runs on the partition and agents it was saved
    # with.
    if cluster_flags and resume_state is not None:
        parser.error(f"{'/'.join(cluster_flags)} cannot be used with "
                     f"--resume: {args.resume} fixes the partition and "
                     "agents")
    nodes = 16 if args.nodes is None else args.nodes
    wall = 3600.0 if args.wall is None else args.wall
    agents = 2 if args.agents is None else args.agents

    if args.benchmark is not None:
        from repro.nas import BenchmarkEvaluator
        try:
            evaluator = BenchmarkEvaluator(args.benchmark)
        except (OSError, ValueError) as exc:
            print(f"error: --benchmark archive rejected: {exc}",
                  file=sys.stderr)
            return 2
        space = evaluator.space
        print(f"benchmark archive: {args.benchmark} "
              f"({evaluator.archive.n_records} records, "
              f"digest {evaluator.digest[:12]})")
    else:
        space = StackedLSTMSpace(n_layers=5, input_dim=5, output_dim=5,
                                 operations=default_operations())
        if genetic and not multifidelity:
            # The GA searches architecture and training protocol jointly.
            space = JointArchitectureSpace(space)
            evaluator = JointSurrogateEvaluator(
                space, ArchitecturePerformanceModel(space.arch_space,
                                                    seed=args.seed))
        else:
            evaluator = SurrogateEvaluator(
                space, ArchitecturePerformanceModel(space, seed=args.seed))
    if args.obs:
        obs.enable()

    if multifidelity:
        code = _multifidelity_search(args, evaluator, resume_state)
        if code == 0 and args.obs:
            print()
            print(obs.summary())
        return code

    checkpoint = None
    if args.checkpoint is not None:
        checkpoint = CheckpointPolicy(args.checkpoint,
                                      every_seconds=args.checkpoint_every)

    try:
        if args.resume is not None:
            print(f"resuming campaign from {args.resume}")
            algorithm, tracker = resume_search(
                args.resume, space, evaluator, workers=args.workers,
                walltime=args.walltime, checkpoint=checkpoint)
        else:
            if args.algorithm == "ae":
                algorithm = AgingEvolution(space, rng=args.seed)
            elif args.algorithm == "rs":
                algorithm = RandomSearch(space, rng=args.seed)
            elif args.algorithm == "ga":
                algorithm = GeneticSearch(space, rng=args.seed,
                                          population_size=min(20, space.size),
                                          tournament_size=4)
            else:
                alloc = rl_node_allocation(nodes, agents)
                algorithm = DistributedRL(
                    space, rng=args.seed, n_agents=agents,
                    workers_per_agent=alloc.workers_per_agent)
            partition = ThetaPartition(n_nodes=nodes, wall_seconds=wall)
            mode = "in-loop" if args.workers is None else (
                "serial backend" if args.workers == 0
                else f"{args.workers}-worker pool")
            print(f"search: {args.algorithm} on {nodes} simulated nodes, "
                  f"{wall:g}s simulated wall, evaluation: {mode}")
            tracker = run_search(algorithm, evaluator, partition,
                                 rng=args.seed, workers=args.workers,
                                 walltime=args.walltime, checkpoint=checkpoint)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.checkpoint is not None:
        print(f"checkpoint written to {args.checkpoint}")
    print(f"evaluations completed: {tracker.n_evaluations}")
    print(f"failures:              {tracker.n_failures}")
    print(f"node utilization:      {tracker.node_utilization():.3f}")
    print(f"best reward:           {algorithm.best_reward:.4f}")
    if algorithm.best_architecture is not None:
        print(f"best architecture:     {algorithm.best_architecture}")
    if args.obs:
        print()
        print(obs.summary())
    return 0


def _benchmark_space(name: str, seed: int):
    """Named search spaces of ``repro benchmark build``."""
    from repro.nas.space.ops import Operation, default_operations
    from repro.nas.space.search_space import StackedLSTMSpace
    if name == "small":
        # 512 architectures: exhaustively archivable in < 1 s, matched to
        # the test/smoke space so campaigns are 100% table hits.
        return StackedLSTMSpace(
            3, input_dim=3, output_dim=3,
            operations=(Operation("identity"), Operation("lstm", 4),
                        Operation("lstm", 8), Operation("lstm", 12)),
            max_skip_depth=3)
    return StackedLSTMSpace(n_layers=5, input_dim=5, output_dim=5,
                            operations=default_operations())


def benchmark_main(argv: list[str]) -> int:
    """``repro benchmark`` — build, inspect and sweep tabular NAS
    benchmark archives (docs/NAS_BENCHMARK.md)."""
    parser = argparse.ArgumentParser(
        prog="repro benchmark",
        description="Tabular NAS benchmark backend: precompute an archive "
                    "of architecture evaluations, inspect it, or run "
                    "multi-seed search sweeps against it.")
    sub = parser.add_subparsers(dest="action", required=True)

    build = sub.add_parser(
        "build", help="sweep a space through the performance model and "
                      "write an archive")
    build.add_argument("--space", choices=("small", "paper"),
                       default="small",
                       help="search space: 'small' (512 archs, exhaustive) "
                            "or 'paper' (8.6M archs, requires --samples)")
    build.add_argument("--samples", type=int, default=None, metavar="N",
                       help="archive N distinct uniform samples instead of "
                            "the whole space")
    build.add_argument("--seed", type=int, default=0, metavar="S",
                       help="seeds the performance model and any sampling "
                            "(default: 0)")
    build.add_argument("--epochs", type=int, default=20, metavar="E",
                       help="training budget of the recorded evaluations "
                            "(default: 20)")
    build.add_argument("--out", default="nas-benchmark.npz", metavar="PATH",
                       help="archive path (default: nas-benchmark.npz)")

    info = sub.add_parser("info", help="print an archive's header")
    info.add_argument("archive", help="archive path")

    sweep = sub.add_parser(
        "sweep", help="repeat a search campaign across seeds against an "
                      "archive and report best-reward statistics")
    sweep.add_argument("--archive", required=True, metavar="PATH",
                       help="archive to evaluate from")
    sweep.add_argument("--algorithm", choices=("rs", "ae", "rl"),
                       default="rs",
                       help="search algorithm per campaign (default: rs)")
    sweep.add_argument("--evaluations", type=int, default=200, metavar="N",
                       help="evaluation budget per campaign (default: 200)")
    sweep.add_argument("--seeds", type=int, default=10, metavar="K",
                       help="number of campaigns (default: 10)")
    sweep.add_argument("--base-seed", type=int, default=0, metavar="S",
                       dest="base_seed",
                       help="campaign i uses seed S+i (default: 0)")
    sweep.add_argument("--report", default=None, metavar="PATH",
                       help="write the sweep report JSON here")
    sweep.add_argument("--obs", action="store_true",
                       help="enable observability and print its summary "
                            "(includes the nas/benchmark/* hit counters)")
    args = parser.parse_args(argv)

    if args.action == "build":
        from repro.nas import ArchitecturePerformanceModel, build_archive
        space = _benchmark_space(args.space, args.seed)
        model = ArchitecturePerformanceModel(space, seed=args.seed)
        n = args.samples if args.samples is not None else space.size
        print(f"building archive: {args.space} space "
              f"({space.size} architectures, recording {n})...")
        try:
            path = build_archive(space, model, args.out,
                                 n_samples=args.samples, rng=args.seed,
                                 epochs=args.epochs,
                                 metadata={"space_preset": args.space,
                                           "model_seed": args.seed})
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {path}")
        return 0

    if args.action == "info":
        from repro.nas import load_archive, read_archive_header
        try:
            load_archive(args.archive)  # checks the header vs the records
            header = read_archive_header(args.archive)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cfg = header["space"]
        print(f"archive:   {args.archive}")
        print(f"format:    {header['format']} v{header['version']}")
        print(f"records:   {header['n_records']} "
              f"({header['fidelity']} fidelity, "
              f"{header['epochs']} epochs)")
        print(f"space:     {cfg['n_layers']} layers, "
              f"{len(cfg['operations'])} ops, "
              f"skip depth {cfg['max_skip_depth']}")
        print(f"noise:     {header['noise']}")
        print(f"digest:    {header['digest']}")
        if header.get("metadata"):
            print(f"metadata:  {header['metadata']}")
        return 0

    from repro import obs
    from repro.nas import BenchmarkEvaluator, run_seed_sweep
    if args.evaluations < 1:
        parser.error(f"--evaluations must be >= 1, got {args.evaluations}")
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.obs:
        obs.enable()
    try:
        evaluator = BenchmarkEvaluator(args.archive)
    except (OSError, ValueError) as exc:
        print(f"error: --archive rejected: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {args.seeds} x {args.algorithm} campaigns, "
          f"{args.evaluations} evaluations each, from {args.archive} "
          f"({evaluator.archive.n_records} records)")
    report = run_seed_sweep(evaluator, algorithm=args.algorithm,
                            n_evaluations=args.evaluations,
                            n_seeds=args.seeds, base_seed=args.base_seed)
    stats = report["best_reward"]
    hits = sum(c["table_hits"] for c in report["campaigns"])
    misses = sum(c["surrogate_misses"] for c in report["campaigns"])
    print(f"best reward: mean {stats['mean']:.4f} "
          f"+- {stats['std']:.4f} "
          f"(min {stats['min']:.4f}, max {stats['max']:.4f})")
    if hits or misses:
        print(f"table hits:  {hits}, surrogate misses: {misses}")
    print(f"total wall:  {report['total_wall_seconds']:.3f}s")
    if args.report is not None:
        import json as _json
        with open(args.report, "w", encoding="utf-8") as fh:
            _json.dump(report, fh, indent=2)
        print(f"wrote {args.report}")
    if args.obs:
        print()
        print(obs.summary())
    return 0


def _train_demo_emulator(seed: int):
    """Tiny synthetic emulator for the serve demo / smoke paths: coarse
    grid, short archive, two epochs — trains in seconds."""
    from repro.baselines.manual_lstm import build_manual_lstm
    from repro.data import LatLonGrid, SSTDataset, WeeklyCalendar
    from repro.data.sst import SyntheticSST
    from repro.forecast import PODLSTMEmulator
    from repro.nn.training import Trainer

    dataset = SSTDataset(
        generator=SyntheticSST(grid=LatLonGrid(degrees=12.0), seed=seed),
        calendar=WeeklyCalendar(n_snapshots=140))
    snapshots = dataset.training_snapshots()
    emulator = PODLSTMEmulator(n_modes=4, window=6,
                               trainer=Trainer(epochs=2, batch_size=32))
    network = build_manual_lstm(16, 1, input_dim=4, output_dim=4, rng=seed)
    emulator.fit(snapshots, network=network, rng=seed)
    return emulator


def serve_main(argv: list[str]) -> int:
    """``repro serve`` — manage an emulator bundle registry and run the
    micro-batching forecast engine under a load test."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Inference serving: publish emulator bundles to a "
                    "model registry, promote versions, and drive the "
                    "micro-batching forecast engine with a closed-loop "
                    "load generator (see docs/SERVING.md).")
    parser.add_argument("--registry", default="serve-registry",
                        metavar="DIR",
                        help="model registry directory "
                             "(default: serve-registry)")
    parser.add_argument("--train-demo", default=None, metavar="NAME",
                        dest="train_demo",
                        help="train a tiny synthetic demo emulator, "
                             "publish it as NAME and promote it to active")
    parser.add_argument("--promote", default=None, metavar="NAME",
                        help="atomically point ACTIVE at an existing "
                             "version")
    parser.add_argument("--status", action="store_true",
                        help="list registry versions and the active "
                             "pointer")
    parser.add_argument("--loadgen", action="store_true",
                        help="serve the selected version through the "
                             "engine and run the closed-loop load "
                             "generator; prints the SLO report")
    parser.add_argument("--router", action="store_true",
                        help="serve through the sharded multi-process "
                             "router instead of one in-process engine; "
                             "with --loadgen the load runs against the "
                             "router socket, otherwise the router stays "
                             "up until Ctrl-C")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="with --router: engine worker processes "
                             "(default: 2)")
    parser.add_argument("--client-processes", action="store_true",
                        dest="client_processes",
                        help="with --router --loadgen: run each "
                             "closed-loop client as its own OS process")
    parser.add_argument("--version", default=None, metavar="NAME",
                        help="version to serve (default: the active one)")
    parser.add_argument("--clients", type=int, default=4, metavar="N",
                        help="concurrent closed-loop clients (default: 4)")
    parser.add_argument("--requests", type=int, default=50, metavar="N",
                        help="requests per client (default: 50)")
    parser.add_argument("--max-batch", type=int, default=8, metavar="N",
                        dest="max_batch",
                        help="most requests coalesced per forward pass "
                             "(default: 8)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="with --loadgen: write the SLO report JSON "
                             "here")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed of the demo training data and the "
                             "load-generator request pool (default: 0)")
    parser.add_argument("--obs", action="store_true",
                        help="enable observability and print its summary "
                             "(includes the serve/* metrics)")
    args = parser.parse_args(argv)
    if args.clients < 1:
        parser.error(f"--clients must be >= 1, got {args.clients}")
    if args.requests < 1:
        parser.error(f"--requests must be >= 1, got {args.requests}")
    if args.max_batch < 1:
        parser.error(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.client_processes and not args.router:
        parser.error("--client-processes requires --router")

    import numpy as np

    from repro import obs
    from repro.serve import (EngineConfig, ForecastEngine, ForecastRouter,
                             ModelRegistry, run_loadgen, run_router_loadgen)

    if args.obs:
        obs.enable()
    registry = ModelRegistry(args.registry)

    acted = False
    if args.train_demo is not None:
        print(f"training demo emulator (seed {args.seed})...")
        emulator = _train_demo_emulator(args.seed)
        path = registry.publish(args.train_demo, emulator,
                                metadata={"source": "serve --train-demo",
                                          "seed": args.seed},
                                activate=True)
        print(f"published and promoted {args.train_demo!r} -> {path}")
        acted = True
    if args.promote is not None:
        registry.promote(args.promote)
        print(f"promoted {args.promote!r} to active")
        acted = True

    if args.status or not (acted or args.loadgen or args.router):
        print(registry.report())
        acted = True

    if args.router or args.loadgen:
        name, emulator = registry.load(args.version)
        if args.router and args.version is not None \
                and name != registry.active():
            parser.error("--router serves the ACTIVE version; promote "
                         f"{args.version!r} first (--promote)")
        window = emulator.pipeline.window
        n_modes = emulator.pipeline.n_modes
        config = EngineConfig(max_batch=args.max_batch)
        # Request pool in scaled coefficient space; smaller than the run
        # so repeats exercise the response cache.
        pool_size = max(1, min(args.clients * args.requests, 128))
        rng = np.random.default_rng(args.seed)
        windows = rng.uniform(-1.0, 1.0, size=(pool_size, window, n_modes))
        report = None
        if args.router:
            with ForecastRouter(args.registry, n_workers=args.workers,
                                worker_config=config) as router:
                host, port = router.address
                print(f"router serving version {name!r} on {host}:{port} "
                      f"with {args.workers} workers "
                      f"(max_batch={args.max_batch})")
                if args.loadgen:
                    mode = "process" if args.client_processes else "thread"
                    print(f"load: {args.clients} {mode} clients x "
                          f"{args.requests} requests")
                    report = run_router_loadgen(
                        (host, port), windows, clients=args.clients,
                        requests_per_client=args.requests,
                        processes=args.client_processes)
                else:
                    print("serving until Ctrl-C...")
                    try:
                        while True:
                            time.sleep(1.0)
                    except KeyboardInterrupt:
                        print("shutting down")
        else:
            print(f"serving version {name!r} (window={window}, "
                  f"n_modes={n_modes}), load: {args.clients} clients x "
                  f"{args.requests} requests, max_batch={args.max_batch}")
            with ForecastEngine(emulator, version=name,
                                config=config) as engine:
                report = run_loadgen(engine, windows, clients=args.clients,
                                     requests_per_client=args.requests)
        if report is not None:
            print(report.table())
            if args.report is not None:
                report.dump(args.report)
                print(f"wrote {args.report}")

    if args.obs:
        print()
        print(obs.summary())
    return 0


#: ``repro pipeline run``'s feed flags: flag -> (FeedConfig field, type,
#: metavar, help). The defaults live in the config classes alone.
_FEED_FLAGS = {
    "--degrees": ("degrees", float, "D", "grid resolution in degrees"),
    "--feed-seed": ("seed", int, "S", "snapshot stream seed"),
    "--batch-weeks": ("batch_weeks", int, "W",
                      "snapshots per arriving batch"),
    "--weeks": ("n_weeks", int, "N", "stream length; omit for an unbounded "
                "feed (then --max-batches is required)"),
    "--scenario": ("scenario", str, "NAME", "climate drift scenario: none, "
                   "enso_shift or trend_acceleration"),
    "--onset": ("scenario_onset_week", int, "WEEK", "drift onset week"),
    "--ramp": ("scenario_ramp_weeks", int, "WEEKS", "drift ramp-in length"),
    "--strength": ("scenario_strength", float, "X",
                   "drift strength multiplier"),
}
#: ``repro pipeline run``'s retraining-protocol flags, PipelineConfig's
#: fields in the same layout.
_PROTOCOL_FLAGS = {
    "--n-modes": ("n_modes", int, "N", "emulator POD rank"),
    "--pod-rank": ("pod_rank", int, "R", "incremental factorization rank"),
    "--window": ("window", int, "K", "forecast window length"),
    "--retrain-every": ("retrain_every", int, "B",
                        "batches between retrains"),
    "--train-weeks": ("train_weeks", int, "W", "trailing training window"),
    "--val-weeks": ("val_weeks", int, "W", "held-out validation window"),
    "--epochs": ("epochs", int, "N", "training epochs per retrain"),
    "--batch-size": ("batch_size", int, "N", "training batch size"),
    "--learning-rate": ("learning_rate", float, "LR", "Adam learning rate"),
    "--units": ("lstm_units", int, "N", "LSTM width of the retrained stack"),
    "--seed": ("seed", int, "S", "retrain RNG stream root"),
    "--forgetting": ("forgetting", float, "F",
                     "incremental-POD forgetting factor in (0, 1]"),
}


def pipeline_main(argv: list[str]) -> int:
    """``repro pipeline`` — run or inspect the continuous-learning
    pipeline (docs/PIPELINE.md)."""
    parser = argparse.ArgumentParser(
        prog="repro pipeline",
        description="Continuous learning: ingest weekly SST batches into "
                    "an incremental POD basis, retrain the emulator on a "
                    "rolling window and auto-promote improvements into a "
                    "model registry (see docs/PIPELINE.md).")
    sub = parser.add_subparsers(dest="action", required=True)
    from repro.pipeline import FeedConfig, PipelineConfig

    run = sub.add_parser(
        "run", help="ingest batches (resumes from --state if it exists)")
    run.add_argument("--state", required=True, metavar="PATH",
                     help="durable pipeline state artifact (.npz); if it "
                          "already exists the pipeline RESUMES from it: "
                          "feed/protocol flags left out are read from it, "
                          "and one given with a different value than it "
                          "records is refused")
    run.add_argument("--registry", required=True, metavar="DIR",
                     help="model registry directory receiving promotions")
    run.add_argument("--max-batches", type=int, default=None, metavar="N",
                     dest="max_batches",
                     help="stop after N batches (default: drain a bounded "
                          "feed; required for an unbounded one)")
    run.add_argument("--obs", action="store_true",
                     help="enable observability and print its summary "
                          "(includes the pipeline/* metrics)")
    # Every feed/protocol flag defaults to None ("not given"), so a
    # resume overlays only the flags actually given on the saved configs.
    for name, title, config, flags in (
            ("feed", "feed", FeedConfig, _FEED_FLAGS),
            ("protocol", "retraining protocol", PipelineConfig,
             _PROTOCOL_FLAGS)):
        group = run.add_argument_group(title)
        for flag, (field, kind, metavar, text) in flags.items():
            default = getattr(config, field)
            if default is not None:
                text += f" (default: {default})"
            group.add_argument(flag, type=kind, metavar=metavar, help=text,
                               dest=f"{name}.{field}")

    status = sub.add_parser(
        "status", help="print stream position, counters, the registry "
                       "listing and the promotion decision history")
    status.add_argument("--state", required=True, metavar="PATH",
                        help="pipeline state artifact to inspect")
    status.add_argument("--registry", required=True, metavar="DIR",
                        help="model registry the pipeline publishes to")
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable status document "
                             "instead of the human-readable report")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.durable import npz_path
    from repro.pipeline import ContinuousPipeline, load_state
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)

    if args.action == "status":
        try:
            pipeline = ContinuousPipeline.resume(args.state, registry)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.as_json:
            import json as _json
            print(_json.dumps(pipeline.status(), indent=2))
        else:
            print(pipeline.report())
        return 0

    if getattr(args, "obs", False):
        obs.enable()
    def given(name: str) -> dict:
        return {dest.split(".")[1]: value
                for dest, value in vars(args).items()
                if dest.startswith(f"{name}.") and value is not None}

    feed, protocol = given("feed"), given("protocol")
    try:
        resuming = npz_path(args.state).exists()
        if resuming:
            # The flags given are laid over the saved configs; the
            # pipeline's resume check refuses any that differ.
            saved = load_state(args.state)
            feed_config = replace(FeedConfig.from_json(saved.feed_config),
                                  **feed)
            config = replace(
                PipelineConfig.from_json(saved.pipeline_config), **protocol)
        else:
            feed_config = FeedConfig(**feed)
            config = PipelineConfig(**protocol)
        pipeline = ContinuousPipeline(args.state, registry, feed_config,
                                      config)
        if resuming:
            print(f"resuming pipeline from {args.state} "
                  f"(batch {pipeline.state.next_batch})")
        else:
            print(f"starting fresh pipeline at {args.state}")
        decisions = pipeline.run(max_batches=args.max_batches)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state = pipeline.state
    print(f"ingested through batch {state.next_batch} "
          f"({state.snapshots_ingested} weeks, basis version "
          f"{state.pod.basis_version})")
    for d in decisions:
        outcome = "promoted" if d.promoted else "rejected"
        print(f"  retrain {d.retrain_index}: {d.version} "
              f"rmse {d.candidate_rmse:.6f} -> {outcome} ({d.reason})")
    active = registry.active()
    print(f"active version: {active if active is not None else '(none)'}")
    if getattr(args, "obs", False):
        print()
        print(obs.summary())
    return 0


#: Non-experiment subcommands: name -> entry point taking its own argv.
SUBCOMMANDS: dict[str, Callable[[list[str]], int]] = {
    "bench": bench_main,
    "search": search_main,
    "benchmark": benchmark_main,
    "serve": serve_main,
    "pipeline": pipeline_main,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the SC 2020 POD-LSTM "
                    "NAS paper on the synthetic archive.",
        epilog="Additional subcommands: 'repro bench' runs the core "
               "microbenchmark suite and writes BENCH_core.json; "
               "'repro search' runs one NAS search, optionally on a "
               "process pool via --workers; 'repro benchmark' builds and "
               "sweeps tabular NAS benchmark archives; 'repro serve' "
               "publishes emulator bundles and load-tests the "
               "micro-batching forecast engine; 'repro pipeline' runs "
               "the continuous-learning ingest/retrain/promote loop "
               "(see their --help).")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "list"]
                        + sorted(SUBCOMMANDS),
                        help="experiment id, 'all', 'list', or a "
                             "subcommand: " + ", ".join(
                                 repr(s) for s in sorted(SUBCOMMANDS)))
    parser.add_argument("--preset", choices=("quick", "full"),
                        default="quick",
                        help="training/search budgets (default: quick)")
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (description, _) in sorted(EXPERIMENTS.items()):
            print(f"{name:8s} {description}")
        return 0

    targets = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in targets:
        _, runner = EXPERIMENTS[name]
        runner(args.preset)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
