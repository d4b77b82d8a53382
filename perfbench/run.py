#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload emulate --seed 0 --seconds 15 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is their
median), measures units of work for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` sets up once under tracing, runs a
traced unit between two untraced ones, reports the per-layer metrics
(zero for a layer the workload does not use) and writes the spans to
``.perfbench_out/``. Either way the outputs are checked. The report lines
come first; the last line of standard output is the result object, and a
failed check makes the exit code 1. ``perfbench/spec.json`` describes the
workloads and what each metric should move.
"""

from __future__ import annotations

import os
import sys
import time

# Held fixed for every run: the BLAS thread count changes the last digits
# of trained weights, so digests and references compare like with like.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import selftest  # noqa: E402
from harness import Tracer, environment, median, now, peak_rss_mb  # noqa: E402

#: Set-ups per untraced run: at least SETUPS, more while they took less
#: than SETUP_SECONDS in all, at most MAX_SETUPS; ``setup_s`` is their
#: median.
SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 3.0, 9


def _workloads() -> dict:
    from bench_emulate import Emulate
    from bench_pipeline import Pipeline
    from bench_search import Search
    from bench_serve import Serve
    return {w.name: w for w in (Emulate, Search, Serve, Pipeline)}


def _closed_loop(workload, seconds: float) -> list[dict]:
    """Units back to back until the next one would overrun ``seconds``."""
    units = []
    deadline = now() + seconds
    while True:
        start = now()
        units.append(workload.unit())
        took = now() - start
        if len(units) >= workload.min_units and now() + took > deadline:
            return units


def _untraced(workload, seconds: float):
    setup_times = []
    while len(setup_times) < SETUPS or (sum(setup_times) < SETUP_SECONDS
                                        and len(setup_times) < MAX_SETUPS):
        if setup_times:
            workload.teardown()
        start = now()
        workload.setup()
        setup_times.append(now() - start)
    print(f"set-ups (s): {' '.join(f'{t:.4f}' for t in setup_times)}; "
          f"process start to first timed operation: "
          f"{now() - PROCESS_START:.4f}")
    if hasattr(workload, "measure"):
        units = workload.measure(seconds)
    else:
        units = _closed_loop(workload, seconds)
    rss = peak_rss_mb()
    named, generic = workload.summarize(units)
    metrics = {"setup_s": median(setup_times), "peak_rss_mb": rss,
               **generic}
    return metrics, units, named


def _traced(workload, spans_path: Path, env: dict):
    from layers import instrument_data

    tracer = Tracer()
    # Only the data layer during set-up: set-up forks pool and router
    # processes, which must not inherit patches whose spans never return.
    instrument_data(tracer)
    try:
        with tracer.span("setup"):
            workload.setup()
    finally:
        tracer.unpatch()
    setup_agg = tracer.aggregate()
    tracer.counts.clear()
    # Untraced units on both sides of the traced one, so warming up and
    # drift do not count as tracing overhead.
    before = workload.unit()
    first = len(tracer.spans)
    traced = workload.unit(tracer)
    agg = tracer.aggregate(first)
    after = workload.unit()
    metrics = workload.layer_metrics(tracer, agg, traced)
    metrics["data.snapshots_s"] += setup_agg.get(
        "data.snapshots", {}).get("self_s", 0.0)
    root = agg.get(f"{workload.name}.unit")
    if root is not None:
        metrics.setdefault("trace.uncovered_ratio",
                           root["self_s"] / root["total_s"])
    metrics["trace.overhead_ratio"] = (
        workload.overhead([before, after], traced)
        if hasattr(workload, "overhead")
        else 2 * traced["wall_s"] / (before["wall_s"] + after["wall_s"]))
    print("self time by span in the traced unit (s, calls):")
    for name, entry in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:26s} {entry['self_s']:10.4f} {entry['calls']:8d}")
    tracer.dump(spans_path, {"workload": workload.name, "env": env})
    return metrics, [before, traced, after], {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = selftest.check(ROOT)
    bench = spec["benchmark"]
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program at {ROOT / 'src' / 'repro'}; "
                 "run from a checkout of the repository")
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=out_dir))
    workload = workloads[args.workload](args.seed, workdir)
    try:
        if args.trace:
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            workload.seconds = args.seconds / 3
            metrics, units, named = _traced(workload, spans, env)
            declared = bench["per_layer"]
        else:
            metrics, units, named = _untraced(workload, args.seconds)
            declared = bench["end_to_end"]
        checks = workload.checks(units)
        attempted, failed = workload.counts(units)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in named.items():
        print(f"metric {name:28s} {value:16.6f} {unit}")
    names = {m["name"] for m in declared}
    missing = set() if args.trace else names - set(metrics)
    if set(metrics) - names or missing:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: "
                         f"{sorted(set(metrics) - names)}; end-to-end "
                         f"metrics not measured: {sorted(missing)}")
    result = {}
    for m in declared:  # a layer this workload does not use reads 0
        value = float(metrics.get(m["name"], 0.0))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']:28s} {value:16.6f} {m['unit']}")
    for name, ok, detail in checks:
        print(f"check {name:32s} {'ok' if ok else 'FAILED'}  {detail}")
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
