"""Microbenchmark harness core: timing, aggregation, BENCH_core.json.

A :class:`Benchmark` is a named context-manager factory: entering
``make()`` performs all setup (allocations, network construction, data
synthesis) and yields the zero-argument thunk that is actually timed, so
setup cost never leaks into the measurement; leaving it tears down what
setup started (process pools, routers, engine threads, temp
directories). :func:`run_suite` times every benchmark ``reps`` times
after one untimed warmup call, then writes the perf trajectory file::

    {"<name>": {"mean_s": float, "std_s": float, "reps": int,
                "metadata": {...}}, ...}

``BENCH_core.json`` seeds the repo's perf trajectory: future PRs rerun
the suite and compare means against the committed baseline, so "make the
hot path faster" claims are checkable (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager

__all__ = ["Benchmark", "BenchResult", "run_benchmark", "run_suite",
           "validate_bench_data"]


@dataclass(frozen=True)
class Benchmark:
    """One named microbenchmark.

    ``make()`` returns a context manager: entering it runs untimed setup
    and yields the thunk to time, leaving it releases everything setup
    started (typically a :func:`contextlib.contextmanager` generator).
    ``metadata`` records the workload shape (sizes, reps semantics) into
    the JSON.
    """

    name: str
    make: Callable[[], ContextManager[Callable[[], object]]]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BenchResult:
    """Aggregated timings of one benchmark."""

    name: str
    mean_s: float
    std_s: float
    reps: int
    metadata: dict

    def as_json(self) -> dict:
        return {"mean_s": self.mean_s, "std_s": self.std_s,
                "reps": self.reps, "metadata": self.metadata}


def run_benchmark(bench: Benchmark, *, reps: int = 5, warmup_s: float = 0.0,
                  clock=time.perf_counter) -> BenchResult:
    """Time one benchmark: setup once, warmup, ``reps`` timed, teardown.

    The warmup is always at least one call (first-call allocations and
    caches don't count); ``warmup_s > 0`` keeps calling until that much
    wall time has elapsed, so machines whose CPU frequency ramps up
    under sustained load (laptop/CI governors) are measured at steady
    state rather than mid-ramp. The CLI (`repro bench`) uses a 0.25 s
    floor; the default here stays a single call so fake-clock tests and
    embedders keep the historical behaviour.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if warmup_s < 0:
        raise ValueError(f"warmup_s must be >= 0, got {warmup_s}")
    times = []
    with bench.make() as fn:
        t_warm = clock()
        fn()
        while clock() - t_warm < warmup_s:
            fn()
        for _ in range(reps):
            t0 = clock()
            fn()
            times.append(clock() - t0)
    mean = sum(times) / reps
    var = sum((t - mean) ** 2 for t in times) / (reps - 1) if reps > 1 else 0.0
    return BenchResult(name=bench.name, mean_s=mean, std_s=math.sqrt(var),
                       reps=reps, metadata=dict(bench.metadata))


def run_suite(benchmarks: list[Benchmark], *, reps: int = 5,
              warmup_s: float = 0.0, out_path=None,
              progress: Callable[[str], None] | None = None
              ) -> dict[str, BenchResult]:
    """Run every benchmark and (optionally) write the JSON trajectory."""
    names = [b.name for b in benchmarks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate benchmark names in suite: {names}")
    results: dict[str, BenchResult] = {}
    for bench in benchmarks:
        result = run_benchmark(bench, reps=reps, warmup_s=warmup_s)
        results[bench.name] = result
        if progress is not None:
            progress(f"{bench.name:40s} {result.mean_s * 1e3:10.3f} ms "
                     f"± {result.std_s * 1e3:8.3f} ms  (n={result.reps})")
    if out_path is not None:
        data = {name: r.as_json() for name, r in results.items()}
        validate_bench_data(data)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results


def validate_bench_data(data) -> None:
    """Schema-check a BENCH_core.json payload; raises ValueError on the
    first violation (used both by the writer and by the tier-1 test)."""
    if not isinstance(data, dict) or not data:
        raise ValueError("bench data must be a non-empty dict")
    for name, entry in data.items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"benchmark name must be a non-empty string, "
                             f"got {name!r}")
        if not isinstance(entry, dict):
            raise ValueError(f"{name}: entry must be a dict, got "
                             f"{type(entry).__name__}")
        missing = {"mean_s", "std_s", "reps", "metadata"} - set(entry)
        if missing:
            raise ValueError(f"{name}: missing keys {sorted(missing)}")
        mean_s, std_s, reps = entry["mean_s"], entry["std_s"], entry["reps"]
        if not isinstance(mean_s, (int, float)) or not mean_s > 0 \
                or not math.isfinite(mean_s):
            raise ValueError(f"{name}: mean_s must be finite and positive, "
                             f"got {mean_s!r}")
        if not isinstance(std_s, (int, float)) or std_s < 0 \
                or not math.isfinite(std_s):
            raise ValueError(f"{name}: std_s must be finite and "
                             f"non-negative, got {std_s!r}")
        if not isinstance(reps, int) or isinstance(reps, bool) or reps < 1:
            raise ValueError(f"{name}: reps must be a positive int, "
                             f"got {reps!r}")
        if not isinstance(entry["metadata"], dict):
            raise ValueError(f"{name}: metadata must be a dict")
