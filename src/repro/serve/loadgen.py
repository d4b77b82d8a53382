"""Closed-loop load generator and SLO report for the forecast engine and
the sharded router.

One closed-loop client serves every load mode: it connects, waits at
the start barrier, then walks the request pool round-robin from its own
offset, issuing its next request the moment the previous response lands
(the standard throughput-at-offered-concurrency harness) and timing
each one. :func:`run_loadgen` runs ``clients`` of them as threads
against a running :class:`~repro.serve.engine.ForecastEngine`;
:func:`run_router_loadgen` runs them as threads or as OS processes
against a :class:`~repro.serve.router.ForecastRouter` socket, each on
its own connection. One summary aggregates the per-request wall-clock
latencies into an :class:`SLOReport`: throughput plus p50/p95/p99 tail
latency, the numbers a serving SLO is written against.

A request that is shed, times out or fails — or is never sent because
its client could not connect — counts as an error, not a retry. A run
that served no request reports zero throughput and zero latencies, and
its report still validates.

Percentiles use the nearest-rank definition on the sorted sample — no
interpolation, so a report is exactly reproducible from its latency
sample. Results feed :mod:`repro.obs` gauges (``serve/loadgen/*`` for
the engine, ``serve/router_loadgen/*`` for the router) and the
``serve_*`` entries of BENCH_core.json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import multiprocessing as mp
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.serve.engine import ForecastEngine
from repro.serve.router import RouterClient

__all__ = ["SLOReport", "run_loadgen", "run_router_loadgen",
           "nearest_rank_percentile", "validate_slo_report",
           "SLO_REPORT_FORMAT", "SLO_REPORT_VERSION"]

#: Format tag / schema version of an exported SLO report.
SLO_REPORT_FORMAT = "repro-slo-report"
SLO_REPORT_VERSION = 1

#: Percentiles every report carries.
_PERCENTILES = (50.0, 95.0, 99.0)


def nearest_rank_percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted non-empty sample."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class SLOReport:
    """Aggregated outcome of one load-generation run."""

    clients: int
    n_requests: int
    n_errors: int
    duration_s: float
    throughput_rps: float
    latency_ms: dict = field(default_factory=dict)  # mean/p50/p95/p99/max
    engine: dict = field(default_factory=dict)  # engine or router stats()

    def as_json(self) -> dict:
        """JSON-compatible export (schema: docs/SERVING.md)."""
        return {"format": SLO_REPORT_FORMAT, "version": SLO_REPORT_VERSION,
                "clients": self.clients, "n_requests": self.n_requests,
                "n_errors": self.n_errors, "duration_s": self.duration_s,
                "throughput_rps": self.throughput_rps,
                "latency_ms": dict(self.latency_ms),
                "engine": dict(self.engine)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def table(self) -> str:
        """Human-readable summary block."""
        lat = self.latency_ms
        lines = [
            "SLO report",
            f"  clients          {self.clients}",
            f"  requests         {self.n_requests} "
            f"({self.n_errors} errors)",
            f"  duration         {self.duration_s * 1e3:10.2f} ms",
            f"  throughput       {self.throughput_rps:10.1f} req/s",
            f"  latency mean     {lat.get('mean', float('nan')):10.3f} ms",
        ]
        for q in _PERCENTILES:
            key = f"p{q:g}"
            lines.append(f"  latency {key:8s} "
                         f"{lat.get(key, float('nan')):10.3f} ms")
        lines.append(f"  latency max      "
                     f"{lat.get('max', float('nan')):10.3f} ms")
        if self.engine:
            # A router report carries one engine entry per shard.
            engines = [shard["engine"]
                       for shard in self.engine.get("shards", ())
                       if shard.get("engine")] or [self.engine]
            batches = sum(e.get("n_batches", 0) for e in engines)
            batched = sum(e.get("mean_batch_size", 0.0) * e.get("n_batches", 0)
                          for e in engines)
            hits = sum(e.get("cache", {}).get("hits", 0) for e in engines)
            misses = sum(e.get("cache", {}).get("misses", 0)
                         for e in engines)
            lines.append(f"  mean batch size  "
                         f"{batched / batches if batches else 0.0:10.2f}")
            lines.append(f"  cache hits/miss  {hits}/{misses}")
        return "\n".join(lines)


def validate_slo_report(data) -> None:
    """Schema-check an exported SLO report; raises ValueError on the
    first violation (used by the CI serve-smoke job)."""
    if not isinstance(data, dict):
        raise ValueError("SLO report must be a dict")
    if data.get("format") != SLO_REPORT_FORMAT:
        raise ValueError(f"not an SLO report (format {data.get('format')!r})")
    if data.get("version") != SLO_REPORT_VERSION:
        raise ValueError(f"unsupported SLO report version "
                         f"{data.get('version')!r}")
    for key in ("clients", "n_requests", "n_errors", "duration_s",
                "throughput_rps", "latency_ms", "engine"):
        if key not in data:
            raise ValueError(f"SLO report missing key {key!r}")
    lat = data["latency_ms"]
    for key in ("mean", "p50", "p95", "p99", "max"):
        value = lat.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or value < 0:
            raise ValueError(f"latency_ms.{key} must be finite and "
                             f"non-negative, got {value!r}")
    if not lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]:
        raise ValueError("latency percentiles must be monotone: "
                         f"p50={lat['p50']} p95={lat['p95']} "
                         f"p99={lat['p99']} max={lat['max']}")
    served = data["n_requests"] - data["n_errors"]
    if served > 0 and data["duration_s"] > 0 \
            and data["throughput_rps"] <= 0:
        raise ValueError("throughput_rps must be positive for a run that "
                         "served requests")


def _check_load(windows, clients: int,
                requests_per_client: int) -> np.ndarray:
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    if requests_per_client < 1:
        raise ValueError(f"requests_per_client must be >= 1, "
                         f"got {requests_per_client}")
    pool = np.ascontiguousarray(windows, dtype=np.float64)
    if pool.ndim != 3 or pool.shape[0] == 0:
        raise ValueError(f"windows must be a non-empty "
                         f"(n, window, n_modes) array, got {pool.shape}")
    return pool


def _client(connect, pool: np.ndarray, index: int,
            requests_per_client: int, timeout_s: float | None, barrier,
            results) -> None:
    """One closed-loop client, as a thread or a process.

    ``connect()`` returns a context manager whose value has
    ``forecast(window, timeout=)``. The client reaches the barrier even
    if it cannot connect, and always puts its latency sample (ms) on
    ``results``: a request missing from it counts as an error.
    """
    latencies: list[float] = []
    session = None
    try:
        try:
            session = connect()
        except OSError:
            pass  # every request of this client counts as an error
        finally:
            barrier.wait()  # the run starts with or without this client
        if session is not None:
            with session as client:
                for i in range(requests_per_client):
                    window = pool[(index * requests_per_client + i)
                                  % len(pool)]
                    t0 = time.perf_counter()
                    try:
                        client.forecast(window, timeout=timeout_s)
                    except Exception:
                        continue
                    latencies.append((time.perf_counter() - t0) * 1e3)
    finally:
        results.put(latencies)


def _run_clients(connect, pool: np.ndarray, *, clients: int,
                 requests_per_client: int, timeout_s: float | None,
                 processes: bool) -> tuple[list[float], float]:
    """Run ``clients`` closed-loop clients from one start barrier; the
    pooled latency sample (ms) and the run's duration (s)."""
    if processes:
        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        barrier, results = ctx.Barrier(clients + 1), ctx.Queue()
        runner = ctx.Process
    else:
        barrier, results = threading.Barrier(clients + 1), queue.Queue()
        runner = threading.Thread
    runners = [runner(target=_client,
                      args=(connect, pool, i, requests_per_client,
                            timeout_s, barrier, results),
                      daemon=True, name=f"repro-loadgen-{i}")
               for i in range(clients)]
    for each in runners:
        each.start()
    barrier.wait()
    t_start = time.perf_counter()
    latencies = [lat for _ in runners for lat in results.get()]
    duration_s = time.perf_counter() - t_start
    for each in runners:
        each.join()
    return latencies, duration_s


def _summarize(latencies_ms: list[float], duration_s: float, *,
               clients: int, requests_per_client: int, stats: dict,
               gauges: str) -> SLOReport:
    """Aggregate one run's latency sample into a validated report."""
    flat = sorted(latencies_ms)
    n_requests = clients * requests_per_client
    throughput = len(flat) / duration_s if duration_s > 0 else 0.0
    if flat:
        latency = {"mean": float(sum(flat) / len(flat)),
                   "max": float(flat[-1])}
        for q in _PERCENTILES:
            latency[f"p{q:g}"] = nearest_rank_percentile(flat, q)
    else:
        latency = {"mean": 0.0, "max": 0.0}
        latency.update({f"p{q:g}": 0.0 for q in _PERCENTILES})
    obs.gauge_set(f"{gauges}/throughput_rps", throughput)
    obs.gauge_set(f"{gauges}/p95_ms", latency["p95"])
    report = SLOReport(clients=clients, n_requests=n_requests,
                       n_errors=n_requests - len(flat),
                       duration_s=duration_s, throughput_rps=throughput,
                       latency_ms=latency, engine=stats)
    validate_slo_report(report.as_json())
    return report


def run_loadgen(engine: ForecastEngine, windows, *, clients: int = 4,
                requests_per_client: int = 50,
                timeout_s: float | None = None) -> SLOReport:
    """Drive a running engine at closed-loop concurrency ``clients``.

    ``windows`` is an ``(n, window, n_modes)`` pool of request windows;
    each client walks the pool round-robin from its own offset, so with
    ``n >= clients * requests_per_client`` every request is distinct
    (cache-cold), while a smaller pool deliberately re-requests windows
    and exercises the cache. Shed and timed-out requests are counted as
    errors, not retried (the report shows the shed rate the
    configuration sustains).
    """
    pool = _check_load(windows, clients, requests_per_client)
    if not engine.running:
        raise RuntimeError("engine is not running")
    latencies, duration_s = _run_clients(
        functools.partial(contextlib.nullcontext, engine), pool,
        clients=clients, requests_per_client=requests_per_client,
        timeout_s=timeout_s, processes=False)
    return _summarize(latencies, duration_s, clients=clients,
                      requests_per_client=requests_per_client,
                      stats=engine.stats(), gauges="serve/loadgen")


def run_router_loadgen(address, windows, *, clients: int = 4,
                       requests_per_client: int = 50,
                       timeout_s: float | None = None,
                       processes: bool = False) -> SLOReport:
    """Closed-loop load against a :class:`~repro.serve.router.ForecastRouter`
    socket at ``address``.

    Same client as :func:`run_loadgen`, but each client owns one TCP
    connection, so the router's accept/framing/dispatch path is on the
    measured critical path. With ``processes=True`` every client is a
    separate OS process (GIL-free send/receive loops); otherwise clients
    are threads in this process. A client that cannot connect counts
    each of its requests as an error. The report's ``engine`` field
    carries the router's post-run
    :meth:`~repro.serve.router.ForecastRouter.stats` snapshot (per-shard
    queue depths and engine stats), or ``{}`` if the router cannot be
    reached.
    """
    pool = _check_load(windows, clients, requests_per_client)
    connect = functools.partial(RouterClient, tuple(address),
                                timeout_s=timeout_s or 30.0)
    latencies, duration_s = _run_clients(
        connect, pool, clients=clients,
        requests_per_client=requests_per_client, timeout_s=timeout_s,
        processes=processes)
    try:
        with connect() as probe:
            stats = probe.stats()
    except Exception:
        stats = {}
    return _summarize(latencies, duration_s, clients=clients,
                      requests_per_client=requests_per_client,
                      stats=stats, gauges="serve/router_loadgen")
