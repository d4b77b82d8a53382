"""``serve``: the serving path, open loop.

A ``ForecastRouter`` with 2 engine workers at the default ``WorkerConfig``
serves the paper-architecture emulator from its own process; this process
is the load generator: Poisson arrivals over 2 ``RouterClient``
connections. A unit has three phases:

1. a low rate, during which a second version is published and promoted
   (a write beside reads);
2. a read-only high rate;
3. a rate ladder that finds the knee: the highest offered rate whose
   median latency stays under ``LIMIT_MS`` with no growing backlog,
   interpolated between the last rung that meets the limit and the first
   that does not.

Before the high rate, and in set-up, every pool window is requested once
so that the shard caches are in their steady state when timing starts.

Each request is timed from its due time, so a stall delays the requests
queued behind it; a failed request counts as missing every limit.
Windows come from a pool whose hot subset fits the shards' LRU caches and
whose cold tail overflows them. Forward-only batch-of-one inference,
framing, hashing, cache and process hops: no training.
"""

from __future__ import annotations

import gc
import io
import multiprocessing as mp
import socket
import threading
import time
from pathlib import Path

import numpy as np

from harness import Tracer, cpu_seconds, median, now, percentile, program_pids
from layers import common_metrics

WORKERS = 2
CONNECTIONS = 2
#: Window pool: the HOT windows fit the 2 x 256-entry shard caches, the
#: cold tail (every other test window but the REFERENCE_CALLS unseen
#: ones) overflows them three times over. HOT_SHARE of the requests draw
#: from the hot subset; well under half of the requests then hit, so the
#: median sits inside the slower, cache-missing mode, not between modes.
HOT, HOT_SHARE = 128, 0.1
LO_RPS, HI_RPS = 100.0, 200.0
#: Ladder rungs, 300 to 1,214 requests/s in steps of 15 %.
LADDER = tuple(round(300.0 * 1.15 ** i) for i in range(11))
#: Shares of a unit's seconds: low rate, high rate, one ladder rung.
LO_SHARE, HI_SHARE, RUNG_SHARE = 0.2, 0.4, 0.04
#: A rung meets the limit when its median latency (from the due time)
#: and the wait of its last tenth of requests for a free connection are
#: both within LIMIT_MS. The median, not a tail: a rung holds a few
#: hundred requests, too few for a steady p99.
LIMIT_MS = 5.0
#: A rate whose generator alone sent late by more than this (p99 of send
#: lag) is invalid: its latencies would measure the generator.
LAG_LIMIT_MS = 10.0
#: In-process reference calls per layer in the traced unit.
REFERENCE_CALLS = 200


# ----------------------------------------------------------------------
# The router's own process
# ----------------------------------------------------------------------
def _host_main(registry, emulators, conn) -> None:
    """Own a ForecastRouter; obey (command, argument) messages.

    Publishing happens here too, so the load generator's process never
    holds the interpreter lock for a bundle write."""
    from repro.serve.router import ForecastRouter

    router = ForecastRouter(registry.root, n_workers=WORKERS).start()
    conn.send(router.address)
    try:
        while True:
            command, argument = conn.recv()
            if command == "stats":
                conn.send(router.stats())
            elif command == "promote":
                name, index = argument
                before = router.stats()
                start = now()
                registry.publish(name, emulators[index])
                published = now()
                router.promote(name)
                conn.send((before, published - start, now() - published))
            else:
                break
    finally:
        _close_router(router)
        conn.send("closed")


def _close_router(router) -> None:
    """``ForecastRouter.close`` leaves its accept thread blocked in
    ``accept()``; one connection once closing has begun wakes it."""
    address = router.address
    closer = threading.Thread(target=router.close)
    closer.start()
    while router.running:
        time.sleep(0.001)
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        pass
    closer.join()


class Serve:
    name = "serve"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.seconds = 10.0
        self.host = None
        self.setups = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.data import load_sst_dataset
        from repro.experiments.context import QUICK, ReproductionContext
        from repro.forecast import PODLSTMEmulator
        from repro.nas.space.builder import build_network
        from repro.nn.training import Trainer
        from repro.serve.registry import ModelRegistry
        from repro.serve.router import RouterClient

        dataset = load_sst_dataset(degrees=4.0, seed=self.seed)
        train = dataset.training_snapshots()
        test = dataset.snapshots(np.asarray(dataset.test_indices))
        context = ReproductionContext(QUICK)
        self.emulators = []
        for tag, epochs in ((1, 2), (2, 1)):
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, 0x5E, tag)))
            emulator = PODLSTMEmulator(
                n_modes=5, window=8,
                trainer=Trainer(epochs=epochs, batch_size=64,
                                learning_rate=0.002))
            emulator.fit(train, network=build_network(
                context.space, context.best_architecture(), rng=rng),
                rng=rng)
            self.emulators.append(emulator)
        windows = self.emulators[0].pipeline.windows_from_snapshots(
            test).inputs
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 7)))
        order = rng.permutation(len(windows))
        self.unseen = windows[order[:REFERENCE_CALLS]]
        self.windows = windows[order[REFERENCE_CALLS:]]

        self.setups += 1
        self.registry = ModelRegistry(self.workdir / f"registry{self.setups}")
        self.versions = {"v1": self.emulators[0]}
        self.registry.publish("v1", self.emulators[0], activate=True)
        fork = mp.get_context("fork")
        self.conn, child = fork.Pipe()
        self.host = fork.Process(
            target=_host_main, args=(self.registry, self.emulators, child),
            name="perfbench-router")
        self.host.start()
        child.close()
        self.address = self.conn.recv()
        self.clients = [RouterClient(self.address)
                        for _ in range(CONNECTIONS)]
        self._warm()
        self.last_stats = self._command("stats")

    def teardown(self) -> None:
        if self.host is None:
            return
        # RouterClient.close leaves the socket open through its reader
        # until the object is gone; drop each so the router sees EOF.
        while self.clients:
            self.clients.pop().close()
        gc.collect()
        try:
            self._command("close")
        except (OSError, EOFError):  # the router process already ended
            pass
        self.host.join(timeout=10.0)
        if self.host.is_alive():
            self.host.terminate()
            self.host.join()
        self.conn.close()
        self.host = None

    def _warm(self) -> None:
        """Request every pool window once, closed loop on every
        connection: fills the caches of the serving generation."""
        def run(client, indices) -> None:
            for index in indices:
                client.forecast(self.windows[index])

        pool = len(self.windows)
        threads = [threading.Thread(target=run, args=(client, range(
            i, pool, CONNECTIONS))) for i, client in enumerate(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _command(self, command: str, argument=None):
        self.conn.send((command, argument))
        return self.conn.recv()

    # ------------------------------------------------------------------
    def _schedule(self, rng, rate: float, seconds: float) -> np.ndarray:
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        due = np.cumsum(gaps)
        return due[due < seconds]

    def _phase(self, rng, rate: float, seconds: float, tracer, first_id,
               during=None) -> dict:
        """Offer ``rate`` for ``seconds`` over the connections; ``during``
        runs on this thread halfway through."""
        due = self._schedule(rng, rate, seconds)
        n = len(due)
        hot = rng.random(n) < HOT_SHARE
        pick = np.where(hot, rng.integers(0, HOT, n),
                        rng.integers(HOT, len(self.windows), n))
        records: list[tuple | None] = [None] * n
        cursor = [0]
        lock = threading.Lock()
        start = now() + 0.005

        def sender(client) -> None:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= n:
                    return
                due_at = start + due[k]
                free_at = now()
                if due_at > free_at:
                    time.sleep(due_at - free_at)
                sent = now()
                try:
                    routed = client.forecast(self.windows[pick[k]])
                    outcome = (routed.version, routed.generation,
                               routed.output)
                except Exception as error:  # counted as failed
                    outcome = (None, type(error).__name__, None)
                done = now()
                records[k] = (due_at, free_at, sent, done, int(pick[k]),
                              *outcome)
                if tracer is not None:
                    root = tracer.record("loadgen.request", due_at, done,
                                         first_id + k)
                    tracer.record("loadgen.wait", due_at, sent,
                                  first_id + k, parent=root)
                    tracer.record("serve.roundtrip", sent, done,
                                  first_id + k, parent=root)

        threads = [threading.Thread(target=sender, args=(c,))
                   for c in self.clients]
        for thread in threads:
            thread.start()
        extra = None
        if during is not None:
            time.sleep(max(0.0, start + seconds / 2 - now()))
            extra = during()
        for thread in threads:
            thread.join()
        return _phase_summary(rate, records, extra)

    def _promote(self) -> dict:
        name = f"v{len(self.versions) + 1}"
        index = len(self.versions) % 2
        self.versions[name] = self.emulators[index]
        before, publish_s, promote_s = self._command("promote",
                                                     (name, index))
        return {"publish_s": publish_s, "promote_s": promote_s,
                "before": before}

    def unit(self, tracer: Tracer | None = None) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 8)))
        lo_s, hi_s, rung_s = (share * self.seconds for share in
                              (LO_SHARE, HI_SHARE, RUNG_SHARE))
        start_stats = self.last_stats
        lo = self._phase(rng, LO_RPS, lo_s, tracer, 0, during=self._promote)
        self._warm()
        serving = program_pids(include_self=False)
        cpu = cpu_seconds(serving)
        hi = self._phase(rng, HI_RPS, hi_s, tracer, 10**6)
        hi["cpu_s"] = cpu_seconds(serving) - cpu
        steps = []
        for i, rate in enumerate(LADDER):
            steps.append(self._phase(rng, rate, rung_s, tracer,
                                     (i + 2) * 10**6))
            if len(steps) >= 2 and not (steps[-1]["pass"]
                                        or steps[-2]["pass"]):
                break
        end_stats = self.last_stats = self._command("stats")
        unit = {"lo": lo, "hi": hi, "ladder": steps,
                "max_rps": _knee(steps),
                "engine": _engine_totals(start_stats,
                                         lo["extra"]["before"], end_stats),
                "router": {k: end_stats[k] - start_stats[k]
                           for k in ("requests", "errors", "retries",
                                     "respawns")}}
        if tracer is not None:
            unit["reference"] = self._reference_calls()
        return unit

    def _reference_calls(self) -> dict:
        """In-process calls on cold windows: the breakdown of a request
        until the router can report engine-side stages itself."""
        from repro.nn.detmath import batch_invariant
        from repro.serve.engine import EngineConfig, ForecastEngine
        from repro.serve.protocol import encode_frame, read_frame

        emulator = self.versions[max(self.versions, key=lambda v: int(v[1:]))]
        forward, engine_ms, codec, rtt = [], [], [], []
        with batch_invariant():
            for window in self.unseen:
                start = now()
                emulator.network.predict(window[None])
                forward.append(now() - start)
        with ForecastEngine(emulator, version="reference",
                            config=EngineConfig(cache_entries=0)) as engine:
            for window in self.unseen:
                start = now()
                engine.forecast(window)
                engine_ms.append(now() - start)
        header = {"type": "forecast", "id": 0}
        for window in self.unseen:
            start = now()
            read_frame(io.BytesIO(encode_frame(header, window)))
            read_frame(io.BytesIO(encode_frame(
                {"type": "response", "id": 0, "generation": 1,
                 "version": "v1", "worker_id": 0}, window)))
            codec.append(now() - start)
        client = self.clients[0]
        for window in self.unseen:  # never requested: cache misses
            start = now()
            client.forecast(window)
            rtt.append(now() - start)
        return {"forward_b1_ms": 1e3 * median(forward),
                "engine_ms": 1e3 * median(engine_ms),
                "codec_us": 1e6 * median(codec),
                "rtt_ms": 1e3 * median(rtt)}

    # ------------------------------------------------------------------
    def summarize(self, units: list[dict]) -> tuple[dict, dict]:
        def med(key, field):
            return median([u[key][field] for u in units])

        named = {
            "serve.lo.p50_ms": (med("lo", "p50_ms"), "ms"),
            "serve.lo.p99_ms": (med("lo", "p99_ms"), "ms"),
            "serve.hi.p50_ms": (med("hi", "p50_ms"), "ms"),
            "serve.hi.p99_ms": (med("hi", "p99_ms"), "ms"),
            "serve.max_rps": (median([u["max_rps"] for u in units]),
                              "req/s"),
        }
        for u in units:
            for phase in [u["lo"], u["hi"]] + u["ladder"]:
                print(f"  rate {phase['rate']:7.1f}/s: n={phase['n']:5d} "
                      f"failed={phase['failed']} p50={phase['p50_ms']:.3f} "
                      f"p90={phase['p90_ms']:.3f} "
                      f"p99={phase['p99_ms']:.3f} ms "
                      f"lag p99={phase['lag_p99_ms']:.3f} ms "
                      f"backlog={'growing' if phase['backlog'] else 'flat'} "
                      f"{'valid' if phase['valid'] else 'INVALID'} "
                      f"{'pass' if phase['pass'] else 'fail'}")
        hi_ok = sum(len(u["hi"]["ok"]) for u in units)
        generic = {"ops_per_s": hi_ok / sum(u["hi"]["wall_s"] for u in units),
                   "cpu_ms_per_op": 1e3 * sum(u["hi"]["cpu_s"] for u in units)
                   / sum(u["hi"]["n"] for u in units)}
        return named, generic

    def measure(self, seconds: float) -> list[dict]:
        self.seconds = seconds
        return [self.unit()]

    def counts(self, units: list[dict]) -> tuple[int, int]:
        phases = [p for u in units for p in [u["lo"], u["hi"]] + u["ladder"]]
        return (sum(p["n"] for p in phases),
                sum(p["failed"] for p in phases))

    def checks(self, units: list[dict]) -> list[tuple[str, bool, str]]:
        reference: dict = {}
        mismatched = checked = 0
        tags = set()
        for u in units:
            for phase in [u["lo"], u["hi"]] + u["ladder"]:
                for version, generation, index, output in phase["ok"]:
                    tags.add((generation, version))
                    key = (version, index)
                    if key not in reference:
                        reference[key] = self.versions[version] \
                            .predict_windows(self.windows[index][None])[0]
                    checked += 1
                    mismatched += not np.array_equal(output, reference[key])
        generations = {}
        for generation, version in tags:
            generations.setdefault(generation, set()).add(version)
        lo_failed = sum(u["lo"]["failed"] for u in units)
        return [
            ("serve.bitwise_equal", checked > 0 and mismatched == 0,
             f"{checked} responses vs one-at-a-time predict_windows, "
             f"{mismatched} differ"),
            ("serve.one_version_per_generation",
             all(len(v) == 1 for v in generations.values()),
             f"{sorted(tags)}"),
            ("serve.promote_without_errors", lo_failed == 0,
             f"{lo_failed} failed requests in the phase with the promote"),
        ]

    def overhead(self, untraced: list[dict], traced: dict) -> float:
        """Tracing cost on what a request sees: high-rate median latency."""
        return traced["hi"]["p50_ms"] / np.mean(
            [u["hi"]["p50_ms"] for u in untraced])

    def layer_metrics(self, tracer: Tracer, agg: dict, unit: dict) -> dict:
        phases = [unit["lo"], unit["hi"]] + unit["ladder"]
        lags = [lag for p in phases for lag in p["lags_ms"]]
        engine, ref = unit["engine"], unit["reference"]
        waiting = sum(p["queued_s"] for p in phases)
        latency = sum(p["latency_s"] for p in phases)
        metrics = common_metrics(agg, tracer.counts)
        metrics.update({
            "nn.forward_b1_ms": ref["forward_b1_ms"],
            "serve.engine_ms": ref["engine_ms"],
            "serve.router_overhead_ms": ref["rtt_ms"] - ref["engine_ms"],
            "serve.codec_us": ref["codec_us"],
            "serve.cache_hit_ratio": engine["hits"] / max(
                1, engine["hits"] + engine["misses"]),
            "serve.mean_batch": engine["batched"] / max(1, engine["batches"]),
            "serve.shard_skew": max(engine["per_shard"]) / max(
                1e-9, np.mean(engine["per_shard"])),
            "serve.publish_s": unit["lo"]["extra"]["publish_s"],
            "serve.promote_s": unit["lo"]["extra"]["promote_s"],
            "serve.shed": float(engine["shed"]),
            "serve.timeouts": float(engine["timeouts"]),
            "serve.retries": float(unit["router"]["retries"]),
            "serve.unaccounted": float(unit["router"]["requests"]
                                       - engine["requests"]),
            "loadgen.send_lag_ms.p50": percentile(lags, 50.0),
            "loadgen.send_lag_ms.p99": percentile(lags, 99.0),
            "trace.uncovered_ratio": waiting / latency,
        })
        return metrics


# ----------------------------------------------------------------------
def _phase_summary(rate: float, records, extra) -> dict:
    ok, latencies, lags, queued = [], [], [], []
    failed = 0
    for due_at, free_at, sent, done, index, version, generation, output \
            in records:
        if version is None:
            failed += 1
        else:
            ok.append((version, generation, index, output))
        latencies.append(done - due_at)
        lags.append(1e3 * (sent - max(due_at, free_at)))
        queued.append(max(0.0, free_at - due_at))
    n = len(records)
    # A failed request misses every limit: rank it above any latency.
    ranked = sorted(latencies[i] if records[i][5] is not None else np.inf
                    for i in range(n))

    def pct(q: float) -> float:
        return 1e3 * percentile(ranked, q)

    # Backlog: the last tenth of the requests waited for a free
    # connection longer than the latency limit.
    backlog_ms = 1e3 * median(queued[-max(1, n // 10):])
    valid = percentile(lags, 99.0) <= LAG_LIMIT_MS
    p90 = pct(90.0)
    score = max(pct(50.0), backlog_ms) / LIMIT_MS
    return {"rate": rate, "n": n, "failed": failed, "ok": ok,
            "p50_ms": pct(50.0), "p90_ms": p90, "p99_ms": pct(99.0),
            "wall_s": max(r[3] for r in records) - records[0][0],
            "lags_ms": lags, "lag_p99_ms": percentile(lags, 99.0),
            "backlog": backlog_ms > LIMIT_MS, "valid": valid,
            "score": score, "pass": valid and score <= 1.0,
            "queued_s": sum(queued), "latency_s": sum(latencies),
            "extra": extra}


def _knee(steps: list[dict]) -> float:
    """The rate at which a rung's score (worse of median latency and
    backlog wait, over the limit) crosses 1, interpolated between the
    last passing rung and the next one. The ladder stops at two failing
    rungs in a row, so one rung failed by a passing stall does not end
    it. A next rung that is invalid or has failed requests gives the last
    passing rate."""
    passed = [s for s in steps if s["pass"]]
    if not passed:
        return steps[0]["rate"] * min(1.0, 1.0 / steps[0]["score"])
    last = passed[-1]
    after = steps[steps.index(last) + 1:]
    if not after or not after[0]["valid"] or after[0]["failed"]:
        return last["rate"]
    nxt = after[0]
    frac = (1.0 - last["score"]) / (nxt["score"] - last["score"])
    return last["rate"] + frac * (nxt["rate"] - last["rate"])


def _engine_totals(start: dict, before: dict, end: dict) -> dict:
    """Engine counters of one unit. They restart at every generation
    swap, so the unit's share is (before promote - at start) + at end."""
    def shard_counts(stats):
        return [s["engine"] for s in stats["shards"]]

    out = {"requests": 0, "batches": 0, "batched": 0, "shed": 0,
           "timeouts": 0, "hits": 0, "misses": 0,
           "per_shard": [0.0] * WORKERS}
    for sign, stats in ((-1, start), (1, before), (1, end)):
        for shard, engine in enumerate(shard_counts(stats)):
            out["requests"] += sign * engine["n_requests"]
            out["batches"] += sign * engine["n_batches"]
            out["batched"] += sign * engine["n_batches"] \
                * engine["mean_batch_size"]
            out["shed"] += sign * engine["n_shed"]
            out["timeouts"] += sign * engine["n_timeouts"]
            out["hits"] += sign * engine["cache"]["hits"]
            out["misses"] += sign * engine["cache"]["misses"]
            out["per_shard"][shard] += sign * engine["n_requests"]
    return out
