"""Micro-batching forecast engine: coalesce concurrent requests into one
stacked forward pass.

Serving traffic arrives as independent single-window requests, but the
network evaluates a stacked batch for nearly the price of one request —
the per-timestep Python loop, layer dispatch and activation ufuncs run
once per *batch*, not once per request. The engine therefore queues
incoming requests and a single worker thread drains up to
``max_batch`` of them per tick into one ``Network.predict`` call.

Determinism contract (docs/SERVING.md): responses are **bitwise
identical** to one-at-a-time :class:`~repro.forecast.pod_lstm.PODLSTMEmulator`
forecasts, no matter how requests happen to be coalesced. The batched
forward runs inside :func:`repro.nn.detmath.batch_invariant`, which pins
every batch-M matmul to the batch-of-one kernel per row (see that module
for why plain stacking breaks bitwise equality). The differential suite
(tests/test_serve_engine.py) pins this at batch sizes 1/4/8 under real
concurrency.

Overload behaviour is *shed-with-error*: the queue is bounded, and a
request arriving beyond capacity fails immediately with
:class:`EngineOverloaded` instead of silently growing latency for
everyone (admission control). Per-request timeouts bound the caller's
wait (:class:`ForecastTimeout`); a timed-out request's result is still
computed and warms the cache, but nobody blocks on it.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.forecast.pod_lstm import PODLSTMEmulator
from repro.nn.detmath import batch_invariant
from repro.serve.cache import ForecastCache, window_digest

__all__ = ["EngineOverloaded", "ForecastTimeout", "EngineStopped",
           "EngineConfig", "ForecastEngine"]

#: Wake-up interval of an idle engine worker, so it notices
#: :meth:`ForecastEngine.stop`. It does not delay queued requests: the
#: worker blocks directly on the queue.
IDLE_POLL_S = 0.02


class EngineOverloaded(RuntimeError):
    """The request queue is at capacity; the request was shed."""


class ForecastTimeout(TimeoutError):
    """The caller's wait bound expired before the response arrived."""


class EngineStopped(RuntimeError):
    """The engine stopped before the queued request could be served.

    Typed (rather than a bare ``RuntimeError``) so process boundaries can
    translate it faithfully: a router worker that is shut down maps this
    onto the ``shutdown`` wire error code and the client sees a typed
    error instead of a hung socket (tests/test_router_faults.py)."""


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs of a :class:`ForecastEngine`.

    The one tuning object of the serving tier: a
    :class:`~repro.serve.router.ForecastRouter` passes its
    ``worker_config`` unchanged to every worker process's engine.

    Parameters
    ----------
    max_batch:
        Most requests coalesced into one forward pass per tick.
    max_queue:
        Admission-control bound: requests beyond this many waiting are
        shed with :class:`EngineOverloaded`.
    default_timeout_s:
        Per-request wait bound used when :meth:`ForecastEngine.forecast`
        (or a pending request's ``result()``) is called without an
        explicit timeout. A router worker waits out each request with
        it, and its expiry reaches the client as a typed ``timeout``
        error rather than a socket stall.
    cache_entries:
        LRU response-cache capacity; 0 disables caching.
    pace_s:
        Artificial service-time floor per drained batch (seconds); the
        worker sleeps out the remainder after inference. 0 (the
        default) disables it. Like
        :class:`~repro.nas.evaluation.PacedEvaluator`, this models the
        per-request occupancy of a production-size emulator on its own
        core, which keeps the sharded-router throughput benchmarks
        (``serve_router_throughput_*``) meaningful on single-core CI
        runners where compute-bound work cannot overlap.
    """

    max_batch: int = 8
    max_queue: int = 64
    default_timeout_s: float = 10.0
    cache_entries: int = 256
    pace_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.default_timeout_s <= 0:
            raise ValueError(f"default_timeout_s must be positive, "
                             f"got {self.default_timeout_s}")
        if self.cache_entries < 0:
            raise ValueError(f"cache_entries must be >= 0, "
                             f"got {self.cache_entries}")
        if self.pace_s < 0:
            raise ValueError(f"pace_s must be >= 0, got {self.pace_s}")


class _PendingForecast:
    """One in-flight request: the client blocks on ``result()``, the
    engine worker resolves or fails it."""

    __slots__ = ("window", "key", "_event", "_value", "_error", "_engine")

    def __init__(self, engine: "ForecastEngine", window: np.ndarray,
                 key: str) -> None:
        self._engine = engine
        self.window = window
        self.key = key
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The predicted output window; raises :class:`ForecastTimeout`
        if not served within ``timeout`` seconds."""
        if timeout is None:
            timeout = self._engine.config.default_timeout_s
        if not self._event.wait(timeout):
            self._engine._count_timeout()
            raise ForecastTimeout(
                f"forecast not served within {timeout:g}s "
                f"(queue depth {self._engine.queue_depth})")
        if self._error is not None:
            raise self._error
        return self._value


class ForecastEngine:
    """Serve micro-batched forecasts from one emulator.

    Parameters
    ----------
    emulator:
        A fitted emulator (freshly trained or from a bundle).
    version:
        Label of the model being served (the registry version name);
        part of every cache key.
    config:
        Engine tuning; individual fields can also be overridden via
        keyword arguments for convenience.

    Usage::

        with ForecastEngine(emulator, version="v3") as engine:
            out = engine.forecast(window)          # blocking
            pending = engine.submit(window)        # async
            out = pending.result(timeout=0.5)

    A request window has shape ``(window, n_modes)`` in scaled
    coefficient space — exactly one row of
    ``PODLSTMEmulator.predict_windows`` input; the response is the
    predicted output window of the same shape.
    """

    def __init__(self, emulator: PODLSTMEmulator, *,
                 version: str = "in-memory",
                 config: EngineConfig | None = None, **overrides) -> None:
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either config= or field overrides, "
                            "not both")
        self.config = config
        self.version = str(version)
        self._network = emulator._require_fit()
        self._window = emulator.pipeline.window
        self._n_modes = emulator.pipeline.n_modes
        self._queue: queue.Queue[_PendingForecast] = queue.Queue(
            maxsize=config.max_queue)
        self._cache = ForecastCache(config.cache_entries)
        self._stop = threading.Event()
        self._worker: threading.Thread | None = None
        self._stats_lock = threading.Lock()
        self._n_requests = 0
        self._n_batched = 0
        self._n_batches = 0
        self._n_shed = 0
        self._n_timeouts = 0

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "ForecastEngine":
        """Start the batching worker thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._worker = threading.Thread(target=self._serve_loop,
                                        name="repro-serve-worker",
                                        daemon=True)
        self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the worker; unserved queued requests fail with a
        descriptive error."""
        if self._worker is None:
            return
        self._stop.set()
        self._worker.join()
        self._worker = None
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending._fail(EngineStopped(
                "engine stopped before the request was served"))

    def __enter__(self) -> "ForecastEngine":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- request path ----------------------------------------------------
    def _check_window(self, window) -> np.ndarray:
        arr = np.ascontiguousarray(window, dtype=np.float64)
        expected = (self._window, self._n_modes)
        if arr.shape != expected:
            raise ValueError(
                f"request window must have shape {expected} "
                f"(window, n_modes), got {arr.shape}")
        return arr

    def submit(self, window) -> _PendingForecast:
        """Enqueue one request; returns a pending handle.

        Cache hits resolve immediately without touching the queue. A
        full queue sheds the request with :class:`EngineOverloaded`.
        """
        if not self.running:
            raise RuntimeError("engine is not running (call start() or "
                               "use it as a context manager)")
        arr = self._check_window(window)
        key = window_digest(self.version, arr)
        with self._stats_lock:
            self._n_requests += 1
        obs.counter_add("serve/requests")
        pending = _PendingForecast(self, arr, key)
        cached = self._cache.get(key)
        if cached is not None:
            pending._resolve(cached)
            return pending
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            with self._stats_lock:
                self._n_shed += 1
            obs.counter_add("serve/shed")
            raise EngineOverloaded(
                f"request shed: queue at capacity "
                f"({self.config.max_queue} waiting)") from None
        return pending

    def forecast(self, window, timeout: float | None = None) -> np.ndarray:
        """Blocking single-request forecast (submit + wait)."""
        return self.submit(window).result(timeout)

    # -- worker ----------------------------------------------------------
    def _serve_loop(self) -> None:
        cfg = self.config
        while not self._stop.is_set():
            try:
                first = self._queue.get(timeout=IDLE_POLL_S)
            except queue.Empty:
                continue
            batch = [first]
            while len(batch) < cfg.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            self._run_batch(batch)

    def _infer(self, stacked: np.ndarray) -> np.ndarray:
        """One stacked forward pass under the batch-invariance contract."""
        with batch_invariant():
            return self._network.predict(stacked)

    def _run_batch(self, batch: list[_PendingForecast]) -> None:
        stacked = np.stack([p.window for p in batch])
        t_start = time.perf_counter()
        try:
            with obs.scope("serve/batch"):
                outputs = self._infer(stacked)
        except BaseException as error:  # propagate to every waiter
            for pending in batch:
                pending._fail(error)
            return
        if self.config.pace_s > 0.0:
            remaining = self.config.pace_s - (time.perf_counter() - t_start)
            if remaining > 0.0:
                time.sleep(remaining)
        with self._stats_lock:
            self._n_batches += 1
            self._n_batched += len(batch)
        obs.counter_add("serve/batches")
        obs.gauge_set("serve/batch_size", len(batch))
        for pending, output in zip(batch, outputs):
            self._cache.put(pending.key, output)
            pending._resolve(np.ascontiguousarray(output))

    def _count_timeout(self) -> None:
        with self._stats_lock:
            self._n_timeouts += 1
        obs.counter_add("serve/timeouts")

    # -- introspection ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> dict:
        """Lifetime engine counters plus cache statistics."""
        with self._stats_lock:
            n_batches = self._n_batches
            stats = {"version": self.version,
                     "max_batch": self.config.max_batch,
                     "max_queue": self.config.max_queue,
                     "n_requests": self._n_requests,
                     "n_batches": n_batches,
                     "n_shed": self._n_shed,
                     "n_timeouts": self._n_timeouts,
                     "mean_batch_size": (self._n_batched / n_batches
                                         if n_batches else 0.0)}
        stats["cache"] = self._cache.stats()
        return stats

    def __repr__(self) -> str:
        return (f"ForecastEngine(version={self.version!r}, "
                f"running={self.running}, "
                f"max_batch={self.config.max_batch})")
