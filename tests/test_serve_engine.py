"""Micro-batching forecast engine (repro.serve.engine).

The load-bearing suite is ``TestDifferentialBitwise``: whatever way
concurrent requests get coalesced (max_batch 1/4/8, real client
threads), every response must be **bitwise identical** (exact ``==``)
to a serial one-at-a-time ``PODLSTMEmulator`` forecast — the serving
determinism contract of docs/SERVING.md, implemented by
repro.nn.detmath's batch-invariant kernels.

The behavioural tests (shed, timeout, stop, coalescing) drive the
worker deterministically by replacing ``engine._infer`` with a gate
that blocks until the test releases it.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.serve import (EngineConfig, EngineOverloaded, ForecastCache,
                         ForecastEngine, ForecastTimeout, window_digest)


@pytest.fixture(scope="module")
def pool(tiny_emulator, generator):
    """32 distinct real request windows in scaled coefficient space."""
    snaps = generator.snapshots(np.arange(60))
    return tiny_emulator.pipeline.windows_from_snapshots(snaps).inputs[:32]


@pytest.fixture(scope="module")
def serial(tiny_emulator, pool):
    """The reference: every window forecast one at a time, no engine."""
    return [tiny_emulator.predict_windows(w[None])[0] for w in pool]


def _gated_engine(emulator, **overrides):
    """Engine whose inference blocks until the test releases it —
    deterministic control over what is queued while a batch is in
    flight. Returns (engine, entered, release)."""
    engine = ForecastEngine(emulator, cache_entries=0, **overrides)
    entered, release = threading.Event(), threading.Event()
    original = engine._infer

    def gated(stacked):
        entered.set()
        assert release.wait(10), "test never released the worker"
        return original(stacked)

    engine._infer = gated
    return engine, entered, release


class TestDifferentialBitwise:
    @pytest.mark.parametrize("max_batch", [1, 4, 8])
    def test_concurrent_responses_equal_serial(self, tiny_emulator, pool,
                                               serial, max_batch):
        with ForecastEngine(tiny_emulator, max_batch=max_batch,
                            cache_entries=0) as engine:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = [executor.submit(engine.forecast, w)
                           for w in pool]
                outputs = [f.result() for f in futures]
        for output, reference in zip(outputs, serial, strict=True):
            assert np.array_equal(output, reference)  # exact ==

    def test_single_submit_equals_serial(self, tiny_emulator, pool,
                                         serial):
        with ForecastEngine(tiny_emulator, cache_entries=0) as engine:
            output = engine.forecast(pool[0])
        assert np.array_equal(output, serial[0])

    def test_cached_response_bitwise(self, tiny_emulator, pool, serial):
        with ForecastEngine(tiny_emulator) as engine:
            first = engine.forecast(pool[0])
            second = engine.forecast(pool[0])
            stats = engine.stats()
        assert np.array_equal(first, serial[0])
        assert np.array_equal(second, first)
        assert stats["cache"]["hits"] == 1
        assert stats["n_batches"] == 1  # the hit never reached the queue


class TestBatching:
    def test_requests_coalesce_into_one_batch(self, tiny_emulator, pool,
                                              serial):
        engine, entered, release = _gated_engine(tiny_emulator,
                                                 max_batch=8)
        with engine:
            head = engine.submit(pool[0])
            assert entered.wait(5)  # worker busy with the first batch
            rest = [engine.submit(w) for w in pool[1:5]]
            release.set()
            outputs = [head.result(5)] + [p.result(5) for p in rest]
        stats = engine.stats()
        assert stats["n_requests"] == 5
        assert stats["n_batches"] == 2  # [w0] then [w1..w4] coalesced
        for output, reference in zip(outputs, serial[:5], strict=True):
            assert np.array_equal(output, reference)

    def test_shed_when_queue_full(self, tiny_emulator, pool):
        engine, entered, release = _gated_engine(tiny_emulator,
                                                 max_batch=1, max_queue=1)
        with engine:
            head = engine.submit(pool[0])
            assert entered.wait(5)  # queue now empty, worker blocked
            waiting = engine.submit(pool[1])  # fills the queue
            with pytest.raises(EngineOverloaded, match="shed"):
                engine.submit(pool[2])
            assert engine.stats()["n_shed"] == 1
            release.set()
            head.result(5)
            waiting.result(5)

    def test_timeout_then_late_result(self, tiny_emulator, pool, serial):
        engine, entered, release = _gated_engine(tiny_emulator)
        with engine:
            pending = engine.submit(pool[0])
            assert entered.wait(5)
            with pytest.raises(ForecastTimeout, match="not served"):
                pending.result(timeout=0.05)
            assert engine.stats()["n_timeouts"] == 1
            release.set()
            # The result was still computed; a later wait observes it.
            assert np.array_equal(pending.result(5), serial[0])

    def test_stop_fails_queued_requests(self, tiny_emulator, pool):
        engine, entered, release = _gated_engine(tiny_emulator,
                                                 max_batch=1)
        engine.start()
        head = engine.submit(pool[0])
        assert entered.wait(5)
        queued = engine.submit(pool[1])
        engine._stop.set()  # worker exits after the in-flight batch
        release.set()
        engine.stop()
        head.result(5)  # the in-flight batch completed normally
        # The typed EngineStopped (a RuntimeError subclass) is part of
        # the wire contract: router workers translate it to the
        # `shutdown` error code, so the exact type is pinned here.
        from repro.serve.engine import EngineStopped
        with pytest.raises(EngineStopped, match="engine stopped"):
            queued.result(5)


class TestRequestValidation:
    def test_not_running(self, tiny_emulator, pool):
        engine = ForecastEngine(tiny_emulator)
        with pytest.raises(RuntimeError, match="not running"):
            engine.submit(pool[0])

    def test_wrong_shape(self, tiny_emulator):
        with ForecastEngine(tiny_emulator) as engine:
            with pytest.raises(ValueError, match="request window"):
                engine.forecast(np.zeros((2, 2)))

    def test_config_and_overrides_exclusive(self, tiny_emulator):
        with pytest.raises(TypeError, match="not both"):
            ForecastEngine(tiny_emulator, config=EngineConfig(),
                           max_batch=4)

    @pytest.mark.parametrize("field, value", [
        ("max_batch", 0), ("max_queue", 0), ("default_timeout_s", 0.0),
        ("cache_entries", -1)])
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})

    def test_start_idempotent_and_restartable(self, tiny_emulator, pool):
        engine = ForecastEngine(tiny_emulator, cache_entries=0)
        engine.start()
        engine.start()
        engine.forecast(pool[0])
        engine.stop()
        engine.stop()
        engine.start()  # a stopped engine can serve again
        engine.forecast(pool[1])
        engine.stop()


class TestForecastCache:
    def test_digest_sensitive_to_version_and_window(self):
        w = np.arange(6.0).reshape(2, 3)
        base = window_digest("v1", w)
        assert window_digest("v2", w) != base
        assert window_digest("v1", w.copy()) == base  # content-addressed
        assert window_digest("v1", w.reshape(3, 2)) != base
        bumped = w.copy()
        bumped[0, 0] = np.nextafter(bumped[0, 0], 1.0)
        assert window_digest("v1", bumped) != base

    def test_lru_eviction_order(self):
        cache = ForecastCache(max_entries=2)
        cache.put("a", np.array([1.0]))
        cache.put("b", np.array([2.0]))
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", np.array([3.0]))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_zero_capacity_disables(self):
        cache = ForecastCache(max_entries=0)
        cache.put("a", np.array([1.0]))
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_returns_copies(self):
        cache = ForecastCache()
        value = np.array([1.0, 2.0])
        cache.put("a", value)
        value[:] = 0.0
        out = cache.get("a")
        np.testing.assert_array_equal(out, [1.0, 2.0])
        out[:] = -1.0
        np.testing.assert_array_equal(cache.get("a"), [1.0, 2.0])

    def test_hit_miss_counters_and_obs(self):
        obs.enable()
        cache = ForecastCache()
        assert cache.get("a") is None
        cache.put("a", np.array([1.0]))
        cache.get("a")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        registry = obs.get_registry()
        assert registry.counters["serve/cache/hit"].value == 1
        assert registry.counters["serve/cache/miss"].value == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ForecastCache(max_entries=-1)


class TestLegacyBundleCompatibility:
    """A bundle saved by the pre-fused-kernel tree (tests/data/) loads
    into today's fused layers and serves bitwise-identical forecasts —
    both directly and through the micro-batching engine."""

    @pytest.fixture(scope="class")
    def legacy(self):
        from pathlib import Path

        from repro.serve import load_bundle
        data = Path(__file__).parent / "data"
        emulator = load_bundle(data / "legacy_emulator_bundle.npz")
        windows = np.load(data / "legacy_emulator_windows.npy")
        forecasts = np.load(data / "legacy_emulator_forecast.npy")
        return emulator, windows, forecasts

    def test_direct_predictions_bitwise(self, legacy):
        emulator, windows, want = legacy
        got = emulator.predict_windows(windows)
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_engine_serves_legacy_forecasts_bitwise(self, legacy):
        """Engine responses for a legacy bundle equal its serial
        one-at-a-time predictions (the engine contract; the recorded
        fixture is a full-batch prediction, which batch-invariance
        deliberately does NOT have to match for B > 1)."""
        emulator, windows, _ = legacy
        serial = [emulator.predict_windows(w[None])[0]
                  for w in windows[:16]]
        with ForecastEngine(emulator, max_batch=4,
                            cache_entries=0) as engine:
            with ThreadPoolExecutor(max_workers=4) as executor:
                futures = [executor.submit(engine.forecast, w)
                           for w in windows[:16]]
                outputs = [f.result() for f in futures]
        for output, reference in zip(outputs, serial, strict=True):
            assert np.array_equal(output, reference)
