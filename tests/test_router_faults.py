"""Fault injection against the sharded router (repro.serve.router).

Every failure mode a distributed serving tier owes its clients an
answer for:

* a worker SIGKILLed mid-request is respawned and the request retried —
  bounded, counted, and bitwise-correct, never silently dropped — and
  the dead worker's connection is closed, not left to the collector;
* a full shard queue surfaces at the client as the typed
  :class:`EngineOverloaded`, not a stall;
* a worker crash during a promote cannot tear the fleet: the registry's
  ACTIVE and every shard's generation converge on the new bundle;
* router shutdown fails all in-flight requests with the typed
  :class:`RouterShutdown` — the client socket is answered, never
  deadlocked (the process-level analogue of
  ``ForecastEngine.stop()`` failing its queue with ``EngineStopped``) —
  and returns at once, whether clients have hung up or sit idle;
* retries are bounded: with ``max_retries=0`` a dead shard reports
  :class:`WorkerUnavailable` instead of retrying forever.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.serve import ModelRegistry
from repro.serve.engine import EngineConfig, EngineOverloaded
from repro.serve.protocol import RouterShutdown, WorkerUnavailable
from repro.serve.router import ForecastRouter, RouterClient


@pytest.fixture(scope="module")
def windows(tiny_emulator, generator):
    snaps = generator.snapshots(np.arange(60))
    return tiny_emulator.pipeline.windows_from_snapshots(snaps).inputs[:16]


@pytest.fixture(scope="module")
def serial(tiny_emulator, windows):
    return [tiny_emulator.predict_windows(w[None])[0] for w in windows]


@pytest.fixture(scope="module")
def registry_root(tiny_emulator, tmp_path_factory):
    root = tmp_path_factory.mktemp("fault-registry")
    registry = ModelRegistry(root)
    registry.publish("v1", tiny_emulator, activate=True)
    return root


def test_kill_mid_request_respawns_and_retries(registry_root, windows,
                                               serial):
    """SIGKILL the serving worker while a paced request is in flight:
    the router respawns it, retries, and the client still receives the
    bitwise-correct forecast — plus visible respawn/retry counters."""
    config = EngineConfig(max_batch=1, cache_entries=0, pace_s=0.5)
    with ForecastRouter(registry_root, n_workers=2,
                        worker_config=config) as router:
        target = router.shard_for(windows[0])
        victim_pid = router.worker_pids()[target]
        outcome: dict = {}

        def request() -> None:
            with RouterClient(router.address, timeout_s=60.0) as client:
                outcome["routed"] = client.forecast(windows[0])

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.2)  # let the request reach the paced engine
        os.kill(victim_pid, signal.SIGKILL)
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "client deadlocked on a dead worker"
        routed = outcome["routed"]
        assert routed.output.tobytes() == serial[0].tobytes()
        stats = router.stats()
        assert stats["respawns"] >= 1
        assert stats["retries"] >= 1
        # The respawned worker is a different process, same shard.
        assert router.worker_pids()[target] != victim_pid


def test_respawn_closes_the_dead_connection(registry_root, windows):
    """Replacing a dead worker closes its connection's reader and
    socket, so the descriptor does not stay open until garbage
    collection."""
    with ForecastRouter(registry_root, n_workers=1) as router:
        dead = router._shards[0]
        os.kill(router.worker_pids()[0], signal.SIGKILL)
        with RouterClient(router.address, timeout_s=30.0) as client:
            client.forecast(windows[0])  # retried on the respawned worker
        assert router._shards[0] is not dead
        assert dead._reader.closed
        assert dead._sock.fileno() == -1


def test_overload_reaches_client_as_typed_error(registry_root, windows):
    """One paced worker with a one-slot queue under six concurrent
    clients must shed: the shed requests surface as the *typed*
    EngineOverloaded at the socket client, and nothing hangs."""
    config = EngineConfig(max_batch=1, max_queue=1, cache_entries=0,
                          pace_s=0.3)
    with ForecastRouter(registry_root, n_workers=1,
                        worker_config=config) as router:
        outcomes: list[object] = []
        lock = threading.Lock()

        def request(index: int) -> None:
            try:
                with RouterClient(router.address,
                                  timeout_s=30.0) as client:
                    client.forecast(windows[index])
                result: object = "ok"
            except Exception as error:  # noqa: BLE001 - recorded below
                result = error
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=request, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
    errors = [o for o in outcomes if o != "ok"]
    assert errors, "a 1-slot queue under 6 clients must shed"
    assert all(isinstance(e, EngineOverloaded) for e in errors), \
        f"untyped overload errors: {[type(e).__name__ for e in errors]}"
    assert any(o == "ok" for o in outcomes)


def test_crash_during_promote_leaves_no_torn_generation(
        registry_root, tiny_emulator, generator, windows):
    """A worker that is already dead when the promote rolls (the router
    just does not know yet) is revived onto the *new* generation and
    the *new* ACTIVE — the fleet converges, nothing serves the new
    bundle under the old tag or vice versa."""
    from repro.forecast import PODLSTMEmulator
    from repro.nn import Trainer
    snapshots = generator.snapshots(np.arange(60))
    emulator_v2 = PODLSTMEmulator(n_modes=3, window=4,
                                  trainer=Trainer(epochs=2,
                                                  batch_size=16))
    emulator_v2.fit(snapshots, rng=11)
    registry = ModelRegistry(registry_root)
    registry.publish("v2", emulator_v2)
    registry.promote("v1")
    try:
        with ForecastRouter(registry_root, n_workers=2) as router:
            os.kill(router.worker_pids()[1], signal.SIGKILL)
            router.promote("v2")
            assert registry.active() == "v2"
            stats = router.stats()
            generations = {shard["generation"]
                           for shard in stats["shards"]}
            versions = {shard["version"] for shard in stats["shards"]}
            assert generations == {2}, f"torn fleet: {stats['shards']}"
            assert versions == {"v2"}
            reference = emulator_v2.predict_windows(windows[0][None])[0]
            with RouterClient(router.address) as client:
                routed = client.forecast(windows[0])
            assert routed.generation == 2
            assert routed.version == "v2"
            assert routed.output.tobytes() == reference.tobytes()
    finally:
        registry.promote("v1")  # restore for the other module tests


def test_shutdown_fails_inflight_with_typed_error(registry_root,
                                                  windows):
    """router.close() with a paced request in flight: the client gets
    the typed RouterShutdown (never a silent drop, never a deadlocked
    socket) — the distributed analogue of the engine's EngineStopped
    contract."""
    config = EngineConfig(max_batch=1, cache_entries=0, pace_s=1.0)
    router = ForecastRouter(registry_root, n_workers=1,
                            worker_config=config).start()
    outcome: dict = {}

    def request() -> None:
        try:
            with RouterClient(router.address, timeout_s=30.0) as client:
                client.forecast(windows[0])
            outcome["result"] = "ok"
        except Exception as error:  # noqa: BLE001 - recorded below
            outcome["result"] = error

    thread = threading.Thread(target=request)
    thread.start()
    time.sleep(0.3)  # the request is inside the paced engine
    router.close()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "client deadlocked across shutdown"
    assert isinstance(outcome["result"], RouterShutdown), \
        f"expected RouterShutdown, got {outcome['result']!r}"


@pytest.mark.parametrize("client", ["closed", "idle"])
def test_close_returns_promptly(registry_root, client):
    """close() wakes the accept loop and every client handler instead of
    waiting out their join timeouts."""
    router = ForecastRouter(registry_root, n_workers=1).start()
    connection = RouterClient(router.address)
    try:
        connection.stats()  # a handler is serving this connection
        if client == "closed":
            connection.close()
            # Closing the client's reader lets its handler read EOF.
            deadline = time.monotonic() + 1.0
            while router._client_threads and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not router._client_threads
        start = time.perf_counter()
        router.close()
        assert time.perf_counter() - start < 1.0
    finally:
        connection.close()
        router.close()


def test_retries_are_bounded(registry_root, windows):
    """With max_retries=0 a dying shard surfaces as WorkerUnavailable
    after the first death instead of retrying forever."""
    config = EngineConfig(max_batch=1, cache_entries=0, pace_s=0.5)
    with ForecastRouter(registry_root, n_workers=1, max_retries=0,
                        worker_config=config) as router:
        victim_pid = router.worker_pids()[0]
        outcome: dict = {}

        def request() -> None:
            try:
                with RouterClient(router.address,
                                  timeout_s=30.0) as client:
                    client.forecast(windows[0])
                outcome["result"] = "ok"
            except Exception as error:  # noqa: BLE001 - recorded below
                outcome["result"] = error

        thread = threading.Thread(target=request)
        thread.start()
        time.sleep(0.2)
        os.kill(victim_pid, signal.SIGKILL)
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert isinstance(outcome["result"], WorkerUnavailable), \
            f"expected WorkerUnavailable, got {outcome['result']!r}"
