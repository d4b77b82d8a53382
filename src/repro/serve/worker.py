"""Engine worker process of the sharded serving router.

One worker = one OS process wrapping one micro-batching
:class:`~repro.serve.engine.ForecastEngine` over the bundle it loaded
from the shared :class:`~repro.serve.registry.ModelRegistry` (the ACTIVE
version unless told otherwise). The engine runs at the router's
:class:`~repro.serve.engine.EngineConfig`, passed unchanged through the
supervisor; its ``default_timeout_s`` bounds each request's wait inside
the worker. The process connects *back* to the router's worker
listener — spawn-method agnostic, and respawn after a crash is just
another connect — identifies itself with a ``hello`` frame, then serves
the message protocol of :mod:`repro.serve.protocol`:

``forecast``
    Submit the request window to the engine; answer with the forecast
    tagged ``(generation, version)``, or a typed wire error
    (``overloaded`` / ``timeout`` / ``shutdown`` / ``bad-request``).
    Requests pipeline: the reader loop submits and a small thread pool
    waits out and writes completions, so one slow forecast never blocks
    the ones batched behind it.

``reload``
    The zero-downtime promote step: **drain** (wait until every
    already-accepted request has been answered — the reader loop itself
    is the barrier, no new work is accepted while reloading), stop the
    old engine, load the new ACTIVE bundle, start a fresh engine and
    acknowledge with the new ``(generation, version)``. In-flight
    responses keep their old generation tag; everything after the ack
    carries the new one — a client can attribute every response to
    exactly one bundle (tests/test_router_equivalence.py).

``stats`` / ``shutdown``
    Engine statistics snapshot; orderly stop (queued requests fail with
    the typed :class:`~repro.serve.engine.EngineStopped` -> ``shutdown``
    wire errors, never silence).

The engine serves under ``batch_invariant()`` exactly as in
single-process mode, and responses travel as raw float64 bytes — so a
routed response is **bitwise identical** to a serial one-at-a-time
forecast of the same bundle, which is the router's differential
contract.
"""

from __future__ import annotations

import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.serve.engine import EngineConfig, EngineOverloaded, \
    EngineStopped, ForecastEngine, ForecastTimeout
from repro.serve.protocol import code_for, encode_frame, read_frame
from repro.serve.registry import ModelRegistry

__all__ = ["worker_main"]


def worker_main(worker_id: int, registry_root: str, port: int,
                config: EngineConfig, generation: int = 1,
                version: str | None = None) -> None:
    """Blocking entry point of one engine worker process.

    ``config`` is the router's :class:`~repro.serve.engine.EngineConfig`,
    unchanged. ``version=None`` loads the registry's ACTIVE version.
    Exits when the router closes the connection, on a ``shutdown``
    message, or if the socket breaks.
    """
    _EngineWorker(worker_id, registry_root, port, config, generation,
                  version).run()


class _EngineWorker:
    """The in-process implementation behind :func:`worker_main`."""

    def __init__(self, worker_id: int, registry_root: str, port: int,
                 config: EngineConfig, generation: int,
                 version: str | None) -> None:
        self.worker_id = int(worker_id)
        self.registry = ModelRegistry(registry_root)
        self.port = int(port)
        self.config = config
        self.generation = int(generation)
        self._start_version = version
        self._engine: ForecastEngine | None = None
        self._version: str | None = None
        self._sock: socket.socket | None = None
        self._write_lock = threading.Lock()
        self._outstanding = 0
        self._drained = threading.Condition()

    # -- engine lifecycle ------------------------------------------------
    def _load_engine(self, version: str | None) -> None:
        name, emulator = self.registry.load(version)
        self._engine = ForecastEngine(emulator, version=name,
                                      config=self.config).start()
        self._version = name

    # -- transport -------------------------------------------------------
    def _send(self, header: dict, body=None) -> None:
        frame = encode_frame(header, body)
        try:
            with self._write_lock:
                self._sock.sendall(frame)
        except OSError:
            # The router is gone; the reader loop will notice EOF and
            # wind the process down — nothing useful to do here.
            pass

    def _send_error(self, request_id, error: BaseException) -> None:
        self._send({"type": "error", "id": request_id,
                    "code": code_for(error), "message": str(error),
                    "worker_id": self.worker_id})

    # -- request handling ------------------------------------------------
    def _await_forecast(self, request_id, pending, generation: int,
                        version: str) -> None:
        """Wait out one admitted request and write its response.

        Runs on the waiter pool; admission (and its EngineOverloaded
        shed) already happened synchronously in the reader loop, so the
        pool only ever holds requests the engine accepted. The wait is
        bounded by the engine's ``default_timeout_s``."""
        try:
            try:
                output = pending.result()
            except (ForecastTimeout, EngineStopped,
                    ValueError, RuntimeError) as error:
                self._send_error(request_id, error)
                return
            self._send({"type": "response", "id": request_id,
                        "generation": generation, "version": version,
                        "worker_id": self.worker_id}, output)
        finally:
            with self._drained:
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._drained.notify_all()

    def _handle_reload(self, request_id, new_generation: int) -> None:
        """Drain + swap: the promote step (docs/SERVING.md)."""
        with self._drained:
            while self._outstanding > 0:
                self._drained.wait(timeout=0.1)
        self._engine.stop()
        self._load_engine(None)  # whatever ACTIVE points at now
        self.generation = int(new_generation)
        self._send({"type": "reloaded", "id": request_id,
                    "generation": self.generation,
                    "version": self._version,
                    "worker_id": self.worker_id})

    def _handle_stats(self, request_id) -> None:
        self._send({"type": "stats", "id": request_id,
                    "worker_id": self.worker_id, "pid": os.getpid(),
                    "generation": self.generation,
                    "version": self._version,
                    "queue_depth": self._engine.queue_depth,
                    "engine": self._engine.stats()})

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        self._load_engine(self._start_version)
        self._sock = socket.create_connection(("127.0.0.1", self.port),
                                              timeout=10.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)
        reader = self._sock.makefile("rb")
        self._send({"type": "hello", "worker_id": self.worker_id,
                    "pid": os.getpid(), "generation": self.generation,
                    "version": self._version})
        # Waiters are bounded by the engine's admission control: at most
        # max_queue queued + max_batch in flight can be outstanding.
        pool = ThreadPoolExecutor(
            max_workers=min(32, self.config.max_queue
                            + self.config.max_batch),
            thread_name_prefix=f"repro-worker-{self.worker_id}")
        try:
            while True:
                try:
                    message = read_frame(reader)
                except (OSError, RuntimeError):
                    break
                if message is None:
                    break
                header, body = message
                kind = header.get("type")
                request_id = header.get("id")
                if kind == "forecast":
                    if body is None:
                        self._send_error(request_id, ValueError(
                            "forecast request carries no window array"))
                        continue
                    # Admission control runs HERE, synchronously: a full
                    # queue sheds with EngineOverloaded at read time
                    # instead of hiding backpressure in the waiter pool.
                    try:
                        pending = self._engine.submit(body)
                    except (EngineOverloaded, EngineStopped, ValueError,
                            RuntimeError) as error:
                        self._send_error(request_id, error)
                        continue
                    with self._drained:
                        self._outstanding += 1
                    pool.submit(self._await_forecast, request_id,
                                pending, self.generation, self._version)
                elif kind == "reload":
                    self._handle_reload(request_id,
                                        header.get("generation",
                                                   self.generation + 1))
                elif kind == "stats":
                    self._handle_stats(request_id)
                elif kind == "shutdown":
                    break
                else:
                    self._send_error(request_id, ValueError(
                        f"unknown message type {kind!r}"))
        finally:
            # Queued requests fail with the typed EngineStopped; their
            # waiter threads answer with `shutdown` wire errors before
            # the pool drains, so nothing is silently dropped.
            self._engine.stop()
            pool.shutdown(wait=True)
            try:
                self._sock.close()
            except OSError:
                pass
