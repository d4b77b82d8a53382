"""Worker-process lifecycle for the sharded serving router.

The supervisor owns the *processes*: it spawns each
:func:`repro.serve.worker.worker_main` engine worker, completes the
``hello`` handshake over its own loopback listener, and can terminate
or respawn any worker at any time. What flows over the accepted sockets
afterwards is the router's business (:mod:`repro.serve.router`).

Spawn protocol — chosen to be start-method agnostic and to make respawn
after a crash identical to first spawn:

1. the supervisor listens on an ephemeral loopback port;
2. each worker process is started with plain picklable arguments
   (worker id, registry root, the port, the router's
   :class:`~repro.serve.engine.EngineConfig`, generation);
3. the worker connects back and sends ``{"type": "hello", "worker_id":
   ...}``; the supervisor matches the id and hands the socket over.

Spawns are serialized under a lock so a handshake can never be matched
to the wrong concurrently-connecting worker. A worker that does not
complete its handshake within :data:`SPAWN_TIMEOUT_S` (crashed on
import, failed to load the bundle) is terminated and reported as a
:class:`RuntimeError` instead of hanging the router.

Like :class:`repro.hpc.parallel.ParallelEvaluator`, workers start with
``fork`` where available (they inherit the parent's imports and start
in milliseconds), else with ``spawn``.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import threading
import time
from dataclasses import dataclass

from repro.serve.engine import EngineConfig
from repro.serve.protocol import ProtocolError, read_frame
from repro.serve.worker import worker_main

__all__ = ["WorkerHandle", "WorkerSupervisor"]

#: Handshake deadline of one spawned worker, in seconds.
SPAWN_TIMEOUT_S = 20.0


@dataclass
class WorkerHandle:
    """One live engine worker: its process plus the handshaken socket."""

    worker_id: int
    process: "mp.process.BaseProcess"
    sock: socket.socket
    generation: int
    version: str

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class WorkerSupervisor:
    """Spawn, handshake, respawn and terminate engine worker processes.

    Parameters
    ----------
    registry_root:
        The shared :class:`~repro.serve.registry.ModelRegistry`
        directory every worker loads bundles from.
    worker_config:
        Engine tuning, passed unchanged to each worker.
    """

    def __init__(self, registry_root, worker_config: EngineConfig) -> None:
        self.registry_root = str(registry_root)
        self.worker_config = worker_config
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn")
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self._port = self._listener.getsockname()[1]
        self._closed = False

    @property
    def port(self) -> int:
        """The loopback port workers handshake on."""
        return self._port

    # -- spawning --------------------------------------------------------
    def spawn(self, worker_id: int, generation: int,
              version: str | None = None) -> WorkerHandle:
        """Start one worker and complete its handshake (serialized)."""
        if self._closed:
            raise RuntimeError("supervisor is closed")
        with self._lock:
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, self.registry_root, self._port,
                      self.worker_config, generation, version),
                daemon=True, name=f"repro-serve-worker-{worker_id}")
            process.start()
            try:
                sock, hello = self._handshake(worker_id, process)
            except Exception:
                self._terminate_process(process)
                raise
        return WorkerHandle(worker_id=worker_id, process=process,
                            sock=sock,
                            generation=int(hello["generation"]),
                            version=str(hello["version"]))

    def _handshake(self, worker_id: int, process
                   ) -> tuple[socket.socket, dict]:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not process.is_alive() \
                    and process.exitcode is not None:
                state = "died during startup" if not process.is_alive() \
                    else "did not connect in time"
                raise RuntimeError(
                    f"worker {worker_id} {state} "
                    f"(exitcode={process.exitcode}); does the registry "
                    f"at {self.registry_root!r} have a loadable ACTIVE "
                    f"version?")
            self._listener.settimeout(min(max(remaining, 0.05), 0.5))
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            try:
                sock.settimeout(SPAWN_TIMEOUT_S)
                message = read_frame(sock.makefile("rb"))
                if message is None:
                    raise ProtocolError("worker closed before hello")
                hello, _ = message
                if hello.get("type") != "hello" \
                        or hello.get("worker_id") != worker_id:
                    raise ProtocolError(
                        f"unexpected handshake {hello!r} while waiting "
                        f"for worker {worker_id}")
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                return sock, hello
            except (ProtocolError, OSError):
                sock.close()
                raise

    # -- teardown --------------------------------------------------------
    @staticmethod
    def _terminate_process(process) -> None:
        if process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck terminate
                process.kill()
                process.join(timeout=2.0)

    def terminate(self, handle: WorkerHandle) -> None:
        """Hard-stop one worker (its socket is closed as a side effect)."""
        self._terminate_process(handle.process)
        try:
            handle.sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting handshakes (processes are terminated per-handle
        by the router, which owns them)."""
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
