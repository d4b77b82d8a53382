"""Sharded serving router: one socket front, N engine worker processes.

``ForecastRouter`` is the production-scale face of docs/SERVING.md. It
listens on a loopback TCP port, speaks the length-prefixed framing of
:mod:`repro.serve.protocol`, and fans each forecast request out to one
of ``n_workers`` engine worker processes
(:mod:`repro.serve.worker`), each serving the ACTIVE bundle of the
shared :class:`~repro.serve.registry.ModelRegistry`:

* **Sharding** — requests route by consistent hash
  (:mod:`repro.serve.hashring`) of their SHA-256 cache key, so the
  response cache *shards* across workers instead of duplicating: a
  repeated window always lands on the worker whose LRU already holds
  it.
* **Zero-downtime promote** — :meth:`ForecastRouter.promote` atomically
  repoints the registry's ACTIVE, then rolls the workers one at a time:
  each drains its in-flight requests, swaps to the new bundle and bumps
  its generation tag while every other shard keeps serving. Responses
  carry ``(generation, version)``, so a client can attribute each one
  to exactly one bundle — there is no instant at which a response's
  provenance is ambiguous.
* **Fault handling** — a worker that dies mid-request fails fast (the
  connection EOFs), is respawned, and the request is retried on the
  fresh process up to ``max_retries`` times before surfacing as a typed
  :class:`~repro.serve.protocol.WorkerUnavailable`. Engine backpressure
  (:class:`~repro.serve.engine.EngineOverloaded`) and timeouts are
  *deliberate* signals and propagate to the client unretried.
* **Shutdown** — :meth:`ForecastRouter.close` fails every in-flight
  request with the typed :class:`~repro.serve.protocol.RouterShutdown`;
  a client socket is always answered, never deadlocked.

The router's own settings are ``n_workers`` and ``max_retries``. One
:class:`~repro.serve.engine.EngineConfig` (``worker_config``) configures
every worker's engine, passed unchanged. The worker round-trip bound
(:data:`REQUEST_TIMEOUT_S`, 30 s) and the promote bound
(:data:`PROMOTE_TIMEOUT_S`, 60 s) are fixed.

``RouterClient`` is the matching client: ``forecast(window)`` returns a
:class:`RoutedForecast` whose ``output`` is **bitwise identical** to a
serial one-at-a-time forecast of the tagged bundle
(tests/test_router_equivalence.py), and wire errors re-raise as the
same typed exceptions the in-process engine uses.

Observability (``router/*``): request/error/retry/respawn counters,
generation-swap and rebalance counts, and per-shard queue-depth gauges
refreshed by :meth:`ForecastRouter.stats`.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.serve.cache import window_digest
from repro.serve.engine import EngineConfig, ForecastTimeout
from repro.serve.hashring import ConsistentHashRing
from repro.serve.protocol import (ERR_INTERNAL, ProtocolError,
                                  RouterShutdown, WorkerUnavailable,
                                  code_for, encode_frame, exception_for,
                                  read_frame)
from repro.serve.registry import ModelRegistry
from repro.serve.supervisor import WorkerHandle, WorkerSupervisor

__all__ = ["ForecastRouter", "RouterClient", "RoutedForecast"]


#: Router-side bound on one worker round-trip, in seconds: the backstop
#: that turns a wedged worker into a typed timeout at the edge.
REQUEST_TIMEOUT_S = 30.0
#: Bound on one worker's drain+reload during a promote, in seconds.
PROMOTE_TIMEOUT_S = 60.0


class _WorkerDied(RuntimeError):
    """Internal signal: the shard's worker process went away mid-flight."""


class _RoundTrip:
    """One pending router->worker exchange, matched by message id."""

    __slots__ = ("event", "header", "body", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.header: dict | None = None
        self.body = None
        self.error: BaseException | None = None

    def resolve(self, header: dict, body) -> None:
        self.header, self.body = header, body
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class _ShardConnection:
    """Pipelined request/response channel to one engine worker.

    Many router threads write (id-tagged, under a lock); one receiver
    thread reads and resolves the matching round-trips. Worker death is
    an EOF here: every pending round-trip fails with :class:`_WorkerDied`
    and the connection marks itself dead so the router can respawn."""

    def __init__(self, handle: WorkerHandle) -> None:
        self.handle = handle
        self.worker_id = handle.worker_id
        self._sock = handle.sock
        self._reader = handle.sock.makefile("rb")
        self._write_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _RoundTrip] = {}
        self._next_id = 0
        self._dead = threading.Event()
        self._fail_error: BaseException = _WorkerDied(
            f"worker {self.worker_id} connection lost")
        self._receiver = threading.Thread(
            target=self._receive_loop, daemon=True,
            name=f"repro-router-recv-{self.worker_id}")
        self._receiver.start()

    @property
    def dead(self) -> bool:
        return self._dead.is_set()

    def request(self, header: dict, body=None,
                timeout: float | None = None) -> tuple[dict, object]:
        """Send one message and wait for its id-matched reply."""
        if self._dead.is_set():
            raise self._fail_error
        roundtrip = _RoundTrip()
        with self._pending_lock:
            request_id = self._next_id
            self._next_id += 1
            self._pending[request_id] = roundtrip
        try:
            frame = encode_frame({**header, "id": request_id}, body)
            with self._write_lock:
                self._sock.sendall(frame)
        except OSError:
            with self._pending_lock:
                self._pending.pop(request_id, None)
            self._mark_dead()
            raise _WorkerDied(
                f"worker {self.worker_id} socket broke on send") from None
        if not roundtrip.event.wait(timeout):
            with self._pending_lock:
                self._pending.pop(request_id, None)
            raise ForecastTimeout(
                f"worker {self.worker_id} did not answer within "
                f"{timeout:g}s")
        if roundtrip.error is not None:
            raise roundtrip.error
        return roundtrip.header, roundtrip.body

    def _receive_loop(self) -> None:
        try:
            while True:
                message = read_frame(self._reader)
                if message is None:
                    break
                header, body = message
                with self._pending_lock:
                    roundtrip = self._pending.pop(header.get("id"), None)
                if roundtrip is not None:
                    roundtrip.resolve(header, body)
        except (ProtocolError, OSError, ValueError):
            pass
        self._mark_dead()

    def _mark_dead(self, error: BaseException | None = None) -> None:
        if error is not None:
            self._fail_error = error
        self._dead.set()
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for roundtrip in pending:
            roundtrip.fail(self._fail_error)

    def close(self, error: BaseException | None = None) -> None:
        """Fail all pending round-trips and drop the socket."""
        self._mark_dead(error)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        # The reader holds the socket's descriptor open until it is
        # closed too.
        for resource in (self._reader, self._sock):
            try:
                resource.close()
            except OSError:
                pass


class ForecastRouter:
    """Socket-level serving front over sharded engine workers.

    Parameters
    ----------
    registry_root:
        Directory of the shared model registry; must have an ACTIVE
        version by :meth:`start` time.
    n_workers:
        Engine worker processes (= cache shards).
    max_retries:
        How many times one request is re-dispatched after its shard
        worker *died* (each time onto a freshly respawned process).
        Backpressure and timeouts are never retried.
    worker_config:
        Engine tuning, passed unchanged to every worker process
        (default: ``EngineConfig()``).

    One worker round-trip is bounded by :data:`REQUEST_TIMEOUT_S`, one
    worker's drain+reload during a promote by :data:`PROMOTE_TIMEOUT_S`.

    Usage::

        with ForecastRouter("registry", n_workers=4) as router:
            with RouterClient(router.address) as client:
                routed = client.forecast(window)
    """

    def __init__(self, registry_root, *, n_workers: int = 2,
                 max_retries: int = 2,
                 worker_config: EngineConfig | None = None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, "
                             f"got {max_retries}")
        self.n_workers = int(n_workers)
        self.max_retries = int(max_retries)
        self.registry = ModelRegistry(registry_root)
        self.worker_config = worker_config or EngineConfig()
        self._ring = ConsistentHashRing(self.n_workers)
        self._supervisor: WorkerSupervisor | None = None
        self._shards: dict[int, _ShardConnection] = {}
        self._shard_locks = {i: threading.Lock()
                             for i in range(self.n_workers)}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._client_threads: set[threading.Thread] = set()
        self._client_conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._closing = threading.Event()
        self._state_lock = threading.Lock()
        self._generation = 1
        self._version: str | None = None
        self._promote_lock = threading.Lock()
        self._counts_lock = threading.Lock()
        self._counts = {"requests": 0, "errors": 0, "retries": 0,
                        "respawns": 0, "generation_swaps": 0,
                        "rebalances": 0}

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._listener is not None and not self._closing.is_set()

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` clients connect to."""
        if self._listener is None:
            raise RuntimeError("router is not running (call start())")
        return self._listener.getsockname()[:2]

    def start(self) -> "ForecastRouter":
        """Spawn the worker fleet and open the client listener."""
        if self._listener is not None:
            raise RuntimeError("router already started")
        active = self.registry.active()
        if active is None:
            raise ValueError(
                f"registry {self.registry.root} has no active version "
                f"(publish and promote one first)")
        self._version = active
        self._supervisor = WorkerSupervisor(self.registry.root,
                                            self.worker_config)
        try:
            for shard_id in range(self.n_workers):
                handle = self._supervisor.spawn(shard_id,
                                                self._generation)
                self._shards[shard_id] = _ShardConnection(handle)
        except Exception:
            self._teardown_workers()
            self._supervisor.close()
            self._supervisor = None
            raise
        self._count("rebalances")  # the ring is (re)built: keys assigned
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="repro-router-accept")
        self._accept_thread.start()
        obs.gauge_set("router/workers", self.n_workers)
        return self

    def __enter__(self) -> "ForecastRouter":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Stop serving: fail in-flight requests with typed errors, then
        stop workers and close every socket."""
        if self._closing.is_set():
            return
        self._closing.set()
        # 1. Fail router->worker round-trips: blocked client handlers
        #    wake with RouterShutdown and answer their sockets.
        shutdown = RouterShutdown(
            "router shut down before the request was served")
        for shard in list(self._shards.values()):
            shard.close(shutdown)
        # 2. Stop accepting new clients. Closing alone does not wake a
        #    thread blocked in accept(); shutting the listener down does.
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # 3. End every client's input: a handler blocked reading its next
        #    request sees EOF, while one still answering a failed request
        #    can send its error frame. Then drop the client sockets.
        with self._conns_lock:
            conns = list(self._client_conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in list(self._client_threads):
            thread.join(timeout=5.0)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        self._teardown_workers()
        if self._supervisor is not None:
            self._supervisor.close()

    def _teardown_workers(self) -> None:
        for shard_id, shard in list(self._shards.items()):
            self._supervisor.terminate(shard.handle)
            shard.close()
        self._shards.clear()

    # -- state -----------------------------------------------------------
    def _serving_state(self) -> tuple[int, str]:
        with self._state_lock:
            return self._generation, self._version

    def _count(self, name: str, amount: int = 1) -> None:
        with self._counts_lock:
            self._counts[name] += amount
        obs.counter_add(f"router/{name}", amount)

    def shard_for(self, window) -> int:
        """Which shard a request window routes to right now (ops and
        test introspection)."""
        arr = np.ascontiguousarray(window, dtype=np.float64)
        _, version = self._serving_state()
        return self._ring.shard_for(window_digest(version, arr))

    def worker_pids(self) -> dict[int, int | None]:
        """shard id -> worker process pid (fault-injection hooks)."""
        return {shard_id: shard.handle.pid
                for shard_id, shard in sorted(self._shards.items())}

    # -- routing ---------------------------------------------------------
    def _revive(self, shard_id: int, dead: _ShardConnection) -> None:
        """Respawn a shard's worker; safe to race from many handlers."""
        with self._shard_locks[shard_id]:
            current = self._shards.get(shard_id)
            if current is not dead or not current.dead:
                return  # another handler already revived it
            self._supervisor.terminate(dead.handle)
            dead.close()
            generation, _ = self._serving_state()
            handle = self._supervisor.spawn(shard_id, generation)
            self._shards[shard_id] = _ShardConnection(handle)
            self._count("respawns")

    def _route(self, window: np.ndarray) -> tuple[dict, np.ndarray]:
        """One forecast through its shard, with bounded retry-on-respawn."""
        self._count("requests")
        deaths = 0
        while True:
            if self._closing.is_set():
                raise RouterShutdown(
                    "router shut down before the request was served")
            generation, version = self._serving_state()
            key = window_digest(version, window)
            shard_id = self._ring.shard_for(key)
            shard = self._shards[shard_id]
            try:
                header, body = shard.request(
                    {"type": "forecast"}, window,
                    timeout=REQUEST_TIMEOUT_S)
            except _WorkerDied:
                deaths += 1
                if self._closing.is_set():
                    self._count("errors")
                    raise RouterShutdown(
                        "router shut down before the request was "
                        "served") from None
                if deaths > self.max_retries:
                    self._count("errors")
                    raise WorkerUnavailable(
                        f"shard {shard_id} worker died {deaths} times "
                        f"serving one request; retries exhausted "
                        f"(max_retries={self.max_retries})"
                        ) from None
                self._revive(shard_id, shard)
                self._count("retries")
                continue
            except (ForecastTimeout, RouterShutdown):
                self._count("errors")
                raise
            if header.get("type") == "error":
                # Deliberate worker-side signal (overload, timeout,
                # shutdown, bad request): propagate typed, never retry.
                self._count("errors")
                raise exception_for(header.get("code", ERR_INTERNAL),
                                    header.get("message", "worker error"))
            return header, body

    # -- promote ---------------------------------------------------------
    def promote(self, name: str) -> None:
        """Zero-downtime promote: atomically repoint ACTIVE, then roll
        every worker through drain+reload while the others keep serving.

        A worker that crashes mid-reload is respawned — the fresh
        process loads the already-promoted ACTIVE at the new generation,
        so the fleet can never end up torn between generations
        (tests/test_router_faults.py).
        """
        with self._promote_lock:
            generation, _ = self._serving_state()
            new_generation = generation + 1
            self.registry.promote(name)  # raises on unknown version
            # Revived workers must come up on the new generation even
            # before the roll completes: publish it as the spawn target.
            with self._state_lock:
                self._generation, self._version = new_generation, name
            for shard_id in sorted(self._shards):
                self._roll_shard(shard_id, new_generation)
            self._count("generation_swaps")
            obs.gauge_set("router/generation", new_generation)

    def _roll_shard(self, shard_id: int, new_generation: int) -> None:
        while not self._closing.is_set():
            shard = self._shards[shard_id]
            if shard.handle.generation == new_generation:
                return  # respawned straight onto the new generation
            try:
                header, _ = shard.request(
                    {"type": "reload", "generation": new_generation},
                    timeout=PROMOTE_TIMEOUT_S)
            except _WorkerDied:
                # Crash during promote: the respawn loads the new ACTIVE
                # at the new generation — reload accomplished either way.
                self._revive(shard_id, shard)
                continue
            except ForecastTimeout:
                raise RuntimeError(
                    f"shard {shard_id} did not drain+reload within "
                    f"{PROMOTE_TIMEOUT_S:g}s during promote")
            if header.get("type") != "reloaded":
                raise RuntimeError(
                    f"shard {shard_id} answered reload with "
                    f"{header!r}")
            shard.handle.generation = int(header["generation"])
            shard.handle.version = str(header["version"])
            return

    # -- client serving --------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve_client,
                                      args=(conn,), daemon=True,
                                      name="repro-router-client")
            with self._conns_lock:
                self._client_conns.add(conn)
            self._client_threads.add(thread)
            thread.start()

    def _serve_client(self, conn: socket.socket) -> None:
        reader = conn.makefile("rb")
        try:
            while not self._closing.is_set():
                try:
                    message = read_frame(reader)
                except ProtocolError as error:
                    # Framing is broken; answer once and hang up rather
                    # than guessing at resynchronization.
                    self._send_client(conn, {
                        "type": "error", "id": None,
                        "code": ERR_INTERNAL,
                        "message": f"protocol error: {error}"})
                    break
                except OSError:
                    break
                if message is None:
                    break
                header, body = message
                request_id = header.get("id")
                kind = header.get("type")
                if kind == "forecast":
                    self._answer_forecast(conn, request_id, body)
                elif kind == "stats":
                    self._send_client(conn, {"type": "stats",
                                             "id": request_id,
                                             **self.stats()})
                else:
                    self._send_client(conn, {
                        "type": "error", "id": request_id,
                        "code": "bad-request",
                        "message": f"unknown message type {kind!r}"})
        finally:
            # The reader holds the socket open until it is closed too.
            for resource in (reader, conn):
                try:
                    resource.close()
                except OSError:
                    pass
            with self._conns_lock:
                self._client_conns.discard(conn)
            self._client_threads.discard(threading.current_thread())

    def _answer_forecast(self, conn, request_id, body) -> None:
        try:
            if body is None:
                raise ValueError("forecast request carries no window "
                                 "array")
            window = np.ascontiguousarray(body, dtype=np.float64)
            header, output = self._route(window)
        except Exception as error:
            self._send_client(conn, {"type": "error", "id": request_id,
                                     "code": code_for(error),
                                     "message": str(error)})
            return
        self._send_client(conn, {"type": "response", "id": request_id,
                                 "generation": header["generation"],
                                 "version": header["version"],
                                 "worker_id": header.get("worker_id")},
                          output)

    @staticmethod
    def _send_client(conn, header: dict, body=None) -> None:
        try:
            conn.sendall(encode_frame(header, body))
        except OSError:
            pass  # client went away; its handler loop exits on read

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict:
        """Router counters plus a per-shard statistics round-trip."""
        generation, version = self._serving_state()
        with self._counts_lock:
            counts = dict(self._counts)
        shards = []
        for shard_id, shard in sorted(self._shards.items()):
            entry = {"worker_id": shard_id, "pid": shard.handle.pid,
                     "alive": shard.handle.alive and not shard.dead}
            try:
                header, _ = shard.request({"type": "stats"}, timeout=5.0)
                entry.update(
                    generation=header.get("generation"),
                    version=header.get("version"),
                    queue_depth=header.get("queue_depth"),
                    engine=header.get("engine"))
                obs.gauge_set(f"router/shard{shard_id}/queue_depth",
                              header.get("queue_depth") or 0)
            except (_WorkerDied, ForecastTimeout):
                entry["alive"] = False
            shards.append(entry)
        return {"generation": generation, "version": version,
                "n_workers": self.n_workers, **counts,
                "shards": shards}

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (f"ForecastRouter(n_workers={self.n_workers}, "
                f"version={self._version!r}, "
                f"generation={self._generation}, {state})")


@dataclass(frozen=True)
class RoutedForecast:
    """One routed response: the forecast plus its provenance tags."""

    output: np.ndarray
    version: str
    generation: int
    worker_id: int | None


class RouterClient:
    """Synchronous client of a :class:`ForecastRouter` socket.

    One connection, one request at a time (closed-loop clients each own
    their connection). Wire errors re-raise as the typed exceptions of
    the in-process engine (:class:`EngineOverloaded`,
    :class:`ForecastTimeout`, ...) plus :class:`RouterShutdown` /
    :class:`WorkerUnavailable`.
    """

    def __init__(self, address: tuple[str, int], *,
                 timeout_s: float = 30.0) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, "
                             f"got {timeout_s}")
        self.timeout_s = float(timeout_s)
        self._sock = socket.create_connection(address, timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._next_id = 0

    def _exchange(self, header: dict, body=None,
                  timeout: float | None = None) -> tuple[dict, object]:
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            self._sock.settimeout(self.timeout_s if timeout is None
                                  else timeout)
            try:
                self._sock.sendall(
                    encode_frame({**header, "id": request_id}, body))
                message = read_frame(self._reader)
            except socket.timeout:
                raise ForecastTimeout(
                    f"router did not answer within "
                    f"{timeout or self.timeout_s:g}s") from None
        if message is None:
            raise RouterShutdown("router closed the connection")
        reply, reply_body = message
        if reply.get("type") == "error":
            raise exception_for(reply.get("code", ERR_INTERNAL),
                                reply.get("message", "router error"))
        return reply, reply_body

    def forecast(self, window, timeout: float | None = None
                 ) -> RoutedForecast:
        """One forecast round-trip; raises typed errors on failure."""
        arr = np.ascontiguousarray(window, dtype=np.float64)
        reply, output = self._exchange({"type": "forecast"}, arr,
                                       timeout=timeout)
        return RoutedForecast(output=output,
                              version=str(reply["version"]),
                              generation=int(reply["generation"]),
                              worker_id=reply.get("worker_id"))

    def stats(self) -> dict:
        """The router's :meth:`ForecastRouter.stats` snapshot."""
        reply, _ = self._exchange({"type": "stats"})
        return {k: v for k, v in reply.items()
                if k not in ("type", "id")}

    def close(self) -> None:
        # The reader holds the socket open until it is closed too; only
        # then does the router's handler read EOF.
        for resource in (self._reader, self._sock):
            try:
                resource.close()
            except OSError:
                pass

    def __enter__(self) -> "RouterClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
