"""Process-pool parallel evaluation backend (docs/PARALLELISM.md).

The discrete-event executors in :mod:`repro.hpc.executor` model a cluster
whose concurrency the process never actually had: every
``Evaluator.evaluate`` call ran serially inside the event loop. This
module supplies the real concurrency. An :class:`EvaluationBackend`
decouples *requesting* an evaluation (``submit``) from *consuming* its
result (``gather``); between the two, :class:`ParallelEvaluator` fans the
work out to a ``multiprocessing`` worker pool while the executors keep
assigning simulated timestamps exactly as before.

Determinism contract
--------------------
Every task is seeded by an order-stable
:func:`repro.utils.rng.child_sequence` child of a per-run root: task ``k``
receives stream ``(root, k)`` no matter which worker runs it, in which
order results return, or whether the backend is the in-process
:class:`SerialEvaluator`. Results are therefore bitwise identical across
worker counts — guaranteed by tests/test_parallel_equivalence.py, not by
hoping the pool is quiet.

Failure semantics
-----------------
A worker that raises, crashes, or hangs past ``task_timeout`` is
terminated and replaced by a fresh process; the task is retried up to
``max_retries`` times. On retry exhaustion the task degrades to one
guarded in-process attempt (never after a timeout — an evaluator that
hung a worker would hang the parent too) and finally surfaces as a
*failure* :class:`~repro.nas.evaluation.EvaluationResult`
(``metadata["failed"]``, punishment reward) rather than an exception, so
the event queue keeps draining. If the pool cannot be built at all (no
``fork``/``spawn``, resource limits), the backend degrades whole-sale to
in-process serial evaluation. A *cancelled* task (``cancel``) is never
retried and never becomes a failure result on any of these paths.
"""

from __future__ import annotations

import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
import multiprocessing as mp

import numpy as np

from repro import obs
from repro.nas.evaluation import EvaluationResult, Evaluator
from repro.utils.rng import as_seed_sequence, child_sequence

__all__ = ["EvaluationBackend", "SerialEvaluator", "ParallelEvaluator",
           "TaskFeed", "evaluation_backend", "FAILURE_REWARD"]

#: Reward reported for an evaluation whose every recovery path failed —
#: finite (so ``tell`` comparisons stay ordered) and clearly punishing.
FAILURE_REWARD = -1.0


class EvaluationBackend:
    """Submit/gather protocol over an :class:`Evaluator`.

    ``submit`` registers an architecture + task seed and returns an
    integer handle; ``gather`` blocks until that task's
    :class:`EvaluationResult` is available; ``cancel`` withdraws a task
    that will never be gathered. Implementations must be deterministic
    in ``(architecture, seed)`` only — never in scheduling.
    """

    def __init__(self, evaluator: Evaluator) -> None:
        self.evaluator = evaluator

    #: How many tasks the executor should keep in flight to saturate the
    #: backend (1 for serial; ~2x workers for the pool).
    capacity: int = 1

    def submit(self, arch, seed: np.random.SeedSequence,
               epochs: int | None = None) -> int:
        """Register a task. ``epochs`` (optional) asks the evaluator at a
        truncated budget via ``evaluate_at`` — the multi-fidelity path;
        ``None`` keeps the evaluator's full-budget ``evaluate``."""
        raise NotImplementedError

    def gather(self, handle: int) -> EvaluationResult:
        raise NotImplementedError

    def cancel(self, handle: int) -> None:
        """Withdraw a task whose result will never be gathered.

        The handle is forgotten at once (``gather`` then raises
        ``KeyError``). Work not yet started never runs; work already
        running finishes and its result is discarded. A cancelled task
        is never retried and never reported as a failure.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; gather() must not be called afterwards."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class SerialEvaluator(EvaluationBackend):
    """In-process backend: the serial reference the pool must match.

    Evaluation is deferred to ``gather`` so the submit/gather pattern is
    exercised identically to the pool; because every task carries its own
    seed stream, deferral order cannot affect results.
    """

    capacity = 1

    def __init__(self, evaluator: Evaluator) -> None:
        super().__init__(evaluator)
        self._pending: dict[int, tuple[tuple, np.random.SeedSequence,
                                       int | None]] = {}
        self._next_handle = 0

    def submit(self, arch, seed: np.random.SeedSequence,
               epochs: int | None = None) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._pending[handle] = (tuple(arch), seed, epochs)
        obs.counter_add("parallel/tasks_dispatched")
        return handle

    def gather(self, handle: int) -> EvaluationResult:
        arch, seed, epochs = self._pending.pop(handle)
        result = _evaluate_task(self.evaluator, arch, seed, epochs)
        obs.counter_add("parallel/tasks_completed")
        return result

    def cancel(self, handle: int) -> None:
        del self._pending[handle]
        obs.counter_add("parallel/tasks_cancelled")


def _evaluate_task(evaluator: Evaluator, arch,
                   seed: np.random.SeedSequence,
                   epochs: int | None = None) -> EvaluationResult:
    """The single definition of how a task seed becomes an evaluation —
    shared by workers, the serial backend, and every fallback path. A
    task carrying an epoch budget routes to ``evaluate_at`` (the
    multi-fidelity ask); the evaluator decides whether it can answer."""
    if epochs is None:
        return evaluator.evaluate(tuple(arch), np.random.default_rng(seed))
    return evaluator.evaluate_at(tuple(arch), epochs,
                                 np.random.default_rng(seed))


def _worker_main(conn) -> None:
    """Worker process loop: receive pickled evaluator, then tasks.

    Messages are length-prefixed pickle bytes (``send_bytes``) so the
    parent can meter IPC volume. Any exception inside ``evaluate`` is
    reported as an ``("error", ...)`` message; the worker itself only
    exits on EOF, a ``None`` sentinel, or an unreportable failure.
    """
    try:
        evaluator = pickle.loads(conn.recv_bytes())
    except (EOFError, OSError):
        return
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            return
        msg = pickle.loads(payload)
        if msg is None:
            return
        handle, arch, seed, epochs = msg
        try:
            result = _evaluate_task(evaluator, arch, seed, epochs)
            out = ("ok", handle, result)
        except Exception as exc:
            out = ("error", handle,
                   f"{type(exc).__name__}: {exc}", traceback.format_exc())
        try:
            blob = pickle.dumps(out)
        except Exception as exc:  # unpicklable result: report, keep worker
            blob = pickle.dumps(("error", handle,
                                 f"result not picklable: {exc}", ""))
        try:
            conn.send_bytes(blob)
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Task:
    """Parent-side bookkeeping for one submitted evaluation."""

    handle: int
    arch: tuple
    seed: np.random.SeedSequence
    epochs: int | None = None
    attempts: int = 0
    worker: "_Worker | None" = None
    dispatched_at: float = field(default=0.0)
    #: Set by ``cancel``. A task still running on a worker then has its
    #: result (or fault) discarded when it comes back.
    cancelled: bool = False


class _Worker:
    """One pool process plus its duplex pipe."""

    def __init__(self, ctx, evaluator_blob: bytes, index: int) -> None:
        self.index = index
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child_conn,),
                                   daemon=True, name=f"repro-eval-{index}")
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.conn.send_bytes(evaluator_blob)
        self.task: _Task | None = None

    def kill(self) -> None:
        try:
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck kill
                self.process.kill()
                self.process.join(timeout=2.0)
        finally:
            self.conn.close()


class ParallelEvaluator(EvaluationBackend):
    """Fan ``Evaluator.evaluate`` calls out to a process pool.

    Parameters
    ----------
    evaluator:
        The (picklable) evaluator; shipped to each worker once at startup.
    n_workers:
        Pool size. Real speedup requires evaluations whose compute
        dominates the ~0.5 ms/task IPC cost (see BENCH_core.json's
        ``parallel_search_*`` entries).
    task_timeout:
        Per-task wall-clock budget in seconds; a worker exceeding it is
        terminated and the task retried. ``None`` disables timeouts.
    max_retries:
        How many times a task is re-dispatched (always onto a fresh
        worker) after a crash, raise, or timeout before the failure
        surfaces as an :class:`EvaluationResult`.

    Workers start with ``fork`` where available (no re-import, instant
    startup), else with ``spawn``. A task whose retries run out for a
    non-timeout reason gets one guarded in-process attempt.
    """

    def __init__(self, evaluator: Evaluator, n_workers: int = 2, *,
                 task_timeout: float | None = None,
                 max_retries: int = 2) -> None:
        super().__init__(evaluator)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, "
                             f"got {task_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.n_workers = int(n_workers)
        self.task_timeout = task_timeout
        self.max_retries = int(max_retries)
        self.capacity = 2 * self.n_workers
        self._tasks: dict[int, _Task] = {}
        self._done: dict[int, EvaluationResult] = {}
        self._queue: deque[_Task] = deque()
        self._workers: list[_Worker] = []
        self._next_handle = 0
        self._next_worker_index = 0
        self._degraded = False
        self._closed = False
        self._busy_s = 0.0
        self._created_at = time.monotonic()
        try:
            self._ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else "spawn")
            self._evaluator_blob = pickle.dumps(evaluator)
            obs.counter_add("parallel/pickle_bytes_out",
                            len(self._evaluator_blob) * self.n_workers)
            for _ in range(self.n_workers):
                self._workers.append(self._spawn_worker())
        except Exception:
            # Platform without usable process support, unpicklable
            # evaluator, resource exhaustion: run everything in-process.
            self._teardown_workers()
            self._degrade()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def submit(self, arch, seed: np.random.SeedSequence,
               epochs: int | None = None) -> int:
        if self._closed:
            raise RuntimeError("backend is closed")
        handle = self._next_handle
        self._next_handle += 1
        task = _Task(handle=handle, arch=tuple(arch), seed=seed,
                     epochs=epochs)
        self._tasks[handle] = task
        obs.counter_add("parallel/tasks_dispatched")
        if not self._degraded:
            self._queue.append(task)
            self._dispatch_pending()
        return handle

    def gather(self, handle: int) -> EvaluationResult:
        if handle not in self._tasks and handle not in self._done:
            raise KeyError(f"unknown task handle {handle}")
        while handle not in self._done:
            if self._degraded:
                self._run_degraded(self._tasks[handle])
            else:
                self._pump()
        self._tasks.pop(handle, None)
        obs.counter_add("parallel/tasks_completed")
        return self._done.pop(handle)

    def cancel(self, handle: int) -> None:
        # A running task keeps its worker until it finishes: killing the
        # worker would cost a fork plus warm-up and reset its memory
        # high-water mark. _receive/_replace_worker discard what it
        # sends back.
        task = self._tasks.pop(handle)
        task.cancelled = True
        self._done.pop(handle, None)
        if task in self._queue:
            self._queue.remove(task)
        obs.counter_add("parallel/tasks_cancelled")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        elapsed = time.monotonic() - self._created_at
        if self._workers and elapsed > 0:
            obs.gauge_set("parallel/worker_utilization",
                          self._busy_s / (self.n_workers * elapsed))
        self._teardown_workers()

    # ------------------------------------------------------------------
    # Pool mechanics
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        worker = _Worker(self._ctx, self._evaluator_blob,
                         self._next_worker_index)
        self._next_worker_index += 1
        return worker

    def _teardown_workers(self) -> None:
        for worker in self._workers:
            try:
                worker.kill()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._workers.clear()

    def _degrade(self) -> None:
        """Switch to in-process evaluation for every remaining task."""
        self._degraded = True
        obs.counter_add("parallel/serial_fallbacks")

    def _run_degraded(self, task: _Task) -> None:
        try:
            result = _evaluate_task(self.evaluator, task.arch, task.seed,
                                    task.epochs)
        except Exception as exc:
            result = self._failure_result(
                task, f"degraded in-process evaluation raised: {exc}")
        self._done[task.handle] = result

    def _dispatch_pending(self) -> None:
        for worker in self._workers:
            if worker.task is None and self._queue:
                task = self._queue.popleft()
                self._send_task(worker, task)

    def _send_task(self, worker: _Worker, task: _Task) -> None:
        blob = pickle.dumps((task.handle, task.arch, task.seed,
                             task.epochs))
        obs.counter_add("parallel/pickle_bytes_out", len(blob))
        task.worker = worker
        task.dispatched_at = time.monotonic()
        worker.task = task
        try:
            worker.conn.send_bytes(blob)
        except (BrokenPipeError, OSError):
            self._replace_worker(worker, task, "worker pipe broken at send")

    def _pump(self) -> None:
        """Advance the pool: collect results, expire timeouts, refill."""
        inflight = [w for w in self._workers if w.task is not None]
        if not inflight:
            if self._queue:
                self._dispatch_pending()
                if any(w.task is not None for w in self._workers):
                    return
            # No worker accepted work — pool is unusable.
            self._degrade()
            return
        timeout = self._next_deadline_in(inflight)
        ready = mp_connection.wait([w.conn for w in inflight],
                                   timeout=timeout)
        conn_to_worker = {w.conn: w for w in inflight}
        for conn in ready:
            self._receive(conn_to_worker[conn])
        self._expire_timeouts()
        self._dispatch_pending()

    def _next_deadline_in(self, inflight: list[_Worker]) -> float | None:
        if self.task_timeout is None:
            return None
        now = time.monotonic()
        remaining = [w.task.dispatched_at + self.task_timeout - now
                     for w in inflight]
        return max(min(remaining), 0.0)

    def _receive(self, worker: _Worker) -> None:
        task = worker.task
        try:
            payload = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._replace_worker(worker, task, "worker process died")
            return
        obs.counter_add("parallel/pickle_bytes_in", len(payload))
        msg = pickle.loads(payload)
        if task is not None:
            self._busy_s += time.monotonic() - task.dispatched_at
        if msg[0] == "ok":
            _, handle, result = msg
            worker.task = None
            if task is not None and handle == task.handle \
                    and not task.cancelled:
                self._done[handle] = result
        else:
            _, handle, error = msg[0], msg[1], msg[2]
            # A raising evaluator may have corrupted worker state (C
            # extensions, leaked globals): retry on a fresh process.
            self._replace_worker(worker, task,
                                 f"worker raised: {error}")

    def _expire_timeouts(self) -> None:
        if self.task_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            task = worker.task
            if task is not None and \
                    now - task.dispatched_at > self.task_timeout:
                obs.counter_add("parallel/timeouts")
                self._replace_worker(
                    worker, task,
                    f"task exceeded timeout of {self.task_timeout:g}s",
                    timed_out=True)

    def _replace_worker(self, worker: _Worker, task: _Task | None,
                        reason: str, *, timed_out: bool = False) -> None:
        worker.kill()
        obs.counter_add("parallel/workers_restarted")
        try:
            replacement = self._spawn_worker()
        except Exception:
            self._workers.remove(worker)
            if not self._workers:
                self._degrade()
        else:
            self._workers[self._workers.index(worker)] = replacement
        if task is None or task.cancelled:
            return
        task.worker = None
        task.attempts += 1
        if task.attempts <= self.max_retries:
            obs.counter_add("parallel/retries")
            self._queue.appendleft(task)
        else:
            self._finalize_failure(task, reason, timed_out=timed_out)

    def _finalize_failure(self, task: _Task, reason: str, *,
                          timed_out: bool) -> None:
        # A timed-out evaluator would hang the parent too; only crash /
        # raise exhaustion earns the guarded in-process attempt.
        if not timed_out:
            obs.counter_add("parallel/serial_fallbacks")
            try:
                result = _evaluate_task(self.evaluator, task.arch,
                                        task.seed, task.epochs)
                result.metadata["recovered"] = "in-process"
                self._done[task.handle] = result
                return
            except Exception as exc:
                reason = f"{reason}; in-process fallback raised: {exc}"
        self._done[task.handle] = self._failure_result(task, reason)

    def _failure_result(self, task: _Task, reason: str) -> EvaluationResult:
        obs.counter_add("parallel/task_failures")
        return EvaluationResult(
            architecture=task.arch, reward=FAILURE_REWARD, duration=0.0,
            n_parameters=0,
            metadata={"failed": True, "error": reason,
                      "attempts": task.attempts})


class TaskFeed:
    """Sequenced ask -> submit -> gather pipeline for the executors.

    Preserves serial ask order: proposal ``k`` is always the ``k``-th
    ``algorithm.ask()`` and carries task stream ``k``. Each
    :meth:`next_result` asks once if nothing is in flight, then keeps
    asking ahead, up to ``backend.capacity`` evaluations in flight,
    while ``algorithm.can_ask_ahead()`` holds, i.e. while the next
    proposal reads no pending tell. That is every ask of random search
    and the random initial population of aging evolution and the GA.
    Every other ask happens at depth 1, when the event loop needs it.
    :meth:`cancel` withdraws the look-ahead a finished campaign never
    reads.
    """

    def __init__(self, algorithm, backend: EvaluationBackend,
                 task_root: np.random.SeedSequence) -> None:
        self.algorithm = algorithm
        self.backend = backend
        self.task_root = as_seed_sequence(task_root)
        self._inflight: deque[tuple[tuple, int]] = deque()
        self._n_issued = 0

    def next_sequence(self) -> np.random.SeedSequence:
        seq = child_sequence(self.task_root, self._n_issued)
        self._n_issued += 1
        return seq

    def next_result(self):
        """The next ``(architecture, EvaluationResult)`` in ask order."""
        if not self._inflight:
            self._submit(self.algorithm.ask())
        while len(self._inflight) < self.backend.capacity \
                and self.algorithm.can_ask_ahead():
            self._submit(self.algorithm.ask())
        arch, handle = self._inflight.popleft()
        return arch, self.backend.gather(handle)

    def _submit(self, arch) -> None:
        arch = tuple(arch)
        handle = self.backend.submit(arch, self.next_sequence())
        self._inflight.append((arch, handle))

    def cancel(self) -> None:
        """Withdraw every in-flight task: look-ahead that no campaign
        event will read once the run stops. Record :meth:`state_dict`
        first if the campaign is to resume."""
        while self._inflight:
            _, handle = self._inflight.popleft()
            self.backend.cancel(handle)

    # ------------------------------------------------------------------
    # Checkpointing (docs/CHECKPOINTING.md)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the feed's sequencing position.

        Backend handles are process-local and cannot be persisted; what
        *is* persisted is the pair that makes them reproducible — the
        task counter and the architectures still in flight. Because task
        ``k`` always receives seed stream ``(root, k)``, re-submitting
        the in-flight architectures after a restore yields bitwise the
        same results the lost handles would have.
        """
        return {"n_issued": self._n_issued,
                "inflight": [list(arch) for arch, _ in self._inflight]}

    def load_state_dict(self, state: dict) -> None:
        """Re-create in-flight work captured by :meth:`state_dict`.

        Must be called on a fresh feed (same algorithm/backend/task root):
        rewinds the counter to before the in-flight proposals, then
        re-submits each with its original task stream. The restored
        algorithm's RNG already sits *past* these asks, so they are not
        re-asked — only re-dispatched.
        """
        if self._n_issued or self._inflight:
            raise RuntimeError("can only restore into a fresh TaskFeed")
        inflight = state["inflight"]
        self._n_issued = int(state["n_issued"]) - len(inflight)
        if self._n_issued < 0:
            raise ValueError("corrupt feed state: more in-flight tasks "
                             "than issued sequences")
        for arch in inflight:
            self._submit(arch)


def evaluation_backend(evaluator: Evaluator, workers: int | None,
                       **kwargs) -> EvaluationBackend | None:
    """Backend for a ``--workers`` value: ``None`` -> no backend (legacy
    in-loop evaluation), ``0`` -> :class:`SerialEvaluator`, ``n >= 1`` ->
    :class:`ParallelEvaluator` with ``n`` workers."""
    if workers is None:
        return None
    if workers <= 0:
        return SerialEvaluator(evaluator)
    return ParallelEvaluator(evaluator, n_workers=workers, **kwargs)
