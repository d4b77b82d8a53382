"""Fault injection for the process-pool backend.

A worker that raises, dies, or hangs must never deadlock the caller:
every submitted task eventually gathers either a recovered result
(retry on a fresh worker, or guarded in-process fallback) or a *failure*
EvaluationResult carrying the reason — and a search driving the event
queue over a faulty backend must still run to completion.

The fault evaluators live at module level so they pickle into workers.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import obs
from repro.hpc import (
    ParallelEvaluator,
    SerialEvaluator,
    ThetaPartition,
    run_asynchronous_search,
)
from repro.hpc.parallel import FAILURE_REWARD
from repro.nas import (
    ArchitecturePerformanceModel,
    RandomSearch,
    SurrogateEvaluator,
)
from repro.nas.evaluation import Evaluator


def _surrogate(space):
    return SurrogateEvaluator(space, ArchitecturePerformanceModel(space,
                                                                  seed=0))


class CrashingEvaluator(Evaluator):
    """Raises on every evaluation, in any process."""

    def evaluate(self, arch, rng=None):
        raise RuntimeError("injected evaluation crash")


class DyingEvaluator(Evaluator):
    """Kills its worker process outright (no exception to report)."""

    def __init__(self, space, flag_path):
        super().__init__(space)
        self.flag_path = str(flag_path)
        self._inner = _surrogate(space)

    def evaluate(self, arch, rng=None):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w", encoding="utf-8") as fh:
                fh.write("died once\n")
            os._exit(13)
        return self._inner.evaluate(arch, rng)


class FlakyEvaluator(Evaluator):
    """Raises on the first attempt ever, then recovers (the flag file
    persists across the fresh worker a retry gets)."""

    def __init__(self, space, flag_path):
        super().__init__(space)
        self.flag_path = str(flag_path)
        self._inner = _surrogate(space)

    def evaluate(self, arch, rng=None):
        if not os.path.exists(self.flag_path):
            with open(self.flag_path, "w", encoding="utf-8") as fh:
                fh.write("failed once\n")
            raise RuntimeError("transient failure")
        return self._inner.evaluate(arch, rng)


class HangingEvaluator(Evaluator):
    """Blocks far past any reasonable task timeout."""

    def evaluate(self, arch, rng=None):
        time.sleep(60.0)
        raise AssertionError("unreachable")


class SelectivelyCrashingEvaluator(Evaluator):
    """Deterministically raises for ~a quarter of architectures."""

    def __init__(self, space):
        super().__init__(space)
        self._inner = _surrogate(space)

    def evaluate(self, arch, rng=None):
        if sum(arch) % 4 == 0:
            raise RuntimeError(f"poisoned architecture {tuple(arch)}")
        return self._inner.evaluate(arch, rng)


class SelectivelyHangingEvaluator(Evaluator):
    """Hangs on the poisoned quarter of architectures, like
    SelectivelyCrashingEvaluator raises on it."""

    def __init__(self, space):
        super().__init__(space)
        self._inner = _surrogate(space)

    def evaluate(self, arch, rng=None):
        if sum(arch) % 4 == 0:
            time.sleep(60.0)
        return self._inner.evaluate(arch, rng)


class UnpicklableEvaluator(Evaluator):
    """Cannot be shipped to a worker process at all."""

    def __init__(self, space):
        super().__init__(space)
        self._inner = _surrogate(space)
        self.hook = lambda r: r  # lambdas don't pickle

    def evaluate(self, arch, rng=None):
        return self.hook(self._inner.evaluate(arch, rng))


def _an_arch(space, seed=0):
    return space.random_architecture(np.random.default_rng(seed))


def _a_seed():
    return np.random.SeedSequence(7)


class TestFailureSurfacesAsResult:
    def test_persistent_raise_yields_failure_result(self, small_space):
        with ParallelEvaluator(CrashingEvaluator(small_space), n_workers=1,
                               max_retries=1) as backend:
            handle = backend.submit(_an_arch(small_space), _a_seed())
            result = backend.gather(handle)
        assert result.metadata["failed"] is True
        assert result.reward == FAILURE_REWARD
        assert "injected evaluation crash" in result.metadata["error"]
        # The guarded in-process fallback ran (and failed) too.
        assert "in-process fallback raised" in result.metadata["error"]

    def test_hang_is_killed_at_timeout(self, small_space):
        start = time.monotonic()
        with ParallelEvaluator(HangingEvaluator(small_space), n_workers=1,
                               task_timeout=0.3, max_retries=1,
                               ) as backend:
            handle = backend.submit(_an_arch(small_space), _a_seed())
            result = backend.gather(handle)
        elapsed = time.monotonic() - start
        assert result.metadata["failed"] is True
        assert "timeout" in result.metadata["error"]
        # Two attempts at 0.3 s each, not 60 s — and, critically, no
        # in-process fallback (that would hang the parent for 60 s).
        assert elapsed < 10.0

    def test_worker_death_retries_on_fresh_worker(self, small_space,
                                                  tmp_path):
        evaluator = DyingEvaluator(small_space, tmp_path / "died.flag")
        arch, seed = _an_arch(small_space), _a_seed()
        with ParallelEvaluator(evaluator, n_workers=1,
                               max_retries=2) as backend:
            result = backend.gather(backend.submit(arch, seed))
        expected = _surrogate(small_space).evaluate(
            arch, np.random.default_rng(_a_seed()))
        assert result.reward == expected.reward
        assert "failed" not in result.metadata

    def test_transient_raise_recovers_via_retry(self, small_space,
                                                tmp_path):
        evaluator = FlakyEvaluator(small_space, tmp_path / "flaky.flag")
        arch, seed = _an_arch(small_space), _a_seed()
        obs.enable()
        with ParallelEvaluator(evaluator, n_workers=1,
                               max_retries=2) as backend:
            result = backend.gather(backend.submit(arch, seed))
        assert "failed" not in result.metadata
        registry = obs.get_registry()
        assert registry.counters["parallel/retries"].value >= 1
        assert registry.counters["parallel/workers_restarted"].value >= 1


def _poisoned_and_clean(space):
    """One architecture the selective evaluators fault on, one they
    evaluate."""
    rng = np.random.default_rng(0)
    archs = [space.random_architecture(rng) for _ in range(64)]
    return (next(a for a in archs if sum(a) % 4 == 0),
            next(a for a in archs if sum(a) % 4 != 0))


class TestCancelledTaskFaults:
    """A cancelled task that raises, kills its worker, or hangs past the
    timeout is never retried and never becomes a failure result; the
    next task on the pool gathers its ordinary result."""

    @pytest.mark.parametrize("fault", ["raise", "die", "hang"])
    def test_fault_of_a_cancelled_task_is_dropped(self, small_space,
                                                  tmp_path, fault):
        poisoned, clean = _poisoned_and_clean(small_space)
        if fault == "raise":
            evaluator = SelectivelyCrashingEvaluator(small_space)
        elif fault == "die":
            evaluator = DyingEvaluator(small_space, tmp_path / "died.flag")
        else:
            evaluator = SelectivelyHangingEvaluator(small_space)
        obs.enable()
        start = time.monotonic()
        with ParallelEvaluator(evaluator, n_workers=1, max_retries=2,
                               task_timeout=0.5 if fault == "hang"
                               else None) as backend:
            doomed = backend.submit(poisoned, _a_seed())
            backend.cancel(doomed)
            result = backend.gather(backend.submit(clean, _a_seed()))
            assert not (backend._tasks or backend._queue or backend._done)
        assert time.monotonic() - start < 10.0
        expected = _surrogate(small_space).evaluate(
            clean, np.random.default_rng(_a_seed()))
        assert result.reward == expected.reward
        assert "failed" not in result.metadata
        counters = obs.get_registry().counters
        assert counters["parallel/workers_restarted"].value == 1
        assert counters["parallel/tasks_cancelled"].value == 1
        for name in ("parallel/retries", "parallel/task_failures",
                     "parallel/serial_fallbacks"):
            assert name not in counters, name


class TestGracefulDegradation:
    def test_unpicklable_evaluator_degrades_to_in_process(self,
                                                          small_space):
        evaluator = UnpicklableEvaluator(small_space)
        arch, seed = _an_arch(small_space), _a_seed()
        with ParallelEvaluator(evaluator, n_workers=2) as backend:
            result = backend.gather(backend.submit(arch, seed))
        expected = _surrogate(small_space).evaluate(
            arch, np.random.default_rng(_a_seed()))
        assert result.reward == expected.reward

    def test_degraded_mode_matches_serial_backend(self, small_space):
        archs = [_an_arch(small_space, s) for s in range(5)]
        seeds = [np.random.SeedSequence(s) for s in range(5)]
        with ParallelEvaluator(UnpicklableEvaluator(small_space),
                               n_workers=2) as pool:
            pooled = [pool.gather(pool.submit(a, s))
                      for a, s in zip(archs, seeds)]
        serial = SerialEvaluator(_surrogate(small_space))
        reference = [serial.gather(serial.submit(a, s))
                     for a, s in zip(archs, seeds)]
        assert [r.reward for r in pooled] == \
            [r.reward for r in reference]

    def test_unknown_handle_rejected(self, small_space):
        with ParallelEvaluator(_surrogate(small_space),
                               n_workers=1) as backend:
            with pytest.raises(KeyError):
                backend.gather(999)
        serial = SerialEvaluator(_surrogate(small_space))
        with pytest.raises(KeyError):
            serial.gather(999)

    def test_submit_after_close_rejected(self, small_space):
        backend = ParallelEvaluator(_surrogate(small_space), n_workers=1)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.submit(_an_arch(small_space), _a_seed())


class TestEventQueueSurvivesFaults:
    def test_search_completes_over_faulty_backend(self, small_space):
        """Failure results flow through the event queue as ordinary
        completions (punishment reward), never as a deadlock."""
        evaluator = SelectivelyCrashingEvaluator(small_space)
        rs = RandomSearch(small_space, rng=0)
        partition = ThetaPartition(n_nodes=4, wall_seconds=1200.0)
        with ParallelEvaluator(evaluator, n_workers=2,
                               max_retries=0) as backend:
            tracker = run_asynchronous_search(rs, evaluator, partition,
                                              rng=5, backend=backend)
        rewards = [r.reward for r in tracker.records]
        assert tracker.n_evaluations > 0
        assert FAILURE_REWARD in rewards, \
            "no poisoned architecture was ever drawn; test is vacuous"
        assert any(r != FAILURE_REWARD for r in rewards)
        # The queue drained to the wall limit despite the faults.
        assert all(r.end_time <= partition.wall_seconds
                   for r in tracker.records)
