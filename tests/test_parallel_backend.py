"""Unit tests of the evaluation backends (repro.hpc.parallel).

The differential serial-equivalence suite lives in
tests/test_parallel_equivalence.py and fault injection in
tests/test_parallel_faults.py; here: protocol mechanics, the factory,
ask-ahead feeding, cancellation, pool observability, and PacedEvaluator.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import obs
from repro.hpc import (
    ParallelEvaluator,
    SerialEvaluator,
    evaluation_backend,
)
from repro.hpc.parallel import TaskFeed
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    DistributedRL,
    GeneticSearch,
    PacedEvaluator,
    RandomSearch,
    SurrogateEvaluator,
)
from repro.utils.rng import child_sequence, spawn_sequences


def _surrogate(space):
    return SurrogateEvaluator(space, ArchitecturePerformanceModel(space,
                                                                  seed=0))


def _tasks(space, n):
    rng = np.random.default_rng(0)
    return ([space.random_architecture(rng) for _ in range(n)],
            spawn_sequences(1, n))


class TestSerialEvaluator:
    def test_matches_direct_evaluation(self, small_space):
        evaluator = _surrogate(small_space)
        backend = SerialEvaluator(evaluator)
        archs, seeds = _tasks(small_space, 4)
        handles = [backend.submit(a, s) for a, s in zip(archs, seeds)]
        results = [backend.gather(h) for h in handles]
        expected = [_surrogate(small_space).evaluate(
            a, np.random.default_rng(np.random.SeedSequence(
                entropy=s.entropy, spawn_key=s.spawn_key)))
            for a, s in zip(archs, seeds)]
        assert [r.reward for r in results] == [e.reward for e in expected]
        assert [r.duration for r in results] == \
            [e.duration for e in expected]

    def test_gather_order_is_free(self, small_space):
        backend = SerialEvaluator(_surrogate(small_space))
        archs, seeds = _tasks(small_space, 3)
        handles = [backend.submit(a, s) for a, s in zip(archs, seeds)]
        out_of_order = {h: backend.gather(h) for h in reversed(handles)}
        fresh = SerialEvaluator(_surrogate(small_space))
        in_order = {h: fresh.gather(h) for h in
                    [fresh.submit(a, s) for a, s in zip(archs, seeds)]}
        assert {h: r.reward for h, r in out_of_order.items()} == \
            {h: r.reward for h, r in in_order.items()}


class TestParallelEvaluator:
    def test_out_of_order_gather(self, small_space):
        archs, seeds = _tasks(small_space, 6)
        with ParallelEvaluator(_surrogate(small_space),
                               n_workers=2) as backend:
            handles = [backend.submit(a, s) for a, s in zip(archs, seeds)]
            pooled = [backend.gather(h) for h in reversed(handles)]
        serial = SerialEvaluator(_surrogate(small_space))
        expected = [serial.gather(h) for h in reversed(
            [serial.submit(a, s) for a, s in zip(archs, seeds)])]
        assert [r.reward for r in pooled] == [e.reward for e in expected]

    def test_invalid_parameters(self, small_space):
        evaluator = _surrogate(small_space)
        with pytest.raises(ValueError, match="n_workers"):
            ParallelEvaluator(evaluator, n_workers=0)
        with pytest.raises(ValueError, match="task_timeout"):
            ParallelEvaluator(evaluator, n_workers=1, task_timeout=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ParallelEvaluator(evaluator, n_workers=1, max_retries=-1)

    def test_pool_metrics_recorded(self, small_space):
        obs.enable()
        archs, seeds = _tasks(small_space, 4)
        with ParallelEvaluator(_surrogate(small_space),
                               n_workers=2) as backend:
            for h in [backend.submit(a, s) for a, s in zip(archs, seeds)]:
                backend.gather(h)
        counters = obs.get_registry().counters
        assert counters["parallel/tasks_dispatched"].value == 4
        assert counters["parallel/tasks_completed"].value == 4
        assert counters["parallel/pickle_bytes_out"].value > 0
        assert counters["parallel/pickle_bytes_in"].value > 0
        gauges = obs.get_registry().gauges
        assert 0.0 <= gauges["parallel/worker_utilization"].last <= 1.0

    def test_capacity_scales_with_workers(self, small_space):
        evaluator = _surrogate(small_space)
        with ParallelEvaluator(evaluator, n_workers=3) as backend:
            assert backend.capacity == 6
        assert SerialEvaluator(evaluator).capacity == 1


class TestCancel:
    def test_serial_forgets_the_task(self, small_space):
        backend = SerialEvaluator(_surrogate(small_space))
        archs, seeds = _tasks(small_space, 2)
        dropped, kept = [backend.submit(a, s) for a, s in zip(archs, seeds)]
        backend.cancel(dropped)
        with pytest.raises(KeyError):
            backend.gather(dropped)
        with pytest.raises(KeyError):
            backend.cancel(dropped)
        reference = SerialEvaluator(_surrogate(small_space))
        assert backend.gather(kept).reward == reference.gather(
            reference.submit(archs[1], seeds[1])).reward

    def test_pool_drops_queued_running_and_done_tasks(self, small_space):
        """One worker: task 0 runs, 1-3 queue. Cancelling 1 (queued) and
        0 (running) leaves 2 and 3, bitwise the serial results; a
        finished task cancelled before its gather is discarded too."""
        archs, seeds = _tasks(small_space, 5)
        serial = SerialEvaluator(_surrogate(small_space))
        expected = [serial.gather(serial.submit(a, s))
                    for a, s in zip(archs, seeds)]
        obs.enable()
        with ParallelEvaluator(_surrogate(small_space),
                               n_workers=1) as backend:
            handles = [backend.submit(a, s)
                       for a, s in zip(archs[:4], seeds[:4])]
            backend.cancel(handles[1])
            backend.cancel(handles[0])
            assert len(backend._queue) == 2
            assert backend.gather(handles[2]).reward == expected[2].reward
            assert backend.gather(handles[3]).reward == expected[3].reward
            last = backend.submit(archs[4], seeds[4])
            while last not in backend._done:
                backend._pump()
            backend.cancel(last)
            with pytest.raises(KeyError):
                backend.gather(handles[0])
            assert not (backend._tasks or backend._queue or backend._done)
        counters = obs.get_registry().counters
        assert counters["parallel/tasks_cancelled"].value == 3
        assert counters["parallel/tasks_completed"].value == 2

    def test_nothing_recorded_with_obs_off(self, small_space):
        archs, seeds = _tasks(small_space, 1)
        with ParallelEvaluator(_surrogate(small_space),
                               n_workers=1) as backend:
            backend.cancel(backend.submit(archs[0], seeds[0]))
        backend = SerialEvaluator(_surrogate(small_space))
        backend.cancel(backend.submit(archs[0], seeds[0]))
        assert not obs.get_registry().counters


class TestEvaluationBackendFactory:
    def test_workers_mapping(self, small_space):
        evaluator = _surrogate(small_space)
        assert evaluation_backend(evaluator, None) is None
        serial = evaluation_backend(evaluator, 0)
        assert isinstance(serial, SerialEvaluator)
        pool = evaluation_backend(evaluator, 2)
        assert isinstance(pool, ParallelEvaluator)
        assert pool.n_workers == 2
        pool.close()


class _FourSlotBackend(SerialEvaluator):
    """Serial evaluation behind a pool-sized capacity, counting submits."""

    capacity = 4

    def __init__(self, evaluator) -> None:
        super().__init__(evaluator)
        self.n_submitted = 0

    def submit(self, arch, seed, epochs=None):
        self.n_submitted += 1
        return super().submit(arch, seed, epochs)


def _asks_ahead(algorithm, n):
    """``can_ask_ahead()`` before each of ``n`` asks, every ask told at
    once."""
    seen = []
    for _ in range(n):
        seen.append(algorithm.can_ask_ahead())
        algorithm.tell(algorithm.ask(), 0.5)
    return seen


def _submits_per_result(feed, backend, n):
    """Tasks submitted by each of ``n`` ``next_result()`` calls, every
    result told before the next call."""
    counts = []
    for _ in range(n):
        before = backend.n_submitted
        arch, result = feed.next_result()
        feed.algorithm.tell(arch, result.reward)
        counts.append(backend.n_submitted - before)
    return counts


class TestTaskFeed:
    def test_speculative_algorithms_fill_the_pool(self, small_space):
        """Random search always asks ahead: the first result fills the
        backend, every later one tops it up by one."""
        assert _asks_ahead(RandomSearch(small_space, rng=0), 6) == [True] * 6
        backend = _FourSlotBackend(_surrogate(small_space))
        rs = RandomSearch(small_space, rng=0)
        feed = TaskFeed(rs, backend, np.random.SeedSequence(3))
        assert _submits_per_result(feed, backend, 4) == [4, 1, 1, 1]
        assert len(backend._pending) == 3

    def test_feedback_algorithms_run_at_depth_one(self, small_space):
        """AE and the GA ask ahead for exactly their random initial
        population; after it, and always for RL, the feed asks one
        proposal per result."""
        for algorithm in (
                AgingEvolution(small_space, rng=0, population_size=4,
                               sample_size=2),
                GeneticSearch(small_space, rng=0, population_size=4,
                              tournament_size=2)):
            assert _asks_ahead(algorithm, 8) == [True] * 4 + [False] * 4
        assert not DistributedRL(small_space, rng=0, n_agents=2,
                                 workers_per_agent=2).can_ask_ahead()
        backend = _FourSlotBackend(_surrogate(small_space))
        ae = AgingEvolution(small_space, rng=0, population_size=4,
                            sample_size=2)
        feed = TaskFeed(ae, backend, np.random.SeedSequence(3))
        # Priming: four asks on the first result, none while they drain;
        # then depth 1.
        assert _submits_per_result(feed, backend, 7) == \
            [4, 0, 0, 0, 1, 1, 1]
        assert not backend._pending

    def test_task_seeds_follow_child_sequence(self, small_space):
        backend = SerialEvaluator(_surrogate(small_space))
        root = np.random.SeedSequence(3)
        feed = TaskFeed(RandomSearch(small_space, rng=0), backend, root)
        seqs = [feed.next_sequence() for _ in range(3)]
        assert [s.spawn_key for s in seqs] == \
            [child_sequence(root, k).spawn_key for k in range(3)]


class TestPacedEvaluator:
    def test_results_are_bitwise_those_of_the_inner(self, small_space):
        inner = _surrogate(small_space)
        paced = PacedEvaluator(_surrogate(small_space), pace_seconds=0.0)
        arch = small_space.random_architecture(np.random.default_rng(0))
        a = inner.evaluate(arch, np.random.default_rng(1))
        b = paced.evaluate(arch, np.random.default_rng(1))
        assert (a.reward, a.duration) == (b.reward, b.duration)

    def test_pace_is_paid_in_wall_clock(self, small_space):
        paced = PacedEvaluator(_surrogate(small_space), pace_seconds=0.05)
        arch = small_space.random_architecture(np.random.default_rng(0))
        start = time.perf_counter()
        paced.evaluate(arch, np.random.default_rng(1))
        assert time.perf_counter() - start >= 0.05

    def test_negative_pace_rejected(self, small_space):
        with pytest.raises(ValueError, match="pace_seconds"):
            PacedEvaluator(_surrogate(small_space), pace_seconds=-0.1)
