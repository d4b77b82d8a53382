"""Differential serial-equivalence suite for the parallel backend.

THE correctness contract of repro.hpc.parallel (docs/PARALLELISM.md):
for a fixed seed, routing evaluations through a process pool must leave
every recorded quantity bitwise identical to the in-process serial
backend — for each search algorithm, at any worker count, regardless of
completion order. Equality below is exact (`==` on floats), never
approximate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.hpc import (
    ClusterConfig,
    ParallelEvaluator,
    SerialEvaluator,
    ThetaPartition,
    run_search,
)
from repro.hpc.theta import rl_node_allocation
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    DistributedRL,
    GeneticSearch,
    RandomSearch,
    SurrogateEvaluator,
)

WORKER_COUNTS = (1, 2, 4)
PARTITION = ThetaPartition(n_nodes=6, wall_seconds=1500.0)
RL_PARTITION = ThetaPartition(n_nodes=8, wall_seconds=1200.0)


def _make_algorithm(name, space):
    if name == "rs":
        return RandomSearch(space, rng=0), PARTITION
    if name == "ae":
        return AgingEvolution(space, rng=3, population_size=8,
                              sample_size=3), PARTITION
    if name == "ga":
        return GeneticSearch(space, rng=3, population_size=8), PARTITION
    wpa = rl_node_allocation(RL_PARTITION.n_nodes, 2).workers_per_agent
    return DistributedRL(space, rng=0, n_agents=2,
                         workers_per_agent=wpa), RL_PARTITION


def _run(small_space, name, workers, cluster=None):
    """One full search with a fresh evaluator/algorithm/backend."""
    evaluator = SurrogateEvaluator(
        small_space, ArchitecturePerformanceModel(small_space, seed=0))
    algorithm, partition = _make_algorithm(name, small_space)
    if workers is None:
        backend = SerialEvaluator(evaluator)
    else:
        backend = ParallelEvaluator(evaluator, n_workers=workers)
    with backend:
        return run_search(algorithm, evaluator, partition, rng=5,
                          backend=backend, cluster=cluster)


def _fingerprint(tracker):
    """Everything the tracker records, exactly."""
    return {
        "records": [(r.architecture, r.reward, r.start_time, r.end_time,
                     r.node, r.n_parameters) for r in tracker.records],
        "n_failures": tracker.n_failures,
        "busy_events": tracker._busy_events,
    }


@pytest.mark.parametrize("algorithm", ["ae", "rs", "ppo", "ga"])
class TestSerialEquivalence:
    def test_pool_matches_serial_at_every_worker_count(self, small_space,
                                                       algorithm):
        reference = _fingerprint(_run(small_space, algorithm, None))
        assert reference["records"], "reference run recorded nothing"
        for workers in WORKER_COUNTS:
            parallel = _fingerprint(_run(small_space, algorithm, workers))
            assert parallel == reference, \
                f"{algorithm} diverged from serial at {workers} workers"

    def test_serial_backend_is_deterministic(self, small_space, algorithm):
        a = _fingerprint(_run(small_space, algorithm, None))
        b = _fingerprint(_run(small_space, algorithm, None))
        assert a == b


def test_ga_campaign_breeds_past_its_seed_population(small_space):
    """The GA equivalence run covers the depth-1 breeding phase, not
    just the look-ahead seeding asks."""
    evaluator = SurrogateEvaluator(
        small_space, ArchitecturePerformanceModel(small_space, seed=0))
    ga, partition = _make_algorithm("ga", small_space)
    with SerialEvaluator(evaluator) as backend:
        run_search(ga, evaluator, partition, rng=5, backend=backend)
    assert ga.generation >= 2


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("algorithm", ["rs", "ae"])
class TestCallerOwnedPoolCleanup:
    """A campaign withdraws its unread look-ahead from a pool it does
    not own: nothing stays tracked, queued or done, and the next
    campaign on that pool is the one a fresh pool would run."""

    @staticmethod
    def _campaign(space, algorithm, backend):
        if algorithm == "rs":
            search = RandomSearch(space, rng=0)
        else:
            # The paper's population: the campaign never leaves priming,
            # so every ask is look-ahead, as in the search benchmark.
            search = AgingEvolution(space, rng=3, population_size=100,
                                    sample_size=10)
        return run_search(search, backend.evaluator, PARTITION, rng=5,
                          backend=backend)

    def test_campaign_leaves_nothing_behind(self, small_space, algorithm,
                                            workers):
        evaluator = SurrogateEvaluator(
            small_space, ArchitecturePerformanceModel(small_space, seed=0))
        with ParallelEvaluator(evaluator, n_workers=workers) as fresh:
            reference = _fingerprint(
                self._campaign(small_space, algorithm, fresh))
        obs.enable()
        with ParallelEvaluator(evaluator, n_workers=workers) as pool:
            for _ in range(2):
                tracker = self._campaign(small_space, algorithm, pool)
                assert not (pool._tasks or pool._queue or pool._done)
                assert _fingerprint(tracker) == reference
        assert obs.get_registry().counters[
            "parallel/tasks_cancelled"].value > 0, \
            "no look-ahead was in flight at campaign end; test is vacuous"


class TestEquivalenceUnderFailureInjection:
    """Simulated node failures draw from the node streams, not the task
    streams — the pool must not perturb them."""

    CLUSTER = ClusterConfig(failure_rate=0.2, failure_reward=-1.0)

    @pytest.mark.parametrize("algorithm", ["rs", "ppo"])
    def test_pool_matches_serial_with_failures(self, small_space,
                                               algorithm):
        reference = _fingerprint(
            _run(small_space, algorithm, None, cluster=self.CLUSTER))
        assert reference["n_failures"] > 0, \
            "failure injection produced no failures; test is vacuous"
        for workers in (2,):
            parallel = _fingerprint(
                _run(small_space, algorithm, workers, cluster=self.CLUSTER))
            assert parallel == reference


class TestRewardBitwiseIdentity:
    def test_rewards_are_bitwise_not_just_close(self, small_space):
        serial = _run(small_space, "rs", None)
        pooled = _run(small_space, "rs", 3)
        a = np.array([r.reward for r in serial.records])
        b = np.array([r.reward for r in pooled.records])
        assert a.tobytes() == b.tobytes()

    def test_workers_kwarg_builds_equivalent_backend(self, small_space):
        """run_search(workers=N) (the CLI path) matches an explicit
        backend."""
        evaluator = SurrogateEvaluator(
            small_space, ArchitecturePerformanceModel(small_space, seed=0))
        rs = RandomSearch(small_space, rng=0)
        via_kwarg = run_search(rs, evaluator, PARTITION, rng=5, workers=2)
        reference = _run(small_space, "rs", 2)
        assert _fingerprint(via_kwarg) == _fingerprint(reference)

    def test_backend_and_workers_are_exclusive(self, small_space):
        evaluator = SurrogateEvaluator(small_space)
        rs = RandomSearch(small_space, rng=0)
        with pytest.raises(ValueError, match="not both"):
            run_search(rs, evaluator, PARTITION, rng=5, workers=2,
                       backend=SerialEvaluator(evaluator))
