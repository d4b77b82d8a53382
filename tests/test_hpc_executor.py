import hashlib
import json

import numpy as np
import pytest

from repro.hpc import (
    ClusterConfig,
    ThetaPartition,
    run_asynchronous_search,
    run_search,
    run_synchronous_rl_search,
)
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    CheckpointPolicy,
    DistributedRL,
    RandomSearch,
    SurrogateEvaluator,
)
from repro.nas.space.ops import default_operations
from repro.nas.space.search_space import StackedLSTMSpace


@pytest.fixture()
def evaluator(small_space):
    model = ArchitecturePerformanceModel(small_space, seed=0)
    return SurrogateEvaluator(small_space, model)


PARTITION = ThetaPartition(n_nodes=12, wall_seconds=2000.0)


class TestAsynchronousExecutor:
    def test_runs_and_counts(self, small_space, evaluator):
        rs = RandomSearch(small_space, rng=0)
        tracker = run_asynchronous_search(rs, evaluator, PARTITION, rng=0)
        assert tracker.n_evaluations > 0
        assert rs.n_told == tracker.n_evaluations

    def test_utilization_high_without_barriers(self, small_space, evaluator):
        rs = RandomSearch(small_space, rng=0)
        tracker = run_asynchronous_search(rs, evaluator, PARTITION, rng=0)
        assert tracker.node_utilization() > 0.8

    def test_perfect_utilization_without_overhead(self, small_space,
                                                  evaluator):
        rs = RandomSearch(small_space, rng=0)
        cluster = ClusterConfig(launch_overhead_mean=0.0)
        tracker = run_asynchronous_search(rs, evaluator, PARTITION,
                                          cluster=cluster, rng=0)
        assert tracker.node_utilization() > 0.99

    def test_deterministic(self, small_space):
        def run():
            model = ArchitecturePerformanceModel(small_space, seed=0)
            ev = SurrogateEvaluator(small_space, model)
            ae = AgingEvolution(small_space, rng=3, population_size=10,
                                sample_size=3)
            return run_asynchronous_search(ae, ev, PARTITION, rng=5)

        t1, t2 = run(), run()
        assert t1.n_evaluations == t2.n_evaluations
        assert [r.reward for r in t1.records] == \
            [r.reward for r in t2.records]

    def test_evaluations_fit_inside_wall(self, small_space, evaluator):
        rs = RandomSearch(small_space, rng=0)
        tracker = run_asynchronous_search(rs, evaluator, PARTITION, rng=0)
        assert all(r.end_time <= PARTITION.wall_seconds
                   for r in tracker.records)

    def test_rejects_synchronous_algorithm(self, small_space, evaluator):
        rl = DistributedRL(small_space, rng=0, n_agents=2,
                           workers_per_agent=2)
        with pytest.raises(ValueError):
            run_asynchronous_search(rl, evaluator, PARTITION)


class TestSynchronousExecutor:
    def make_rl(self, small_space, n_nodes=12, n_agents=2):
        from repro.hpc.theta import rl_node_allocation
        wpa = rl_node_allocation(n_nodes, n_agents).workers_per_agent
        return DistributedRL(small_space, rng=0, n_agents=n_agents,
                             workers_per_agent=wpa)

    def test_runs_rounds(self, small_space, evaluator):
        rl = self.make_rl(small_space)
        tracker = run_synchronous_rl_search(rl, evaluator, PARTITION, rng=1)
        assert tracker.n_evaluations > 0
        # Complete rounds only: multiples of total worker count.
        assert rl.round_index >= 1

    def test_utilization_below_asynchronous(self, small_space, evaluator):
        rl = self.make_rl(small_space)
        sync_tracker = run_synchronous_rl_search(rl, evaluator, PARTITION,
                                                 rng=1)
        rs = RandomSearch(small_space, rng=0)
        async_tracker = run_asynchronous_search(rs, evaluator, PARTITION,
                                                rng=1)
        assert sync_tracker.node_utilization() < \
            async_tracker.node_utilization()

    def test_fewer_evaluations_than_asynchronous(self, small_space,
                                                 evaluator):
        rl = self.make_rl(small_space)
        sync_tracker = run_synchronous_rl_search(rl, evaluator, PARTITION,
                                                 rng=1)
        rs = RandomSearch(small_space, rng=0)
        async_tracker = run_asynchronous_search(rs, evaluator, PARTITION,
                                                rng=1)
        assert sync_tracker.n_evaluations < async_tracker.n_evaluations

    def test_allocation_mismatch_rejected(self, small_space, evaluator):
        rl = DistributedRL(small_space, rng=0, n_agents=2,
                           workers_per_agent=99)
        with pytest.raises(ValueError, match="workers/agent"):
            run_synchronous_rl_search(rl, evaluator, PARTITION)

    def test_rejects_asynchronous_algorithm(self, small_space, evaluator):
        rs = RandomSearch(small_space, rng=0)
        with pytest.raises(ValueError):
            run_synchronous_rl_search(rs, evaluator, PARTITION)


class TestRunSearchDispatch:
    def test_dispatches_async(self, small_space, evaluator):
        tracker = run_search(RandomSearch(small_space, rng=0), evaluator,
                             PARTITION, rng=0)
        assert tracker.n_evaluations > 0

    def test_dispatches_sync(self, small_space, evaluator):
        from repro.hpc.theta import rl_node_allocation
        wpa = rl_node_allocation(12, 2).workers_per_agent
        rl = DistributedRL(small_space, rng=0, n_agents=2,
                           workers_per_agent=wpa)
        tracker = run_search(rl, evaluator, PARTITION, rng=0)
        assert tracker.n_evaluations > 0

    def test_unknown_synchronous_type(self, small_space, evaluator):
        class Fake:
            asynchronous = False

        with pytest.raises(TypeError):
            run_search(Fake(), evaluator, PARTITION)


class TestClusterConfig:
    def test_overhead_mean_preserving(self):
        cfg = ClusterConfig(launch_overhead_mean=10.0,
                            launch_overhead_sigma=0.5)
        rng = np.random.default_rng(0)
        draws = [cfg.sample_launch_overhead(rng) for _ in range(4000)]
        assert np.mean(draws) == pytest.approx(10.0, rel=0.05)

    def test_zero_overhead(self):
        cfg = ClusterConfig(launch_overhead_mean=0.0)
        assert cfg.sample_launch_overhead(np.random.default_rng(0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(launch_overhead_mean=-1.0)
        with pytest.raises(ValueError):
            ClusterConfig(rl_update_seconds=-1.0)


# ---------------------------------------------------------------------------
# Recorded output: every other executor test compares the code with itself
# (serial vs pool, cut vs uncut), so a change that moved one RNG draw in
# both paths would pass all of them. These digests pin the trajectories
# and checkpoint bytes themselves.
# ---------------------------------------------------------------------------

ORACLE_PARTITION = ThetaPartition(n_nodes=16, wall_seconds=3600.0)


def _oracle_run(kind, workers, cluster, **campaign):
    space = StackedLSTMSpace(n_layers=5, input_dim=5, output_dim=5,
                             operations=default_operations())
    evaluator = SurrogateEvaluator(
        space, ArchitecturePerformanceModel(space, seed=0))
    if kind == "ae":
        algorithm = AgingEvolution(space, rng=3, population_size=20,
                                   sample_size=5)
    elif kind == "rs":
        algorithm = RandomSearch(space, rng=3)
    else:
        algorithm = DistributedRL(space, rng=3, n_agents=2,
                                  workers_per_agent=7)
    tracker = run_search(algorithm, evaluator, ORACLE_PARTITION,
                         cluster=cluster, rng=11, workers=workers,
                         **campaign)
    return algorithm, tracker


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: (algorithm, workers, failure rate) -> (evaluations, sha256 of the
#: tracker's and the algorithm's sorted-key JSON state).
RECORDED_RUNS = {
    ("ae", None, 0.0): (
        307,
        "a515e40a647bd35bfa997478d8347dee716bf0b75b9a5afa5d24f004618dfc87"),
    ("ae", None, 0.1): (
        272,
        "fad25acde15917bbad82e440d3124885123689d7efc152c025438799bca88110"),
    ("ae", 0, 0.0): (
        296,
        "c0418e50670ca31de62e876aad64c2cd9291a70119ada6a78fce3a6994fbe1c1"),
    ("ae", 0, 0.1): (
        290,
        "0b686a154161f5486140ee77d5165783aa2a067225f81776603949c62954cf11"),
    ("rs", None, 0.0): (
        297,
        "d963c4d058dcc2baaffdba8c511174e7e1ff8bf3fc1a44227564370e4e8dadab"),
    ("rs", None, 0.1): (
        279,
        "6e9203f31242c544153b447f91e2ea0ec2388f63f945d375c088e80a76e1c6ce"),
    ("rs", 0, 0.0): (
        292,
        "6f94a2b4a23b0e421f71d2a6993cf0254dfc305ea114ec9fb83be31c38049dca"),
    ("rs", 0, 0.1): (
        274,
        "225d8e63179a9fe7f45a487b89a8de03c0e6e8162d0a0e3c1f0b1176fd026883"),
    ("rl", None, 0.0): (
        185,
        "7398e8ec8be30cd39710c1362ddb64690f59944fadfc7a0b37fffce4088699f4"),
    ("rl", None, 0.1): (
        177,
        "8441a867996482b91543b9fc51d254098cc963151ea54d3043b0b378df697240"),
    ("rl", 0, 0.0): (
        196,
        "0e7485deb461751cce510eeadb6460988735fcb8d1e894982e0d015aa73758aa"),
    ("rl", 0, 0.1): (
        176,
        "e807d167459136086198333ba57eedd14bb55c00112723d5304968467eb82151"),
}

#: (algorithm, workers) -> sha256 of the checkpoint file a 1200 s
#: allocation leaves with a checkpoint every 300 simulated seconds.
RECORDED_CHECKPOINTS = {
    ("ae", None):
        "a03cb1bbeaae0854d90844b1f7bef3579405742c0c7ada95420f32f197a8a9b7",
    ("ae", 2):
        "8d7e51add38e04d258cc02d7789a2f17300275419aa6813c6e8135df4c1e862c",
    ("rl", None):
        "41f6db0670e09052e9155cdbbfe7e69aa1b0722b4827248da9641260860159fb",
    ("rl", 0):
        "e493555828e4611f25c8b94ae78f71e9ab1e02b2ec061e74d11deaba83a4830a",
}


class TestRecordedOutput:
    @pytest.mark.parametrize("kind,workers,failure_rate",
                             list(RECORDED_RUNS))
    def test_trajectory_digest(self, kind, workers, failure_rate):
        algorithm, tracker = _oracle_run(
            kind, workers, ClusterConfig(failure_rate=failure_rate))
        digest = _sha256(
            (json.dumps(tracker.state_dict(), sort_keys=True)
             + json.dumps(algorithm.state_dict(), sort_keys=True)).encode())
        assert (tracker.n_evaluations, digest) \
            == RECORDED_RUNS[kind, workers, failure_rate]

    @pytest.mark.parametrize("kind,workers",
                             list(RECORDED_CHECKPOINTS))
    def test_checkpoint_bytes(self, kind, workers, tmp_path):
        path = tmp_path / "campaign.json"
        _oracle_run(kind, workers, ClusterConfig(), walltime=1200.0,
                    checkpoint=CheckpointPolicy(path, every_seconds=300.0))
        assert _sha256(path.read_bytes()) \
            == RECORDED_CHECKPOINTS[kind, workers]
