"""Differential tests: interrupt-at-k + resume == uninterrupted.

The contract of docs/CHECKPOINTING.md — a campaign cut short by a
walltime budget and resumed from its checkpoint must produce *exactly*
(``==``, not approximately) the evaluation trajectory, best architecture
and final search state of the uninterrupted run — for every algorithm
and at multiple interrupt points.
"""

import json

import numpy as np
import pytest

from repro.hpc import ThetaPartition, resume_search, run_search
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    CheckpointPolicy,
    DistributedRL,
    GeneticSearch,
    RandomSearch,
    SurrogateEvaluator,
)
from repro.nas.checkpoint import CAMPAIGN_FORMAT, load_checkpoint

WALL = 1200.0
RL_WALL = 1500.0


@pytest.fixture()
def evaluator(small_space):
    return SurrogateEvaluator(
        small_space, ArchitecturePerformanceModel(small_space, seed=0))


def make_algorithm(kind, space):
    if kind == "ae":
        return AgingEvolution(space, rng=7, population_size=8,
                              sample_size=3)
    if kind == "rs":
        return RandomSearch(space, rng=7)
    if kind == "ga":
        return GeneticSearch(space, rng=7, population_size=6,
                             tournament_size=3, elite=2)
    return DistributedRL(space, rng=7, n_agents=2, workers_per_agent=5)


def make_partition(kind):
    if kind == "rl":
        return ThetaPartition(n_nodes=12, wall_seconds=RL_WALL)
    return ThetaPartition(n_nodes=4, wall_seconds=WALL)


def trajectory(tracker):
    """Everything the paper reports, exact."""
    return [(r.architecture, r.reward, r.start_time, r.end_time, r.node)
            for r in tracker.records]


def algorithm_fingerprint(algorithm):
    fp = {"n_asked": algorithm.n_asked, "n_told": algorithm.n_told,
          "best_reward": algorithm.best_reward,
          "best_architecture": algorithm.best_architecture}
    if isinstance(algorithm, AgingEvolution):
        fp["population"] = list(algorithm.population)
    if isinstance(algorithm, GeneticSearch):
        fp["generation"] = algorithm.generation
        fp["n_immigrants"] = algorithm.n_immigrants
        fp["population"] = list(algorithm.population)
        fp["results"] = list(algorithm._results)
        fp["pending"] = list(algorithm._pending)
    if isinstance(algorithm, DistributedRL):
        fp["round_index"] = algorithm.round_index
        fp["logits"] = [[logit.tolist() for logit in agent.logits]
                        for agent in algorithm.agents]
        fp["baselines"] = [agent.value_baseline
                           for agent in algorithm.agents]
    return fp


@pytest.mark.parametrize("kind,cut", [
    ("ae", 300.0), ("ae", 700.0),
    ("rs", 250.0), ("rs", 800.0),
    ("ga", 300.0), ("ga", 700.0),
    ("rl", 400.0), ("rl", 900.0),
])
def test_interrupt_and_resume_is_bitwise_equal(kind, cut, small_space,
                                               evaluator, tmp_path):
    part = make_partition(kind)
    full_alg = make_algorithm(kind, small_space)
    full = run_search(full_alg, evaluator, part, rng=123)
    assert full.n_evaluations > 5  # the comparison must be non-trivial

    ckpt = tmp_path / "campaign.json"
    cut_alg = make_algorithm(kind, small_space)
    partial = run_search(cut_alg, evaluator, part, rng=123, walltime=cut,
                         checkpoint=CheckpointPolicy(ckpt))
    assert partial.n_evaluations < full.n_evaluations
    resumed_alg, resumed = resume_search(ckpt, small_space, evaluator)

    assert trajectory(resumed) == trajectory(full)
    assert algorithm_fingerprint(resumed_alg) \
        == algorithm_fingerprint(full_alg)
    assert resumed.node_utilization() == full.node_utilization()
    assert resumed.n_failures == full.n_failures


def test_ga_interrupt_mid_generation(small_space, evaluator, tmp_path):
    """Cutting the GA inside a generation — partial results accumulated,
    offspring still queued — restores the exact population, pending
    offspring, and RNG position, so the resumed trajectory is the
    uninterrupted one."""
    part = make_partition("ga")
    full_alg = make_algorithm("ga", small_space)
    full = run_search(full_alg, evaluator, part, rng=123)
    assert full_alg.generation >= 2  # the GA actually evolved

    ckpt = tmp_path / "campaign.json"
    cut_alg = make_algorithm("ga", small_space)
    run_search(cut_alg, evaluator, part, rng=123, walltime=500.0,
               checkpoint=CheckpointPolicy(ckpt))
    # The cut must land strictly inside a generation for the test to
    # mean anything: some results told, the generation not yet bred.
    assert 0 < len(cut_alg._results) < cut_alg.population_size

    resumed_alg, resumed = resume_search(ckpt, small_space, evaluator)
    assert trajectory(resumed) == trajectory(full)
    assert algorithm_fingerprint(resumed_alg) \
        == algorithm_fingerprint(full_alg)


def test_ga_config_mismatch_refused(small_space):
    """A GA checkpoint only restores into a searcher with the identical
    genetic configuration — anything else is a different experiment."""
    from repro.nas import search_state
    donor = make_algorithm("ga", small_space)
    for _ in range(4):
        donor.tell(donor.ask(), 0.5)
    state = search_state(donor)
    other = GeneticSearch(small_space, rng=7, population_size=9,
                          tournament_size=3, elite=2)
    with pytest.raises(ValueError,
                       match="different experiment"):
        other.load_state_dict(state)


def test_three_allocations_equal_one(small_space, evaluator, tmp_path):
    """A campaign split across three walltime budgets chains exactly."""
    part = make_partition("ae")
    full_alg = make_algorithm("ae", small_space)
    full = run_search(full_alg, evaluator, part, rng=123)

    ckpt = tmp_path / "campaign.json"
    alg = make_algorithm("ae", small_space)
    run_search(alg, evaluator, part, rng=123, walltime=400.0,
               checkpoint=CheckpointPolicy(ckpt))
    resume_search(ckpt, small_space, evaluator, walltime=400.0,
                  checkpoint=CheckpointPolicy(ckpt))
    final_alg, final = resume_search(ckpt, small_space, evaluator)
    assert trajectory(final) == trajectory(full)
    assert algorithm_fingerprint(final_alg) \
        == algorithm_fingerprint(full_alg)


def test_backend_mode_resume_with_periodic_checkpoints(small_space,
                                                       evaluator, tmp_path):
    """Backend campaigns (order-stable task streams, in-flight work)
    restore exactly; the periodic writes must not perturb the run."""
    part = make_partition("ae")
    full_alg = make_algorithm("ae", small_space)
    full = run_search(full_alg, evaluator, part, rng=123, workers=0)

    ckpt = tmp_path / "campaign.json"
    alg = make_algorithm("ae", small_space)
    run_search(alg, evaluator, part, rng=123, workers=0, walltime=500.0,
               checkpoint=CheckpointPolicy(ckpt, every_seconds=90.0))
    state = load_checkpoint(ckpt)
    assert state["format"] == CAMPAIGN_FORMAT
    assert state["uses_backend"] is True
    # Resume defaults to the serial backend — bitwise-equal to any pool.
    resumed_alg, resumed = resume_search(ckpt, small_space, evaluator)
    assert trajectory(resumed) == trajectory(full)
    assert algorithm_fingerprint(resumed_alg) \
        == algorithm_fingerprint(full_alg)


def test_pool_checkpoint_resumes_on_serial_backend(small_space, evaluator,
                                                   tmp_path):
    """A 2-process-pool campaign interrupted mid-flight (speculative
    in-flight tasks pending) resumes to the serial-backend trajectory."""
    part = make_partition("rs")
    full_alg = make_algorithm("rs", small_space)
    full = run_search(full_alg, evaluator, part, rng=123, workers=0)

    ckpt = tmp_path / "campaign.json"
    alg = make_algorithm("rs", small_space)
    run_search(alg, evaluator, part, rng=123, workers=2, walltime=450.0,
               checkpoint=CheckpointPolicy(ckpt))
    resumed_alg, resumed = resume_search(ckpt, small_space, evaluator)
    assert trajectory(resumed) == trajectory(full)
    assert algorithm_fingerprint(resumed_alg) \
        == algorithm_fingerprint(full_alg)


def test_pool_checkpoint_in_ae_priming_resumes_on_serial_backend(
        small_space, evaluator, tmp_path):
    """The AE twin: a 2-process-pool campaign cut while it still draws
    its random initial population, with look-ahead asks in flight,
    resumes to the serial-backend trajectory."""
    part = make_partition("ae")
    full_alg = make_algorithm("ae", small_space)
    full = run_search(full_alg, evaluator, part, rng=123, workers=0)
    assert full_alg.n_asked > full_alg.population_size

    ckpt = tmp_path / "campaign.json"
    alg = make_algorithm("ae", small_space)
    run_search(alg, evaluator, part, rng=123, workers=2, walltime=150.0,
               checkpoint=CheckpointPolicy(ckpt))
    state = load_checkpoint(ckpt)
    assert state["algorithm"]["n_asked"] <= alg.population_size
    assert state["feed"]["inflight"], "no look-ahead in flight at the cut"
    resumed_alg, resumed = resume_search(ckpt, small_space, evaluator)
    assert trajectory(resumed) == trajectory(full)
    assert algorithm_fingerprint(resumed_alg) \
        == algorithm_fingerprint(full_alg)


def test_periodic_checkpoint_file_always_loadable(small_space, evaluator,
                                                  tmp_path, monkeypatch):
    """Every periodic write is atomic: peeking at the file between
    writes always parses, and a crash mid-write leaves the previous
    checkpoint behind."""
    import repro.durable as ckpt_mod

    ckpt = tmp_path / "campaign.json"
    seen = []
    real_replace = ckpt_mod.os.replace

    def spying_replace(src, dst):
        real_replace(src, dst)
        seen.append(json.loads(ckpt.read_text())["now"])

    monkeypatch.setattr(ckpt_mod.os, "replace", spying_replace)
    part = make_partition("ae")
    run_search(make_algorithm("ae", small_space), evaluator, part,
               rng=123, checkpoint=CheckpointPolicy(ckpt,
                                                    every_seconds=150.0))
    assert len(seen) >= 3  # periodic marks plus the final write
    assert seen == sorted(seen)

    # Now crash the *next* write: the campaign-complete file survives.
    before = ckpt.read_text()
    monkeypatch.setattr(
        ckpt_mod.os, "replace",
        lambda src, dst: (_ for _ in ()).throw(OSError("killed")))
    with pytest.raises(OSError):
        run_search(make_algorithm("ae", small_space), evaluator, part,
                   rng=123, walltime=200.0,
                   checkpoint=CheckpointPolicy(ckpt))
    assert ckpt.read_text() == before
    monkeypatch.setattr(ckpt_mod.os, "replace", real_replace)
    resume_search(ckpt, small_space, evaluator)  # still resumable


def test_rl_checkpoint_at_boundary_recomputes_partial_round(small_space,
                                                            evaluator,
                                                            tmp_path):
    """Cutting an RL campaign mid-round resumes from the last barrier;
    the recomputed partial round matches the uninterrupted one."""
    part = make_partition("rl")
    full_alg = make_algorithm("rl", small_space)
    full = run_search(full_alg, evaluator, part, rng=99)

    ckpt = tmp_path / "campaign.json"
    alg = make_algorithm("rl", small_space)
    # 472s lands strictly inside a round (rounds take ~200s+).
    run_search(alg, evaluator, part, rng=99, walltime=472.0,
               checkpoint=CheckpointPolicy(ckpt))
    state = load_checkpoint(ckpt)
    assert state["now"] <= 472.0  # quiescent boundary, not the cut point
    resumed_alg, resumed = resume_search(ckpt, small_space, evaluator)
    assert trajectory(resumed) == trajectory(full)
    assert algorithm_fingerprint(resumed_alg) \
        == algorithm_fingerprint(full_alg)


class TestResumeValidation:
    def test_non_campaign_file_rejected(self, small_space, evaluator,
                                        tmp_path):
        from repro.nas import save_search
        path = tmp_path / "search_only.json"
        save_search(make_algorithm("ae", small_space), path)
        with pytest.raises(ValueError, match="not a campaign checkpoint"):
            resume_search(path, small_space, evaluator)

    def test_evaluation_mode_mismatch_rejected(self, small_space,
                                               evaluator, tmp_path):
        part = make_partition("ae")
        ckpt = tmp_path / "campaign.json"
        run_search(make_algorithm("ae", small_space), evaluator, part,
                   rng=1, walltime=300.0, checkpoint=CheckpointPolicy(ckpt))
        with pytest.raises(ValueError, match="backend"):
            resume_search(ckpt, small_space, evaluator, workers=0)

    def test_refused_resume_builds_no_pool(self, small_space, evaluator,
                                           tmp_path):
        """The resume check runs before any worker process exists, and
        a backend the caller passed in is the caller's to close."""
        import multiprocessing

        from repro.hpc import ParallelEvaluator
        part = make_partition("ae")
        ckpt = tmp_path / "campaign.json"
        run_search(make_algorithm("ae", small_space), evaluator, part,
                   rng=1, walltime=300.0, checkpoint=CheckpointPolicy(ckpt))
        children = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="different experiment"):
            resume_search(ckpt, small_space, evaluator, workers=2)
        assert set(multiprocessing.active_children()) == children

        arch = small_space.random_architecture(np.random.default_rng(0))
        with ParallelEvaluator(evaluator, n_workers=1) as backend:
            with pytest.raises(ValueError, match="different experiment"):
                resume_search(ckpt, small_space, evaluator, backend=backend)
            result = backend.gather(
                backend.submit(arch, np.random.SeedSequence(0)))
        assert result.reward == evaluator.evaluate(
            arch, np.random.default_rng(np.random.SeedSequence(0))).reward

    def test_negative_walltime_rejected(self, small_space, evaluator):
        part = make_partition("ae")
        with pytest.raises(ValueError, match="walltime"):
            run_search(make_algorithm("ae", small_space), evaluator, part,
                       rng=1, walltime=-5.0)

    def test_bad_checkpoint_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="every_seconds"):
            CheckpointPolicy(tmp_path / "x.json", every_seconds=0.0)

    def test_leftover_tmp_file_is_harmless(self, small_space, evaluator,
                                           tmp_path):
        """A .tmp sibling from a crashed write never shadows the real
        checkpoint and is overwritten by the next save."""
        part = make_partition("ae")
        ckpt = tmp_path / "campaign.json"
        (tmp_path / "campaign.json.tmp").write_text("{ garbage")
        run_search(make_algorithm("ae", small_space), evaluator, part,
                   rng=1, walltime=300.0, checkpoint=CheckpointPolicy(ckpt))
        resume_search(ckpt, small_space, evaluator)
