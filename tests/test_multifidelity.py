"""Multi-fidelity search differential suite (docs/SEARCH.md).

Three exact contracts, all ``==`` rather than approximate:

1. **Backend independence** — an SH/Hyperband campaign is a pure
   function of (scheduler, evaluator, seed): in-process, serial-backend,
   and 1/2/4-worker-pool runs produce identical reports.
2. **Real-training rungs** — ``RealTrainingEvaluator.evaluate_at`` is
   a fresh training at the rung's budget, bitwise ``evaluate`` on a
   trainer with that many epochs, and a real-training campaign gives
   one report on every backend.
3. **Interrupt/resume** — a campaign killed mid-rung and resumed from
   its checkpoint replays to exactly the uninterrupted trajectory, and a
   checkpoint refuses to resume under a different scheduler config,
   seed, or evaluator identity.
"""

import numpy as np
import pytest

from repro.nas import (
    ArchitecturePerformanceModel,
    GeneticSearch,
    Hyperband,
    HyperparameterGrid,
    JointArchitectureSpace,
    JointSurrogateEvaluator,
    RealTrainingEvaluator,
    SuccessiveHalving,
    SurrogateEvaluator,
    load_checkpoint,
    resume_multifidelity_campaign,
    run_multifidelity_campaign,
    scheduler_from_config,
)
from repro.nas.multifidelity import MULTIFIDELITY_FORMAT
from repro.nn.training import Trainer


@pytest.fixture(scope="module")
def model(small_space):
    return ArchitecturePerformanceModel(small_space, seed=0)


@pytest.fixture()
def evaluator(small_space, model):
    return SurrogateEvaluator(small_space, model)


HB = dict(min_epochs=1, max_epochs=20, eta=4, candidate_multiplier=2)


# ---------------------------------------------------------------------------
# Scheduler bracket math
# ---------------------------------------------------------------------------

class TestSchedulers:
    def test_successive_halving_ladder(self):
        sh = SuccessiveHalving(n_candidates=64, min_epochs=1,
                               max_epochs=20, eta=4)
        [bracket] = sh.brackets()
        assert [(r.epochs, r.n_candidates) for r in bracket.rungs] \
            == [(1, 64), (4, 16), (16, 4), (20, 1)]
        assert bracket.n_evaluations == 85

    def test_winner_always_reaches_full_budget(self):
        for n in (1, 3, 16, 64, 100):
            sh = SuccessiveHalving(n_candidates=n, min_epochs=1,
                                   max_epochs=20, eta=4)
            last = sh.brackets()[0].rungs[-1]
            assert last.epochs == 20

    def test_hyperband_portfolio(self):
        hb = Hyperband(min_epochs=1, max_epochs=20, eta=4)
        brackets = hb.brackets()
        # s_max = floor(log_4 20) = 2: three brackets, exploration to
        # exploitation (the docs/SEARCH.md worked example).
        assert [b.index for b in brackets] == [2, 1, 0]
        assert [(r.epochs, r.n_candidates) for r in brackets[0].rungs] \
            == [(1, 16), (4, 4), (20, 1)]
        assert [(r.epochs, r.n_candidates) for r in brackets[1].rungs] \
            == [(5, 6), (20, 1)]
        assert [(r.epochs, r.n_candidates) for r in brackets[2].rungs] \
            == [(20, 3)]

    def test_bracket_limit_and_multiplier(self):
        hb = Hyperband(min_epochs=1, max_epochs=20, eta=4, brackets=1,
                       candidate_multiplier=4)
        brackets = hb.brackets()
        assert len(brackets) == 1
        assert brackets[0].rungs[0].n_candidates == 64

    def test_config_round_trips(self):
        for scheduler in (SuccessiveHalving(n_candidates=27, min_epochs=2,
                                            max_epochs=18, eta=3),
                          Hyperband(**HB)):
            rebuilt = scheduler_from_config(scheduler.config())
            assert rebuilt.config() == scheduler.config()
            assert [b.rungs for b in rebuilt.brackets()] \
                == [b.rungs for b in scheduler.brackets()]

    @pytest.mark.parametrize("bad", [
        dict(n_candidates=0), dict(min_epochs=0), dict(eta=1),
        dict(min_epochs=30, max_epochs=20),
    ])
    def test_invalid_budgets_rejected(self, bad):
        kwargs = dict(n_candidates=8, min_epochs=1, max_epochs=20, eta=4)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            SuccessiveHalving(**kwargs)
        with pytest.raises(ValueError):
            scheduler_from_config({"algorithm": "simulated-annealing"})


# ---------------------------------------------------------------------------
# Backend independence: serial == pooled at every worker count
# ---------------------------------------------------------------------------

class TestBackendIndependence:
    def test_inprocess_equals_serial_backend(self, evaluator):
        hb = Hyperband(**HB)
        a = run_multifidelity_campaign(hb, evaluator, seed=7)
        b = run_multifidelity_campaign(hb, evaluator, seed=7, workers=0)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_equals_serial(self, evaluator, workers):
        hb = Hyperband(min_epochs=1, max_epochs=20, eta=4)
        serial = run_multifidelity_campaign(hb, evaluator, seed=3,
                                            workers=0)
        pooled = run_multifidelity_campaign(hb, evaluator, seed=3,
                                            workers=workers)
        assert pooled == serial

    def test_successive_halving_pool_equals_serial(self, evaluator):
        sh = SuccessiveHalving(n_candidates=16, min_epochs=2,
                               max_epochs=20, eta=4)
        serial = run_multifidelity_campaign(sh, evaluator, seed=5,
                                            workers=0)
        pooled = run_multifidelity_campaign(sh, evaluator, seed=5,
                                            workers=2)
        assert pooled == serial

    def test_different_seeds_differ(self, evaluator):
        hb = Hyperband(**HB)
        a = run_multifidelity_campaign(hb, evaluator, seed=0)
        b = run_multifidelity_campaign(hb, evaluator, seed=1)
        assert a["best_architecture"] != b["best_architecture"] \
            or a["best_reward"] != b["best_reward"]

    def test_report_shape(self, evaluator):
        hb = Hyperband(**HB)
        report = run_multifidelity_campaign(hb, evaluator, seed=2)
        assert report["completed"] is True
        assert report["algorithm"] == "hyperband"
        assert report["best_is_full_budget"] is True
        assert report["epochs_incremental"] <= report["epochs_fresh"]
        assert len(report["brackets"]) == 3
        ladder = report["brackets"][0]["rungs"]
        # Promotion can only improve the observed rung best.
        assert ladder[0]["n_candidates"] > ladder[-1]["n_candidates"]


# ---------------------------------------------------------------------------
# Real training: every rung is a fresh training under the lifetime stream
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_training():
    rng = np.random.default_rng(0)
    data = (rng.normal(size=(24, 5, 3)), rng.normal(size=(24, 5, 3)),
            rng.normal(size=(8, 5, 3)), rng.normal(size=(8, 5, 3)))
    return data


#: The seed-5 SH campaign below, as recorded when the in-process path
#: still continued each candidate's training from its previous rung.
RECORDED_SH_CAMPAIGN = {
    "best_reward": -0.004905151548393105,
    "best_architecture": [3, 1, 0, 0, 1, 0],
    "n_evaluations": 7,
    "epochs_incremental": 8,
    "epochs_fresh": 12,
    "brackets": [{"index": 0, "rungs": [
        {"epochs": 1, "n_candidates": 4,
         "best_reward": -0.004559247794558852},
        {"epochs": 2, "n_candidates": 2,
         "best_reward": -0.004630431070500762},
        {"epochs": 4, "n_candidates": 1,
         "best_reward": -0.004905151548393105}]}],
}


class TestRealTrainingRungs:
    def make(self, small_space, data, epochs=6):
        return RealTrainingEvaluator(
            small_space, data,
            trainer=Trainer(epochs=epochs, batch_size=8))

    @staticmethod
    def assert_same(a, b):
        assert a.reward == b.reward
        assert a.n_parameters == b.n_parameters
        assert a.metadata["epochs"] == b.metadata["epochs"]
        assert a.metadata["history"] == b.metadata["history"]

    def test_full_budget_ask_is_evaluate(self, small_space, tiny_training):
        ev = self.make(small_space, tiny_training)
        arch = small_space.from_index(101)
        self.assert_same(
            ev.evaluate_at(arch, ev.trainer.epochs,
                           np.random.default_rng(42)),
            ev.evaluate(arch, np.random.default_rng(42)))

    @pytest.mark.parametrize("epochs", [1, 2, 9])
    def test_truncated_ask_is_a_fresh_shorter_training(
            self, small_space, tiny_training, epochs):
        ev = self.make(small_space, tiny_training)
        arch = small_space.from_index(101)
        ask = ev.evaluate_at(arch, epochs, np.random.default_rng(42))
        assert ask.metadata["epochs"] == epochs
        self.assert_same(
            ask, self.make(small_space, tiny_training, epochs).evaluate(
                arch, np.random.default_rng(42)))
        assert ev.trainer.epochs == 6  # the evaluator's own protocol

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_budget_below_one_epoch_rejected(self, small_space,
                                             tiny_training, epochs):
        ev = self.make(small_space, tiny_training)
        with pytest.raises(ValueError, match="epochs"):
            ev.evaluate_at(small_space.from_index(3), epochs)

    @pytest.mark.parametrize("workers", [None, 0, 2])
    def test_campaign_matches_recorded_result(self, small_space,
                                              tiny_training, workers):
        """In-process, serial-backend and pooled real-training campaigns
        all give the report the continuation path recorded: a fresh
        ``evaluate_at`` under a candidate's lifetime stream is what
        continuing its training through the earlier rungs gave."""
        ev = self.make(small_space, tiny_training, epochs=4)
        sh = SuccessiveHalving(n_candidates=4, min_epochs=1,
                               max_epochs=4, eta=2)
        report = run_multifidelity_campaign(sh, ev, seed=5,
                                            workers=workers)
        assert report["completed"] is True
        assert report["best_is_full_budget"] is True
        assert {key: report[key] for key in RECORDED_SH_CAMPAIGN} \
            == RECORDED_SH_CAMPAIGN


# ---------------------------------------------------------------------------
# Checkpoint / interrupt / resume
# ---------------------------------------------------------------------------

class TestCheckpointResume:
    @pytest.mark.parametrize("stop_after", [1, 7, 23])
    def test_kill_and_resume_is_exact(self, evaluator, tmp_path,
                                      stop_after):
        hb = Hyperband(**HB)
        full = run_multifidelity_campaign(hb, evaluator, seed=11)

        ckpt = tmp_path / "mf.json"
        partial = run_multifidelity_campaign(
            hb, evaluator, seed=11, checkpoint=ckpt,
            stop_after_evaluations=stop_after)
        assert partial["completed"] is False
        assert partial["n_evaluations"] == stop_after

        state = load_checkpoint(ckpt)
        assert state["format"] == MULTIFIDELITY_FORMAT
        resumed = resume_multifidelity_campaign(ckpt, evaluator,
                                                checkpoint=ckpt)
        assert resumed["completed"] is True
        assert resumed["best_reward"] == full["best_reward"]
        assert resumed["best_architecture"] == full["best_architecture"]
        assert resumed["n_evaluations"] == full["n_evaluations"]
        assert resumed["epochs_incremental"] == full["epochs_incremental"]
        assert resumed["brackets"] == full["brackets"]

    def test_chained_interrupts_equal_one_run(self, evaluator, tmp_path):
        hb = Hyperband(**HB)
        full = run_multifidelity_campaign(hb, evaluator, seed=4)
        ckpt = tmp_path / "mf.json"
        run_multifidelity_campaign(hb, evaluator, seed=4, checkpoint=ckpt,
                                   stop_after_evaluations=9)
        resume_multifidelity_campaign(ckpt, evaluator, checkpoint=ckpt,
                                      stop_after_evaluations=15)
        final = resume_multifidelity_campaign(ckpt, evaluator,
                                              checkpoint=ckpt)
        assert final["best_reward"] == full["best_reward"]
        assert final["n_evaluations"] == full["n_evaluations"]
        assert final["brackets"] == full["brackets"]

    def test_resume_on_pool_matches(self, evaluator, tmp_path):
        hb = Hyperband(min_epochs=1, max_epochs=20, eta=4)
        full = run_multifidelity_campaign(hb, evaluator, seed=6)
        ckpt = tmp_path / "mf.json"
        run_multifidelity_campaign(hb, evaluator, seed=6, checkpoint=ckpt,
                                   stop_after_evaluations=5)
        resumed = resume_multifidelity_campaign(ckpt, evaluator,
                                                workers=2)
        assert resumed["best_reward"] == full["best_reward"]
        assert resumed["brackets"] == full["brackets"]

    def test_scheduler_mismatch_refused(self, evaluator, tmp_path):
        ckpt = tmp_path / "mf.json"
        run_multifidelity_campaign(Hyperband(**HB), evaluator, seed=1,
                                   checkpoint=ckpt,
                                   stop_after_evaluations=3)
        for wrong in (Hyperband(min_epochs=2, max_epochs=20, eta=4,
                                candidate_multiplier=2),
                      Hyperband(min_epochs=1, max_epochs=20, eta=3,
                                candidate_multiplier=2),
                      SuccessiveHalving(n_candidates=8, min_epochs=1,
                                        max_epochs=20, eta=4)):
            with pytest.raises(ValueError, match="different experiment"):
                resume_multifidelity_campaign(ckpt, evaluator,
                                              scheduler=wrong)

    def test_seed_mismatch_refused(self, evaluator, tmp_path):
        ckpt = tmp_path / "mf.json"
        run_multifidelity_campaign(Hyperband(**HB), evaluator, seed=1,
                                   checkpoint=ckpt,
                                   stop_after_evaluations=3)
        state = load_checkpoint(ckpt)
        state["seed"] = 2
        with pytest.raises(ValueError, match="different experiment"):
            run_multifidelity_campaign(Hyperband(**HB), evaluator, seed=1,
                                       resume_state=state)

    def test_evaluator_identity_mismatch_refused(self, small_space, model,
                                                 tmp_path):
        """A checkpoint written against one benchmark archive refuses an
        evaluator bound to different external state."""
        from repro.nas import BenchmarkEvaluator, build_archive
        path = build_archive(small_space, model, tmp_path / "a.npz")
        ev = BenchmarkEvaluator(path)
        ckpt = tmp_path / "mf.json"
        run_multifidelity_campaign(Hyperband(**HB), ev, seed=0,
                                   checkpoint=ckpt,
                                   stop_after_evaluations=3)
        other_model = ArchitecturePerformanceModel(small_space, seed=9)
        other = BenchmarkEvaluator(
            build_archive(small_space, other_model, tmp_path / "b.npz"))
        with pytest.raises(ValueError, match="different experiment"):
            resume_multifidelity_campaign(ckpt, other)

    def test_non_multifidelity_checkpoint_refused(self, evaluator,
                                                  tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "repro-campaign-checkpoint"}')
        with pytest.raises(ValueError, match="multi-fidelity"):
            resume_multifidelity_campaign(path, evaluator)


# ---------------------------------------------------------------------------
# Joint space + genetic searcher over architecture x hyperparameters
# ---------------------------------------------------------------------------

class TestJointSearch:
    def test_joint_space_split_round_trips(self, small_space):
        space = JointArchitectureSpace(small_space)
        rng = np.random.default_rng(0)
        for _ in range(32):
            enc = space.random_architecture(rng)
            arch, hp = space.split(enc)
            assert small_space.validate(arch) == arch
            assert hp.learning_rate in space.grid.learning_rates
            assert hp.window in space.grid.windows
            assert hp.pod_rank in space.grid.pod_ranks
            assert space.from_index(space.index_of(enc)) == enc

    def test_joint_evaluator_optimum_at_paper_protocol(self, small_space,
                                                       model):
        space = JointArchitectureSpace(small_space)
        ev = JointSurrogateEvaluator(space, model)
        arch = small_space.from_index(77)
        grid = space.grid
        best = arch + (grid.learning_rates.index(1e-3),
                       grid.windows.index(8), grid.pod_ranks.index(2))
        # POD rank optimum is 6; rank 2 sits off it, lr/window on it.
        off = ev.mean_quality(best, 20)
        on = ev.mean_quality(
            arch + (grid.learning_rates.index(1e-3),
                    grid.windows.index(8), grid.pod_ranks.index(6)), 20)
        assert on > off

    def test_ga_improves_over_its_first_generation(self, small_space,
                                                   model):
        space = JointArchitectureSpace(small_space)
        ev = JointSurrogateEvaluator(space, model)
        ga = GeneticSearch(space, rng=0, population_size=10,
                           tournament_size=3)
        rng = np.random.default_rng(0)
        firstgen = []
        for i in range(120):
            enc = ga.ask()
            reward = ev.evaluate(enc, np.random.default_rng(i)).reward
            ga.tell(enc, reward)
            if i < 10:
                firstgen.append(reward)
        assert ga.generation >= 10
        assert ga.best_reward > max(firstgen)

    @pytest.fixture
    def fixed_window_space(self, small_space):
        """Window fixed at 8: a one-value gene among movable ones."""
        grid = HyperparameterGrid(learning_rates=(1e-3, 1e-2),
                                  windows=(8,), pod_ranks=(3, 5, 7))
        return JointArchitectureSpace(small_space, grid)

    def test_mutation_never_moves_a_one_value_gene(self,
                                                   fixed_window_space):
        space = fixed_window_space
        window_gene = len(space.cardinalities) - 2
        rng = np.random.default_rng(0)
        enc = space.random_architecture(rng)
        for _ in range(300):
            child = space.mutate(enc, rng)
            assert child[window_gene] == 0
            assert sum(a != b for a, b in zip(child, enc)) == 1
            enc = child

    def test_ga_never_moves_a_one_value_gene(self, fixed_window_space,
                                             model):
        space = fixed_window_space
        window_gene = len(space.cardinalities) - 2
        ev = JointSurrogateEvaluator(space, model)
        ga = GeneticSearch(space, rng=0, population_size=6,
                           tournament_size=3, mutation_rate=0.5)
        for i in range(60):
            enc = ga.ask()
            assert enc[window_gene] == 0
            ga.tell(enc, ev.evaluate(enc, np.random.default_rng(i)).reward)
        assert ga.generation >= 5

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            HyperparameterGrid(learning_rates=())
        with pytest.raises(ValueError):
            HyperparameterGrid(windows=(4, 4))
        with pytest.raises(ValueError):
            HyperparameterGrid(pod_ranks=(0,))


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

class TestObservability:
    def test_campaign_counters(self, evaluator):
        from repro import obs
        obs.enable()
        hb = Hyperband(**HB)
        report = run_multifidelity_campaign(hb, evaluator, seed=0)
        counters = {k: c.value
                    for k, c in obs.get_registry().counters.items()}
        assert counters["multifidelity/evaluations"] \
            == report["n_evaluations"]
        assert counters["multifidelity/epochs_trained"] \
            == report["epochs_fresh"]
        assert counters["multifidelity/brackets_completed"] == 3
        assert counters["multifidelity/rungs_completed"] \
            == sum(len(b["rungs"]) for b in report["brackets"])
        assert counters["multifidelity/promotions"] > 0

    def test_ga_counters(self, small_space, model):
        from repro import obs
        obs.enable()
        space = JointArchitectureSpace(small_space)
        ev = JointSurrogateEvaluator(space, model)
        ga = GeneticSearch(space, rng=0, population_size=6)
        for i in range(40):
            enc = ga.ask()
            ga.tell(enc, ev.evaluate(enc, np.random.default_rng(i)).reward)
        counters = {k: c.value
                    for k, c in obs.get_registry().counters.items()}
        assert counters["nas/ga/generations"] == ga.generation
        assert counters.get("nas/ga/crossovers", 0) \
            + counters.get("nas/ga/mutations", 0) > 0
