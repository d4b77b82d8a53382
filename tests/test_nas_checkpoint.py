import numpy as np
import pytest

from repro.durable import atomic_write_json
from repro.hpc import ThetaPartition, run_asynchronous_search
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    DistributedRL,
    RandomSearch,
    SurrogateEvaluator,
)
from repro.nas.checkpoint import (
    CHECKPOINT_VERSION,
    SEARCH_FORMAT,
    load_search,
    restore_search,
    save_search,
    search_state,
)


@pytest.fixture()
def oracle(small_space):
    return ArchitecturePerformanceModel(small_space, seed=0)


def warm_search(small_space, oracle, n=200):
    search = AgingEvolution(small_space, rng=0, population_size=15,
                            sample_size=5)
    rng = np.random.default_rng(1)
    for _ in range(n):
        arch = search.ask()
        search.tell(arch, oracle.observed_quality(arch, rng))
    return search


class TestCheckpointRoundtrip:
    def test_state_is_json_compatible(self, small_space, oracle):
        import json
        state = search_state(warm_search(small_space, oracle))
        json.dumps(state)  # must not raise

    def test_population_restored(self, small_space, oracle):
        search = warm_search(small_space, oracle)
        restored = restore_search(search_state(search), small_space,
                                  seed_on_resume=9)
        assert list(restored.population) == list(search.population)
        assert restored.best_reward == search.best_reward
        assert restored.best_architecture == search.best_architecture
        assert restored.n_asked == search.n_asked

    def test_file_roundtrip(self, small_space, oracle, tmp_path):
        search = warm_search(small_space, oracle)
        path = tmp_path / "search.json"
        save_search(search, path)
        restored = load_search(path, small_space, seed_on_resume=9)
        assert list(restored.population) == list(search.population)

    def test_random_search_roundtrip(self, small_space, tmp_path):
        rs = RandomSearch(small_space, rng=0)
        for _ in range(10):
            rs.tell(rs.ask(), 0.5)
        path = tmp_path / "rs.json"
        save_search(rs, path)
        restored = load_search(path, small_space, seed_on_resume=1)
        assert restored.n_told == 10
        assert restored.best_reward == 0.5

    def test_rl_roundtrip_exact(self, small_space, tmp_path):
        """DistributedRL checkpoints: policy logits, baseline, counters."""
        rl = DistributedRL(small_space, rng=0, n_agents=2,
                           workers_per_agent=2)
        rng = np.random.default_rng(4)
        rl.run_serial(lambda arch: float(rng.uniform()), n_rounds=3)
        path = tmp_path / "rl.json"
        save_search(rl, path)
        restored = load_search(path, small_space)
        assert restored.round_index == rl.round_index
        assert restored.n_told == rl.n_told
        for a, b in zip(restored.agents, rl.agents):
            for la, lb in zip(a.logits, b.logits):
                np.testing.assert_array_equal(la, lb)
            assert a.value_baseline == b.value_baseline
        # The restored policy proposes the bit-identical next round.
        assert restored.propose_round() == rl.propose_round()

    def test_unknown_algorithm_in_file(self, small_space, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"algorithm": "Quantum"}')
        with pytest.raises(ValueError, match="unknown algorithm"):
            load_search(path, small_space)

    def test_version_and_format_tagged(self, small_space, oracle):
        state = search_state(warm_search(small_space, oracle))
        assert state["format"] == SEARCH_FORMAT
        assert state["version"] == CHECKPOINT_VERSION

    def test_future_version_rejected(self, small_space, oracle):
        state = search_state(warm_search(small_space, oracle))
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            restore_search(state, small_space)


class TestRngExactness:
    def test_restored_search_continues_bit_identically(self, small_space,
                                                       oracle, tmp_path):
        """Restore is NOT reseed: proposals continue the same bit-stream."""
        search = warm_search(small_space, oracle)
        path = tmp_path / "ckpt.json"
        save_search(search, path)
        restored = load_search(path, small_space)
        assert [restored.ask() for _ in range(20)] \
            == [search.ask() for _ in range(20)]

    def test_seed_on_resume_ignored_for_v2(self, small_space, oracle,
                                           tmp_path):
        search = warm_search(small_space, oracle)
        path = tmp_path / "ckpt.json"
        save_search(search, path)
        a = load_search(path, small_space, seed_on_resume=1)
        b = load_search(path, small_space, seed_on_resume=2)
        assert a.ask() == b.ask()


class TestNeverToldSearch:
    def test_minus_inf_roundtrip(self, small_space, tmp_path):
        """best_reward = -inf must survive a file round-trip as valid
        JSON (null), not the spec-violating -Infinity token."""
        search = AgingEvolution(small_space, rng=0, population_size=5,
                                sample_size=2)
        assert search.best_reward == -float("inf")
        path = tmp_path / "fresh.json"
        save_search(search, path)
        assert "Infinity" not in path.read_text()
        import json
        json.loads(path.read_text())  # strict-spec parse must succeed
        restored = load_search(path, small_space)
        assert restored.best_reward == -float("inf")
        assert restored.best_architecture is None


class TestLegacyV1:
    def test_v1_layout_still_loads(self, small_space, tmp_path):
        """Pre-versioning files (no format/version keys, no RNG state)
        load via the documented seed_on_resume fallback."""
        sampler = RandomSearch(small_space, rng=0)
        a1, a2 = list(sampler.ask()), list(sampler.ask())
        v1 = {"algorithm": "AgingEvolution", "population_size": 4,
              "sample_size": 2, "aging": True, "n_asked": 6, "n_told": 6,
              "best_reward": 0.75,
              "best_architecture": a1,
              "population": [[a1, 0.75], [a2, 0.5]]}
        path = tmp_path / "v1.json"
        atomic_write_json(path, v1)
        restored = load_search(path, small_space, seed_on_resume=9)
        assert restored.n_told == 6
        assert restored.best_reward == 0.75
        assert len(restored.population) == 2
        restored.ask()  # reseeded generator is usable


class TestAtomicWrite:
    def test_crash_mid_write_preserves_previous(self, tmp_path,
                                                monkeypatch):
        """A kill during save leaves the last good checkpoint intact."""
        import json

        import repro.durable as ckpt
        path = tmp_path / "state.json"
        atomic_write_json(path, {"generation": 1})

        real_replace = ckpt.os.replace

        def dying_replace(src, dst):
            raise OSError("killed before publish")

        monkeypatch.setattr(ckpt.os, "replace", dying_replace)
        with pytest.raises(OSError):
            atomic_write_json(path, {"generation": 2})
        assert json.loads(path.read_text()) == {"generation": 1}
        monkeypatch.setattr(ckpt.os, "replace", real_replace)
        atomic_write_json(path, {"generation": 2})
        assert json.loads(path.read_text()) == {"generation": 2}

    def test_nan_rejected_before_any_bytes_written(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, {"ok": 1.0})
        with pytest.raises(ValueError):
            atomic_write_json(path, {"bad": float("nan")})
        import json
        assert json.loads(path.read_text()) == {"ok": 1.0}


class TestResumeContinuesSearch:
    def test_resumed_search_keeps_improving(self, small_space, oracle,
                                            tmp_path):
        """Two half-length allocations ~ one full allocation."""
        search = warm_search(small_space, oracle, n=150)
        path = tmp_path / "ckpt.json"
        save_search(search, path)
        resumed = load_search(path, small_space, seed_on_resume=2)
        # Proposals come from the restored population, not cold-start
        # randoms: the ask counter is past the random-init phase.
        child = resumed.ask()
        dists = [sum(a != b for a, b in zip(child, member))
                 for member, _ in resumed.population]
        assert min(dists) <= 1
        rng = np.random.default_rng(3)
        for _ in range(150):
            arch = resumed.ask()
            resumed.tell(arch, oracle.observed_quality(arch, rng))
        assert resumed.best_reward >= search.best_reward

    def test_resume_on_simulated_cluster(self, small_space, oracle,
                                         tmp_path):
        """A killed allocation resumes on the DES and completes more work."""
        evaluator = SurrogateEvaluator(small_space, oracle)
        part = ThetaPartition(n_nodes=6, wall_seconds=1500.0)
        search = AgingEvolution(small_space, rng=0, population_size=10,
                                sample_size=3)
        t1 = run_asynchronous_search(search, evaluator, part, rng=1)
        save_search(search, tmp_path / "alloc1.json")
        resumed = load_search(tmp_path / "alloc1.json", small_space,
                              seed_on_resume=5)
        t2 = run_asynchronous_search(resumed, evaluator, part, rng=2)
        assert resumed.n_told == search.n_told + t2.n_evaluations
        assert resumed.best_reward >= search.best_reward


class TestLegacyCampaignFixture:
    """A v2 campaign checkpoint written by the pre-fused-kernel tree
    (tests/data/) resumes under today's code and reproduces the exact
    recorded evaluation trajectory — rewards, timestamps, node
    placement and all."""

    def test_legacy_v2_campaign_resumes_bitwise(self, tmp_path):
        import json
        import shutil
        from pathlib import Path

        from repro.hpc import resume_search
        from repro.nas.space.ops import Operation
        from repro.nas.space.search_space import StackedLSTMSpace

        data = Path(__file__).parent / "data"
        expected = json.loads(
            (data / "legacy_campaign_expected.json").read_text())
        # resume_search consumes checkpoint state; work on a copy so the
        # committed fixture is never touched.
        ckpt = tmp_path / "campaign.json"
        shutil.copy(data / "legacy_campaign_v2.json", ckpt)
        ops = (Operation("identity"), Operation("lstm", 4),
               Operation("lstm", 8), Operation("lstm", 12))
        space = StackedLSTMSpace(n_layers=3, input_dim=3, output_dim=3,
                                 operations=ops, max_skip_depth=3)
        evaluator = SurrogateEvaluator(
            space, ArchitecturePerformanceModel(space, seed=0))
        _, tracker = resume_search(ckpt, space, evaluator)
        records = [[list(r.architecture), r.reward, r.start_time,
                    r.end_time, r.node] for r in tracker.records]
        assert records == expected["records"]
