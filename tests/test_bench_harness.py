"""Tier-1 tests of the microbenchmark harness (repro.bench).

The timed suite itself lives under benchmarks/perf (marker ``bench``);
here we verify the harness machinery and the BENCH_core.json contract
fast enough for the default suite: schema validation, setup/timing
separation, and one reps=1 run of the full quick suite through the
``repro bench`` CLI path.
"""

import json
import multiprocessing
import tempfile
import threading
from contextlib import contextmanager, nullcontext

import pytest

from repro.bench import (
    Benchmark,
    default_suite,
    run_benchmark,
    run_suite,
    validate_bench_data,
)
from repro.cli import main


def _constant_bench(name="noop", metadata=None):
    return Benchmark(name=name, make=lambda: nullcontext(lambda: None),
                     metadata=metadata or {"k": 1})


class TestRunBenchmark:
    def test_fake_clock_statistics(self):
        ticks = iter(range(100))
        result = run_benchmark(_constant_bench(), reps=4,
                               clock=lambda: float(next(ticks)))
        # Every timed rep spans exactly one tick on the fake clock.
        assert result.mean_s == 1.0
        assert result.std_s == 0.0
        assert result.reps == 4

    def test_setup_not_timed(self):
        calls = {"make": 0, "run": 0, "teardown": 0}

        @contextmanager
        def make():
            calls["make"] += 1

            def run():
                calls["run"] += 1
            yield run
            calls["teardown"] += 1

        run_benchmark(Benchmark(name="b", make=make), reps=3)
        assert calls == {"make": 1, "run": 4,  # 1 warmup + 3 timed
                         "teardown": 1}

    def test_invalid_reps(self):
        with pytest.raises(ValueError, match="reps"):
            run_benchmark(_constant_bench(), reps=0)


class TestSchema:
    def _good_entry(self):
        return {"mean_s": 0.5, "std_s": 0.0, "reps": 3, "metadata": {}}

    def test_accepts_valid(self):
        validate_bench_data({"a": self._good_entry(),
                             "b": self._good_entry()})

    @pytest.mark.parametrize("mutate,match", [
        (lambda e: e.pop("mean_s"), "missing"),
        (lambda e: e.update(mean_s=0.0), "positive"),
        (lambda e: e.update(mean_s=float("nan")), "finite"),
        (lambda e: e.update(std_s=-1.0), "non-negative"),
        (lambda e: e.update(reps=0), "positive int"),
        (lambda e: e.update(reps=True), "positive int"),
        (lambda e: e.update(metadata=[]), "metadata"),
    ])
    def test_rejects_invalid_entries(self, mutate, match):
        entry = self._good_entry()
        mutate(entry)
        with pytest.raises(ValueError, match=match):
            validate_bench_data({"a": entry})

    def test_rejects_empty_and_nondict(self):
        with pytest.raises(ValueError):
            validate_bench_data({})
        with pytest.raises(ValueError):
            validate_bench_data([1, 2])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_suite([_constant_bench("x"), _constant_bench("x")], reps=1)


class TestCoreSuite:
    def test_quick_suite_has_required_coverage(self):
        names = [b.name for b in default_suite(quick=True)]
        assert len(names) >= 6
        assert any(n.startswith("lstm_fwd_bwd") for n in names)
        assert any(n.startswith("gru_fwd_bwd") for n in names)
        assert "trainer_epoch" in names
        assert "pod_basis" in names
        assert any(n.startswith("random_search") for n in names)

    def test_cli_bench_quick_writes_valid_trajectory(self, tmp_path,
                                                     capsys):
        """The acceptance path: `repro bench --quick` produces a valid
        BENCH_core.json with >= 6 named benchmarks (reps=1 for speed)."""
        out = tmp_path / "BENCH_core.json"
        assert main(["bench", "--quick", "--reps", "1",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        validate_bench_data(data)
        assert len(data) >= 6
        for entry in data.values():
            assert entry["reps"] == 1
        assert str(out) in capsys.readouterr().out

    def test_cli_bench_list_and_filter(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert "pod_basis" in listed

        out = tmp_path / "pod.json"
        assert main(["bench", "--quick", "--reps", "1", "--filter",
                     "pod_basis", "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())) == {"pod_basis"}

        assert main(["bench", "--filter", "no_such_bench"]) == 2


class TestTeardown:
    """Every entry tears down what its setup started: running the suite
    leaves no pool or router worker process, no engine or router thread,
    and no temp directory behind."""

    #: Entries whose setup starts processes, threads or temp directories.
    RESOURCEFUL = ("checkpoint_roundtrip", "nas_benchmark_campaign",
                   "nas_hyperband_campaign", "parallel_search_",
                   "serve_", "pipeline_cycle")

    @staticmethod
    def _repro_threads() -> set:
        return {t for t in threading.enumerate()
                if t.name.startswith("repro-")}

    def test_suite_leaves_nothing_running(self, tmp_path, monkeypatch):
        suite = [b for b in default_suite(quick=True, max_workers=4)
                 if b.name.startswith(self.RESOURCEFUL)]
        assert len(suite) == 13
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        children = set(multiprocessing.active_children())
        threads = self._repro_threads()
        run_suite(suite, reps=1)
        added = self._repro_threads() - threads
        for thread in added:
            thread.join(timeout=5.0)
        assert [t.name for t in added if t.is_alive()] == []
        assert set(multiprocessing.active_children()) <= children
        assert sorted(p.name for p in tmp_path.iterdir()) == []
