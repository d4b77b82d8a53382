"""The `repro search` subcommand, including its --workers flag."""

from __future__ import annotations

import pytest

from repro.cli import main


def _search(capsys, *extra):
    code = main(["search", "--nodes", "4", "--wall", "600",
                 "--seed", "0", *extra])
    return code, capsys.readouterr().out


def _exit_code(argv):
    """What the shell sees: a returned code or argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSearchCLI:
    def test_random_search_runs(self, capsys):
        code, out = _search(capsys, "--algorithm", "rs")
        assert code == 0
        assert "evaluations completed:" in out
        assert "best reward:" in out
        assert "in-loop" in out

    def test_workers_zero_and_pool_agree(self, capsys):
        """The user-facing determinism promise: --workers 0 and
        --workers 2 print identical search outcomes."""
        _, serial = _search(capsys, "--algorithm", "rs", "--workers", "0")
        _, pooled = _search(capsys, "--algorithm", "rs", "--workers", "2")
        keep = ("evaluations completed:", "best reward:",
                "best architecture:", "node utilization:")
        pick = lambda text: [ln for ln in text.splitlines()
                             if ln.startswith(keep)]
        assert pick(serial) == pick(pooled)
        assert "serial backend" in serial
        assert "2-worker pool" in pooled

    def test_rl_algorithm_runs(self, capsys):
        code, out = main(["search", "--algorithm", "rl", "--nodes", "8",
                          "--wall", "500", "--agents", "2"]), \
            capsys.readouterr().out
        assert code == 0
        assert "evaluations completed:" in out

    def test_obs_flag_prints_pool_metrics(self, capsys):
        code, out = _search(capsys, "--algorithm", "rs", "--workers", "2",
                            "--obs")
        assert code == 0
        assert "parallel/tasks_dispatched" in out

    def test_invalid_arguments_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["search", "--nodes", "0"])
        with pytest.raises(SystemExit):
            main(["search", "--wall", "-5"])
        with pytest.raises(SystemExit):
            main(["search", "--algorithm", "nope"])

    @pytest.mark.parametrize("argv", [
        ["--workers", "-3"],
        ["--algorithm", "sh", "--workers", "-2"],
        ["--algorithm", "rl", "--agents", "0"],
        ["--algorithm", "rl", "--nodes", "2"],
        ["--checkpoint", "{tmp}/c.json", "--checkpoint-every", "0"],
    ])
    def test_bad_arguments_exit_2(self, capsys, tmp_path, argv):
        """A bad value is a usage error (exit 2), never a traceback or
        a run with some other value."""
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert _exit_code(["search", *argv]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "evaluations completed" not in captured.out
        assert not (tmp_path / "c.json").exists()

    def test_top_level_help_names_search(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "search" in capsys.readouterr().out


class TestCampaignCLI:
    def test_walltime_resume_matches_single_run(self, capsys, tmp_path):
        """The user-facing campaign promise: a run split by --walltime
        and finished with --resume prints the outcome of one full run."""
        keep = ("evaluations completed:", "best reward:",
                "best architecture:", "node utilization:")
        pick = lambda text: [ln for ln in text.splitlines()
                             if ln.startswith(keep)]
        _, full = _search(capsys, "--algorithm", "ae")
        ckpt = str(tmp_path / "campaign.json")
        code, out = _search(capsys, "--algorithm", "ae",
                            "--walltime", "250", "--checkpoint", ckpt,
                            "--checkpoint-every", "100")
        assert code == 0
        assert "checkpoint written" in out
        code = main(["search", "--resume", ckpt, "--seed", "0"])
        resumed = capsys.readouterr().out
        assert code == 0
        assert "resuming campaign" in resumed
        assert pick(resumed) == pick(full)

    def test_campaign_flags_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["search", "--walltime", "-1"])
        with pytest.raises(SystemExit):
            main(["search", "--checkpoint-every", "60"])  # no --checkpoint

    @pytest.mark.parametrize("resume_with", [
        ["--benchmark", "{tmp}/a.npz", "--workers", "2"],
        ["--benchmark", "{tmp}/b.npz"],
    ])
    def test_refused_resume_exits_2(self, capsys, tmp_path, resume_with):
        """Resuming a campaign as a different experiment (another
        evaluation mode, another archive) is refused with a diagnosis."""
        for seed, name in (("0", "a"), ("1", "b")):
            assert main(["benchmark", "build", "--seed", seed,
                         "--out", str(tmp_path / f"{name}.npz")]) == 0
        ckpt = str(tmp_path / "campaign.json")
        assert main(["search", "--benchmark", str(tmp_path / "a.npz"),
                     "--algorithm", "rs", "--nodes", "4", "--wall", "600",
                     "--walltime", "250", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        argv = [arg.format(tmp=tmp_path) for arg in resume_with]
        assert _exit_code(["search", "--resume", ckpt, *argv]) == 2
        assert "different experiment" in capsys.readouterr().err


class TestResumeRefusalNamesFile:
    """A refused --resume names the file it was given, never an internal
    variable, and exits 2."""

    def _refused(self, capsys, argv) -> str:
        assert _exit_code(["search", *argv]) == 2
        return capsys.readouterr().err

    def test_evaluation_mode(self, capsys, tmp_path):
        ckpt = str(tmp_path / "campaign.json")
        code, _ = _search(capsys, "--algorithm", "ae", "--walltime", "250",
                          "--checkpoint", ckpt)
        assert code == 0
        err = self._refused(capsys, ["--resume", ckpt, "--workers", "2"])
        assert err.startswith(
            f"error: {ckpt}: saved evaluation mode (--workers) 'in-loop' "
            "differs from the current 'backend'; refusing to resume a "
            "different experiment")

    def test_multifidelity_scheduler(self, capsys, tmp_path):
        ckpt = str(tmp_path / "mf.json")
        assert main(["search", "--algorithm", "sh", "--candidates", "4",
                     "--stop-after", "2", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        err = self._refused(capsys, ["--resume", ckpt, "--eta", "3"])
        assert err.startswith(
            f"error: {ckpt}: saved scheduler (--eta/--min-epochs/"
            "--brackets) ")
        assert "refusing to resume a different experiment" in err

    def test_search_checkpoint_is_not_a_campaign(self, capsys, tmp_path):
        from repro.nas import AgingEvolution, StackedLSTMSpace, save_search
        path = str(tmp_path / "search.json")
        save_search(AgingEvolution(StackedLSTMSpace(), rng=0), path)
        err = self._refused(capsys, ["--resume", path])
        assert err.startswith(
            f"error: {path}: not a campaign checkpoint (format "
            "'repro-search-checkpoint')")


class TestExecutorResumeClusterFlags:
    """A resumed executor campaign runs on the partition and agents it
    was saved with, so --nodes/--wall/--agents are usage errors; this
    invocation's --walltime and --checkpoint-every stay legal."""

    @pytest.fixture
    def campaign(self, capsys, tmp_path):
        ckpt = tmp_path / "campaign.json"
        code, _ = _search(capsys, "--algorithm", "ae", "--walltime", "250",
                          "--checkpoint", str(ckpt))
        assert code == 0
        return ckpt

    @pytest.mark.parametrize("flag", [["--nodes", "3"], ["--wall", "7"],
                                      ["--agents", "9"]],
                             ids=lambda flag: flag[0])
    def test_refused(self, capsys, campaign, flag):
        saved = campaign.read_bytes()
        assert _exit_code(["search", "--resume", str(campaign), "--seed",
                           "0", "--checkpoint", str(campaign), *flag]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert flag[0] in captured.err
        assert "completed:" not in captured.out
        assert campaign.read_bytes() == saved

    def test_walltime_and_cadence_allowed(self, capsys, campaign):
        assert main(["search", "--resume", str(campaign), "--seed", "0",
                     "--walltime", "100", "--checkpoint", str(campaign),
                     "--checkpoint-every", "50"]) == 0
        out = capsys.readouterr().out
        assert "resuming campaign" in out
        assert "checkpoint written" in out


class TestMultiFidelityIgnoredFlags:
    """sh/hyperband bound a campaign by --stop-after and checkpoint after
    every evaluation, so the executor-only flags are usage errors."""

    EXECUTOR_FLAGS = [["--walltime", "1"], ["--checkpoint-every", "5"],
                      ["--nodes", "3"], ["--wall", "7"], ["--agents", "9"]]

    @pytest.mark.parametrize("algorithm", ["sh", "hyperband"])
    @pytest.mark.parametrize("flag", EXECUTOR_FLAGS,
                             ids=lambda flag: flag[0])
    def test_refused_with_algorithm(self, capsys, tmp_path, algorithm,
                                    flag):
        ckpt = tmp_path / "sh.json"
        assert _exit_code(["search", "--algorithm", algorithm,
                           "--checkpoint", str(ckpt), *flag]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert flag[0] in captured.err
        assert "completed:" not in captured.out
        assert not ckpt.exists()

    @pytest.mark.parametrize("flag", EXECUTOR_FLAGS,
                             ids=lambda flag: flag[0])
    def test_refused_on_multifidelity_resume(self, capsys, tmp_path, flag):
        ckpt = tmp_path / "mf.json"
        assert main(["search", "--algorithm", "sh", "--candidates", "4",
                     "--stop-after", "2", "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        saved = ckpt.read_bytes()
        assert _exit_code(["search", "--resume", str(ckpt),
                           "--checkpoint", str(ckpt), *flag]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert flag[0] in captured.err
        assert "completed:" not in captured.out
        assert ckpt.read_bytes() == saved

    def test_executor_defaults_unchanged(self, capsys):
        code, out = main(["search", "--algorithm", "rl"]), \
            capsys.readouterr().out
        assert code == 0
        assert "search: rl on 16 simulated nodes, 3600s simulated wall" \
            in out
