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
