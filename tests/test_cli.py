from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, main

REPO = Path(__file__).resolve().parent.parent


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_every_paper_artifact_has_an_entry(self):
        assert set(EXPERIMENTS) == {"fig3", "fig4", "fig5", "fig6", "fig7",
                                    "fig8", "fig9", "table1", "table2",
                                    "table3"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_help_documents_bench_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "bench" in out
        assert "BENCH_core.json" in out

    def test_bench_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--quick", "--reps", "--out", "--filter", "--obs"):
            assert flag in out

    @pytest.mark.parametrize("absolute_out", [False, True],
                             ids=["same-string", "relative-vs-absolute"])
    def test_bench_compare_refuses_to_overwrite_its_baseline(
            self, tmp_path, monkeypatch, absolute_out):
        """--out is written before the comparison runs, so a baseline
        that is also the output would be clobbered (and the next gate
        would compare against a one-entry file). Refused before timing,
        with the rejected-baseline exit code."""
        baseline = tmp_path / "BENCH_core.json"
        baseline.write_bytes((REPO / "BENCH_core.json").read_bytes())
        before = baseline.read_bytes()
        monkeypatch.chdir(tmp_path)
        out = str(baseline) if absolute_out else "BENCH_core.json"
        assert main(["bench", "--quick", "--reps", "1", "--filter",
                     "rnn_fwd", "--out", out,
                     "--compare", "BENCH_core.json"]) == 2
        assert baseline.read_bytes() == before

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--preset", "huge"])

    def test_runs_an_experiment(self, capsys):
        # fig4 is the lightest driver (search over the surrogate only).
        assert main(["fig4", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "best AE-discovered architecture" in out
        assert "layer ops" in out


class TestServeCLI:
    def test_help_documents_serve_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--registry", "--train-demo", "--promote",
                     "--loadgen", "--report", "--max-batch"):
            assert flag in out

    def test_train_demo_status_loadgen_round_trip(self, tmp_path,
                                                  capsys):
        """The CI serve-smoke sequence: train a tiny demo emulator,
        publish + promote it, run a short load burst, and check the
        SLO report file validates against the schema."""
        import json

        from repro.serve import validate_slo_report

        registry = str(tmp_path / "reg")
        report = tmp_path / "slo.json"
        assert main(["serve", "--registry", registry,
                     "--train-demo", "demo"]) == 0
        assert main(["serve", "--registry", registry, "--status"]) == 0
        assert "demo *active*" in capsys.readouterr().out
        assert main(["serve", "--registry", registry, "--loadgen",
                     "--clients", "2", "--requests", "6",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        with open(report, encoding="utf-8") as fh:
            data = json.load(fh)
        validate_slo_report(data)
        assert data["n_requests"] == 12

    def test_loadgen_without_active_version_fails(self, tmp_path):
        with pytest.raises(ValueError, match="no active version"):
            main(["serve", "--registry", str(tmp_path / "empty"),
                  "--loadgen"])

    def test_router_loadgen_round_trip(self, tmp_path, capsys):
        """The CI router-smoke sequence: train-demo, then a short load
        burst through the sharded multi-process router; the report must
        validate and carry the router's shard statistics."""
        import json

        from repro.serve import validate_slo_report

        registry = str(tmp_path / "reg")
        report = tmp_path / "router-slo.json"
        assert main(["serve", "--registry", registry,
                     "--train-demo", "demo"]) == 0
        capsys.readouterr()
        assert main(["serve", "--registry", registry, "--router",
                     "--workers", "2", "--loadgen",
                     "--clients", "2", "--requests", "5",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "router serving version 'demo'" in out
        assert "SLO report" in out
        with open(report, encoding="utf-8") as fh:
            data = json.load(fh)
        validate_slo_report(data)
        assert data["n_requests"] == 10
        assert data["n_errors"] == 0
        assert data["engine"]["n_workers"] == 2
        assert {s["generation"] for s in data["engine"]["shards"]} \
            == {1}

    def test_bad_arguments_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--registry", str(tmp_path / "r"),
                  "--clients", "0", "--loadgen"])
        with pytest.raises(SystemExit):
            main(["serve", "--registry", str(tmp_path / "r"),
                  "--client-processes", "--loadgen"])
