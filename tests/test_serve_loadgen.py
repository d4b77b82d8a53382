"""Closed-loop load generator and SLO report (repro.serve.loadgen)."""

import json
import socket
import threading

import numpy as np
import pytest

from repro.serve import (SLO_REPORT_FORMAT, SLO_REPORT_VERSION,
                         ForecastEngine, ForecastRouter, ModelRegistry,
                         SLOReport, nearest_rank_percentile, run_loadgen,
                         run_router_loadgen, validate_slo_report)


@pytest.fixture()
def windows(tiny_emulator, generator):
    snaps = generator.snapshots(np.arange(60))
    return tiny_emulator.pipeline.windows_from_snapshots(snaps).inputs


class TestNearestRankPercentile:
    def test_known_values(self):
        sample = [10.0, 20.0, 30.0, 40.0]
        assert nearest_rank_percentile(sample, 50.0) == 20.0
        assert nearest_rank_percentile(sample, 75.0) == 30.0
        assert nearest_rank_percentile(sample, 95.0) == 40.0
        assert nearest_rank_percentile(sample, 100.0) == 40.0

    def test_single_element(self):
        assert nearest_rank_percentile([7.0], 99.0) == 7.0

    @pytest.mark.parametrize("q", [0.0, -1.0, 100.5])
    def test_out_of_range(self, q):
        with pytest.raises(ValueError, match="percentile"):
            nearest_rank_percentile([1.0], q)

    def test_empty_sample(self):
        with pytest.raises(ValueError, match="empty"):
            nearest_rank_percentile([], 50.0)


class TestRunLoadgen:
    def test_report_well_formed(self, tiny_emulator, windows, tmp_path):
        with ForecastEngine(tiny_emulator, cache_entries=0) as engine:
            report = run_loadgen(engine, windows, clients=3,
                                 requests_per_client=8)
        assert report.clients == 3
        assert report.n_requests == 24
        assert report.n_errors == 0
        assert report.throughput_rps > 0
        lat = report.latency_ms
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        # The exported JSON round-trips through the schema validator.
        path = tmp_path / "slo.json"
        report.dump(path)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        validate_slo_report(data)
        assert data["format"] == SLO_REPORT_FORMAT
        assert data["version"] == SLO_REPORT_VERSION

    def test_small_pool_exercises_cache(self, tiny_emulator, windows):
        with ForecastEngine(tiny_emulator) as engine:
            report = run_loadgen(engine, windows[:2], clients=2,
                                 requests_per_client=10)
        assert report.engine["cache"]["hits"] > 0

    def test_table_mentions_key_numbers(self, tiny_emulator, windows):
        with ForecastEngine(tiny_emulator, cache_entries=0) as engine:
            report = run_loadgen(engine, windows, clients=2,
                                 requests_per_client=4)
        text = report.table()
        assert "throughput" in text
        assert "p95" in text
        assert "cache" in text

    def test_run_that_served_nothing_reports_every_error(
            self, tiny_emulator, windows):
        """Every request times out: the report says so and validates."""
        with ForecastEngine(tiny_emulator, cache_entries=0,
                            pace_s=0.5) as engine:
            report = run_loadgen(engine, windows, clients=1,
                                 requests_per_client=2, timeout_s=1e-3)
        assert report.n_requests == report.n_errors == 2
        assert report.throughput_rps == 0.0
        validate_slo_report(report.as_json())

    def test_engine_must_be_running(self, tiny_emulator, windows):
        engine = ForecastEngine(tiny_emulator)
        with pytest.raises(RuntimeError, match="not running"):
            run_loadgen(engine, windows)

    def test_argument_validation(self, tiny_emulator, windows):
        with ForecastEngine(tiny_emulator) as engine:
            with pytest.raises(ValueError, match="clients"):
                run_loadgen(engine, windows, clients=0)
            with pytest.raises(ValueError, match="requests_per_client"):
                run_loadgen(engine, windows, requests_per_client=0)
            with pytest.raises(ValueError, match="windows"):
                run_loadgen(engine, np.zeros((0, 4, 3)))
            with pytest.raises(ValueError, match="windows"):
                run_loadgen(engine, np.zeros((4, 3)))


class TestValidateSLOReport:
    def _valid(self):
        return {"format": SLO_REPORT_FORMAT, "version": SLO_REPORT_VERSION,
                "clients": 2, "n_requests": 4, "n_errors": 0,
                "duration_s": 0.1, "throughput_rps": 40.0,
                "latency_ms": {"mean": 1.0, "p50": 1.0, "p95": 2.0,
                               "p99": 3.0, "max": 3.0},
                "engine": {}}

    def test_valid_passes(self):
        validate_slo_report(self._valid())

    def test_wrong_format(self):
        data = self._valid()
        data["format"] = "nope"
        with pytest.raises(ValueError, match="not an SLO report"):
            validate_slo_report(data)

    def test_wrong_version(self):
        data = self._valid()
        data["version"] = SLO_REPORT_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            validate_slo_report(data)

    def test_missing_key(self):
        data = self._valid()
        del data["throughput_rps"]
        with pytest.raises(ValueError, match="missing key"):
            validate_slo_report(data)

    def test_negative_latency(self):
        data = self._valid()
        data["latency_ms"]["p95"] = -1.0
        with pytest.raises(ValueError, match="finite and"):
            validate_slo_report(data)

    def test_non_monotone_percentiles(self):
        data = self._valid()
        data["latency_ms"]["p95"] = 5.0  # above p99
        with pytest.raises(ValueError, match="monotone"):
            validate_slo_report(data)

    def test_not_a_dict(self):
        with pytest.raises(ValueError, match="dict"):
            validate_slo_report([1, 2, 3])

    def test_run_that_served_nothing_passes(self):
        data = self._valid()
        data.update(n_errors=data["n_requests"], throughput_rps=0.0,
                    latency_ms=dict.fromkeys(
                        ("mean", "p50", "p95", "p99", "max"), 0.0))
        validate_slo_report(data)

    def test_zero_throughput_with_served_requests(self):
        data = self._valid()
        data["throughput_rps"] = 0.0
        with pytest.raises(ValueError, match="throughput_rps"):
            validate_slo_report(data)


def test_router_table_sums_the_shards():
    """A router report's engine numbers are the sums over its shards (a
    dead shard carries none)."""
    def shard(n_batches, mean_batch_size, hits, misses):
        return {"engine": {"n_batches": n_batches,
                           "mean_batch_size": mean_batch_size,
                           "cache": {"hits": hits, "misses": misses}}}

    report = SLOReport(clients=1, n_requests=10, n_errors=0,
                       duration_s=1.0, throughput_rps=10.0,
                       latency_ms={}, engine={
                           "n_workers": 3,
                           "shards": [shard(2, 1.5, 1, 3),
                                      shard(2, 2.5, 2, 4),
                                      {"alive": False}]})
    text = report.table()
    assert "mean batch size        2.00" in text
    assert "cache hits/miss  3/7" in text


def _closed_port() -> tuple[str, int]:
    """A loopback address nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()


@pytest.fixture(scope="module")
def router(tiny_emulator, tmp_path_factory):
    root = tmp_path_factory.mktemp("loadgen-registry")
    ModelRegistry(root).publish("v1", tiny_emulator, activate=True)
    with ForecastRouter(root, n_workers=2) as router:
        yield router


@pytest.mark.parametrize("processes", [False, True],
                         ids=["threads", "processes"])
class TestRouterLoadgen:
    def test_two_worker_router(self, router, windows, processes):
        report = run_router_loadgen(router.address, windows, clients=3,
                                    requests_per_client=4,
                                    processes=processes)
        assert report.n_errors == 0
        assert report.n_requests == 3 * 4
        validate_slo_report(report.as_json())
        assert report.engine["n_workers"] == 2
        assert {s["generation"] for s in report.engine["shards"]} == {1}

    def test_unreachable_router_counts_every_request_failed(
            self, windows, processes):
        """Clients that cannot connect still start the run; the call
        returns a report instead of hanging or raising."""
        outcome: dict = {}

        def run() -> None:
            try:
                outcome["report"] = run_router_loadgen(
                    _closed_port(), windows, clients=2,
                    requests_per_client=2, processes=processes)
            except Exception as error:  # noqa: BLE001 - reported below
                outcome["report"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "load generator hung"
        report = outcome["report"]
        assert isinstance(report, SLOReport), report
        assert report.n_requests == report.n_errors == 4
        assert report.throughput_rps == 0.0
        assert report.engine == {}


class TestRouterLoadgenValidation:
    """Input validation of run_router_loadgen."""

    def test_rejects_bad_client_counts(self):
        from repro.serve import run_router_loadgen
        windows = np.zeros((4, 4, 3))
        with pytest.raises(ValueError, match="clients"):
            run_router_loadgen(("127.0.0.1", 1), windows, clients=0)
        with pytest.raises(ValueError, match="requests_per_client"):
            run_router_loadgen(("127.0.0.1", 1), windows,
                               requests_per_client=0)

    def test_rejects_bad_window_pool(self):
        from repro.serve import run_router_loadgen
        with pytest.raises(ValueError, match="windows"):
            run_router_loadgen(("127.0.0.1", 1), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="windows"):
            run_router_loadgen(("127.0.0.1", 1), np.zeros((0, 4, 3)))
