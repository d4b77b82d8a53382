"""Observability layer (repro.obs): timer arithmetic, counters, JSONL
round-trip, registry isolation, and the zero-behaviour-change guard.

The guard test is the load-bearing one: every instrumented hot path
(Trainer, evaluators, executors, layers) must produce bitwise-identical
numerics whether the registry is enabled, disabled, or the code had
never been instrumented at all — observability may only ever *read*
the computation.
"""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.baselines import build_manual_lstm
from repro.nn import Trainer
from repro.obs import Registry


def fake_clock_registry():
    """Registry on a manually advanced clock; returns (registry, tick)."""
    t = [0.0]
    registry = Registry(clock=lambda: t[0])
    registry.enabled = True

    def tick(seconds):
        t[0] += seconds
    return registry, tick


class TestScopeArithmetic:
    def test_single_scope(self):
        reg, tick = fake_clock_registry()
        with reg.scope("work"):
            tick(2.0)
        stats = reg.scopes["work"]
        assert stats.n_calls == 1
        assert stats.total_s == pytest.approx(2.0)
        assert stats.self_s == pytest.approx(2.0)
        assert stats.min_s == stats.max_s == pytest.approx(2.0)

    def test_nested_exclusive_time(self):
        reg, tick = fake_clock_registry()
        with reg.scope("outer"):
            tick(1.0)
            with reg.scope("inner"):
                tick(2.0)
            tick(0.5)
        outer, inner = reg.scopes["outer"], reg.scopes["outer/inner"]
        assert outer.total_s == pytest.approx(3.5)
        assert outer.self_s == pytest.approx(1.5)   # 3.5 - nested 2.0
        assert inner.total_s == pytest.approx(2.0)
        assert inner.self_s == pytest.approx(2.0)

    def test_sibling_scopes_both_subtract_from_parent(self):
        reg, tick = fake_clock_registry()
        with reg.scope("p"):
            with reg.scope("a"):
                tick(1.0)
            with reg.scope("b"):
                tick(2.0)
        assert reg.scopes["p"].total_s == pytest.approx(3.0)
        assert reg.scopes["p"].self_s == pytest.approx(0.0)

    def test_repeated_calls_aggregate_by_path(self):
        reg, tick = fake_clock_registry()
        for dt in (1.0, 3.0):
            with reg.scope("epoch"):
                tick(dt)
        stats = reg.scopes["epoch"]
        assert stats.n_calls == 2
        assert stats.total_s == pytest.approx(4.0)
        assert stats.mean_s == pytest.approx(2.0)
        assert stats.min_s == pytest.approx(1.0)
        assert stats.max_s == pytest.approx(3.0)

    def test_recursion_aggregates_on_distinct_paths(self):
        reg, tick = fake_clock_registry()
        with reg.scope("f"):
            tick(1.0)
            with reg.scope("f"):
                tick(1.0)
        assert reg.scopes["f"].total_s == pytest.approx(2.0)
        assert reg.scopes["f"].self_s == pytest.approx(1.0)
        assert reg.scopes["f/f"].total_s == pytest.approx(1.0)

    def test_elapsed_exposed_and_exception_safe(self):
        reg, tick = fake_clock_registry()
        scope = reg.scope("risky")
        with pytest.raises(RuntimeError):
            with scope:
                tick(1.5)
                raise RuntimeError("boom")
        assert scope.elapsed_s == pytest.approx(1.5)
        assert reg.scopes["risky"].n_calls == 1
        # The frame stack unwound: a new top-level scope is not nested.
        with reg.scope("after"):
            tick(1.0)
        assert "after" in reg.scopes

    def test_timed_decorator(self):
        reg = obs.get_registry()
        obs.enable()

        @obs.timed("mod/fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        assert reg.scopes["mod/fn"].n_calls == 1
        obs.disable()
        assert fn(2) == 3
        assert reg.scopes["mod/fn"].n_calls == 1  # disabled: not recorded


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg, _ = fake_clock_registry()
        reg.counter_add("examples", 64)
        reg.counter_add("examples", 36)
        counter = reg.counters["examples"]
        assert counter.value == pytest.approx(100.0)
        assert counter.n_updates == 2

    def test_counter_rejects_decrease(self):
        reg, _ = fake_clock_registry()
        reg.counter_add("c", 1)
        with pytest.raises(ValueError, match="decrease"):
            reg.counters["c"].add(-1)

    def test_gauge_tracks_extremes_and_mean(self):
        reg, _ = fake_clock_registry()
        for v in (2.0, 6.0, 4.0):
            reg.gauge_set("rate", v)
        gauge = reg.gauges["rate"]
        assert gauge.last == 4.0
        assert gauge.min == 2.0
        assert gauge.max == 6.0
        assert gauge.mean == pytest.approx(4.0)

    def test_disabled_registry_records_nothing(self):
        reg = Registry()
        assert not reg.enabled
        with reg.scope("x"):
            pass
        reg.counter_add("c", 5)
        reg.gauge_set("g", 1.0)
        assert not reg.scopes and not reg.counters and not reg.gauges


class TestThreadSafety:
    """Registry mutations under real thread contention (the serving
    engine updates counters/gauges from worker and client threads)."""

    def test_concurrent_increments_lose_no_updates(self):
        import threading
        reg = Registry()
        reg.enabled = True
        n_threads, n_increments = 8, 5000
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_increments):
                reg.counter_add("t/counter")
                reg.gauge_set("t/gauge", 1.0)

        threads = [threading.Thread(target=work)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = n_threads * n_increments
        assert reg.counters["t/counter"].value == expected
        assert reg.counters["t/counter"].n_updates == expected
        assert reg.gauges["t/gauge"].n_updates == expected

    def test_scopes_nest_per_thread(self):
        import threading
        reg = Registry()
        reg.enabled = True
        n_threads, n_calls = 4, 50
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_calls):
                with reg.scope("outer"):
                    with reg.scope("inner"):
                        pass

        threads = [threading.Thread(target=work)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Scope paths never interleave across threads: exactly the two
        # expected paths exist, with every call accounted for.
        assert sorted(reg.scopes) == ["outer", "outer/inner"]
        assert reg.scopes["outer"].n_calls == n_threads * n_calls
        assert reg.scopes["outer/inner"].n_calls == n_threads * n_calls


class TestExport:
    def _populated(self):
        reg, tick = fake_clock_registry()
        with reg.scope("a"):
            tick(1.0)
            with reg.scope("b"):
                tick(2.0)
        reg.counter_add("count", 7)
        reg.gauge_set("gauge", 3.5)
        return reg

    def test_jsonl_round_trip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "run.obs.jsonl"
        reg.export_jsonl(path)
        loaded = Registry.load_jsonl(path)
        assert loaded.as_records() == reg.as_records()

    def test_jsonl_records_are_typed(self):
        reg = self._populated()
        buf = io.StringIO()
        reg.export_jsonl(buf)
        kinds = [json.loads(line)["kind"]
                 for line in buf.getvalue().splitlines()]
        assert sorted(set(kinds)) == ["counter", "gauge", "scope"]

    def test_load_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown record kind"):
            Registry.load_jsonl(io.StringIO('{"kind": "wat", "name": "x"}\n'))

    def test_summary_mentions_every_record(self):
        reg = self._populated()
        text = obs.summary_table(reg)
        for name in ("a", "a/b", "count", "gauge"):
            assert name in text
        assert obs.summary_table(Registry()) == "(registry is empty)"


class TestGlobalRegistryLifecycle:
    def test_default_disabled(self):
        # The autouse fixture restores this; the default must be off.
        assert not obs.enabled()
        assert obs.scope("x") is obs.NULL_SCOPE

    def test_reset_clears_data_not_flag(self):
        obs.enable()
        obs.counter_add("c")
        obs.reset()
        assert obs.enabled()
        assert not obs.get_registry().counters

    def test_isolation_fixture_leaves_no_state(self):
        # Whatever earlier tests recorded, this test starts clean.
        reg = obs.get_registry()
        assert not reg.scopes and not reg.counters and not reg.gauges


class TestZeroBehaviourChangeGuard:
    """With observability disabled (the default), instrumented paths are
    bitwise-identical to the uninstrumented computation."""

    def _train(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((48, 6, 2))
        y = 0.3 * np.cumsum(x, axis=1)
        net = build_manual_lstm(8, 1, input_dim=2, output_dim=2, rng=3)
        trainer = Trainer(epochs=3, batch_size=16)
        history = trainer.fit(net, x[:32], y[:32], x[32:], y[32:], rng=7)
        return net.get_weights(), history

    def test_disabled_and_enabled_runs_are_bitwise_identical(self):
        obs.disable()
        weights_off, history_off = self._train()

        obs.enable()
        weights_on, history_on = self._train()
        obs.disable()

        for w_off, w_on in zip(weights_off, weights_on, strict=True):
            np.testing.assert_array_equal(w_off, w_on)
        assert history_off.train_loss == history_on.train_loss
        assert history_off.val_loss == history_on.val_loss
        assert history_off.val_r2 == history_on.val_r2

        # The enabled run actually observed the training it didn't perturb.
        reg = obs.get_registry()
        assert reg.scopes["train/epoch"].n_calls == 3
        assert reg.counters["train/examples"].value == 3 * 32
        # The recurrent kernels count their GEMMs under nn/fused_gemms;
        # nn/gemms counts the Dense layers'.
        gemms = sum(c.value for name, c in reg.counters.items()
                    if name in ("nn/gemms", "nn/fused_gemms"))
        assert gemms > 0

    def test_instrumented_trainer_is_reproducible_when_disabled(self):
        weights_a, history_a = self._train()
        weights_b, history_b = self._train()
        for wa, wb in zip(weights_a, weights_b, strict=True):
            np.testing.assert_array_equal(wa, wb)
        assert history_a.train_loss == history_b.train_loss


class TestRecurrentGemmCounts:
    """``nn/fused_bptt_gemms`` counts every product one backward issues:
    the ``np.matmul`` calls, plus the GRU's two ``@`` products of its
    split ``dWh`` accumulation."""

    @pytest.mark.parametrize("steps", [5, 9])
    @pytest.mark.parametrize("cell, expected, at_products", [
        ("LSTMLayer", lambda t: 5 + t, 0),
        ("GRULayer", lambda t: 6 + 2 * t, 2),
        ("SimpleRNNLayer", lambda t: 2 + t, 0),
    ], ids=["lstm", "gru", "rnn"])
    def test_backward_counter_equals_products(self, monkeypatch, cell,
                                              expected, at_products, steps):
        from repro.nn import layers
        layer = getattr(layers, cell)(4)
        layer.build([3], rng=0)
        rng = np.random.default_rng(0)
        layer.forward([rng.standard_normal((3, steps, 3))], training=True)
        grad = rng.standard_normal((3, steps, 4))
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *a, **k: calls.append(1) or matmul(*a, **k))
        obs.enable()
        layer.backward(grad)
        monkeypatch.undo()
        count = obs.get_registry().counters["nn/fused_bptt_gemms"].value
        assert count == len(calls) + at_products == expected(steps)
