"""``emulate``: the paper path at quick scale, one closed-loop caller.

A unit is one job: ``PODLSTMEmulator.fit`` for a fixed epoch budget on the
427 training weeks, then ``forecast_fields`` over the 1,487 test weeks at
leads 1-8, scored as Table I (Eastern Pacific RMSE). No processes, no
sockets: the ``nn`` training kernels and ``pod`` do the work.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from harness import Tracer, cpu_seconds, median, now, unit_span
from layers import common_metrics, instrument

#: Training epochs per job; fixed so every job does the same work.
EPOCHS = 10
LEADS = range(1, 9)
#: Relative tolerance of ``ep_rmse_c`` against its recorded reference:
#: wide enough for a reordered sum, far too narrow for a broken model.
RMSE_RTOL = 0.02
#: An unrecorded seed must land within this factor of the recorded range
#: (seeds change the synthetic archive, and the RMSE by up to ~1.5x).
RMSE_BAND = 1.33


class Emulate:
    name = "emulate"
    min_units = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def setup(self) -> None:
        from repro.data import load_sst_dataset
        from repro.experiments.context import QUICK, ReproductionContext

        dataset = load_sst_dataset(degrees=4.0, seed=self.seed)
        self.train = dataset.training_snapshots()
        self.test = dataset.snapshots(np.asarray(dataset.test_indices))
        self.generator = dataset.generator
        # The quick preset's own search seed picks the architecture, so
        # every workload seed trains the same 136,248-parameter network.
        context = ReproductionContext(QUICK)
        self.space = context.space
        self.arch = context.best_architecture()

    def teardown(self) -> None:
        pass

    def unit(self, tracer: Tracer | None = None) -> dict:
        from repro.forecast import PODLSTMEmulator
        from repro.nas.space.builder import build_network
        from repro.nn.model import Network
        from repro.nn.training import Trainer
        from repro.pipeline.service import emulator_digest

        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0xE1)))
        network = build_network(self.space, self.arch, rng=rng)
        emulator = PODLSTMEmulator(
            n_modes=5, window=8,
            trainer=Trainer(epochs=EPOCHS, batch_size=64,
                            learning_rate=0.002))
        if tracer is not None:
            instrument(tracer)
            tracer.ident = 0

            def next_epoch(args, kwargs):
                if tracer.current() == "nn.train":
                    tracer.ident += 1
            tracer.patch(Network, "predict", None, after=next_epoch)
        try:
            with unit_span(tracer, self.name):
                cpu = cpu_seconds([os.getpid()])
                start = now()
                emulator.fit(self.train, network=network, rng=rng)
                fitted = now()
                forecasts = [emulator.forecast_fields(self.test, horizon=lead)
                             for lead in LEADS]
                done = now()
                cpu = cpu_seconds([os.getpid()]) - cpu
        finally:
            if tracer is not None:
                tracer.unpatch()
                tracer.ident = None
        return {"fit_s": fitted - start, "forecast_s": done - fitted,
                "wall_s": done - start, "cpu_s": cpu,
                "ep_rmse_c": self._score(forecasts),
                "finite": all(np.isfinite(f).all() for _, f in forecasts),
                "digest": emulator_digest(emulator)}

    def _score(self, forecasts) -> float:
        from repro.comparators import regional_rmse
        from repro.data.grid import EASTERN_PACIFIC

        grid, mask = self.generator.grid, self.generator.ocean_mask
        per_lead = []
        for times, fields in forecasts:
            stacks = []
            for columns in (self.test[:, times], fields):
                stack = np.full((len(times),) + grid.shape, np.nan)
                stack[:, mask] = columns.T
                stacks.append(stack)
            per_lead.append(regional_rmse(stacks[0], stacks[1], grid,
                                          EASTERN_PACIFIC, mask))
        return float(np.mean(per_lead))

    # ------------------------------------------------------------------
    def summarize(self, units: list[dict]) -> tuple[dict, dict]:
        walls = [u["wall_s"] for u in units]
        named = {
            "emulate.fit_s": (median([u["fit_s"] for u in units]), "s"),
            "emulate.forecast_s": (median([u["forecast_s"] for u in units]),
                                   "s"),
            "emulate.ep_rmse_c": (units[0]["ep_rmse_c"], "degC"),
        }
        generic = {"ops_per_s": 1.0 / median(walls),
                   "cpu_ms_per_op": 1e3 * median([u["cpu_s"] for u in units])}
        return named, generic

    def counts(self, units: list[dict]) -> tuple[int, int]:
        return len(units), sum(not u["finite"] for u in units)

    def checks(self, units: list[dict]) -> list[tuple[str, bool, str]]:
        rmse = units[0]["ep_rmse_c"]
        low, high = _reference_range(self.seed)
        out = [
            ("emulate.fields_finite", all(u["finite"] for u in units),
             f"{len(units)} jobs"),
            ("emulate.ep_rmse_reference", low <= rmse <= high,
             f"{rmse:.6f} degC, recorded reference range "
             f"[{low:.6f}, {high:.6f}]"),
            ("emulate.deterministic",
             len({(u["ep_rmse_c"], u["digest"]) for u in units}) == 1,
             "equal RMSE and emulator digest in every job"),
        ]
        return out

    def layer_metrics(self, tracer: Tracer, agg: dict, unit: dict) -> dict:
        return common_metrics(agg, tracer.counts)


def _reference_range(seed: int) -> tuple[float, float]:
    """Accepted ``ep_rmse_c`` for ``seed``: its recorded value within
    ``RMSE_RTOL``, or for an unrecorded seed the recorded range widened
    by ``RMSE_BAND``."""
    path = Path(__file__).with_name("reference.json")
    table = json.loads(path.read_text(encoding="utf-8"))["emulate.ep_rmse_c"]
    if str(seed) in table:
        value = float(table[str(seed)])
        return value * (1 - RMSE_RTOL), value * (1 + RMSE_RTOL)
    values = [float(v) for v in table.values()]
    return min(values) / RMSE_BAND, max(values) * RMSE_BAND
