"""Figure 7: temporal probes at three Eastern-Pacific locations.

The paper plots weekly temperature at (-5, 210), (+5, 250) and (+10, 230)
degrees (lat, lon East) between April 2015 and June 2018 for truth,
HYCOM, CESM and the POD-LSTM — HYCOM and POD-LSTM track the truth while
CESM drifts on its own trajectory. We report per-probe correlation and
RMSE for each system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.assessment import assessment_indices, podlstm_field_forecasts
from repro.experiments.context import get_context
from repro.experiments.reporting import format_table

__all__ = ["PROBES", "Fig7Result", "run_fig7", "main"]

#: The paper's three probe locations: (latitude, longitude East).
PROBES = ((-5.0, 210.0), (5.0, 250.0), (10.0, 230.0))


@dataclass
class Fig7Result:
    indices: np.ndarray
    series: dict[str, dict[tuple[float, float], np.ndarray]]
    rmse: dict[str, dict[tuple[float, float], float]]
    correlation: dict[str, dict[tuple[float, float], float]]


def run_fig7(preset: str = "quick", *, horizon: int = 1,
             max_targets: int = 84) -> Fig7Result:
    ctx = get_context(preset)
    targets = assessment_indices(ctx, max_targets)
    generator = ctx.dataset.generator
    stacks = {
        "NOAA (truth)": generator.fields(targets),
        "HYCOM": ctx.hycom.fields(targets),
        "CESM": ctx.cesm.fields(targets),
        "POD-LSTM": podlstm_field_forecasts(ctx, horizon, targets),
    }
    cells = {probe: generator.grid.nearest_index(*probe) for probe in PROBES}
    series: dict[str, dict] = {}
    rmse: dict[str, dict] = {}
    corr: dict[str, dict] = {}
    truth = stacks["NOAA (truth)"]
    for name, stack in stacks.items():
        series[name], rmse[name], corr[name] = {}, {}, {}
        for probe, (i, j) in cells.items():
            s = stack[:, i, j]
            series[name][probe] = s
            t = truth[:, i, j]
            rmse[name][probe] = float(np.sqrt(np.mean((s - t) ** 2)))
            denom = s.std() * t.std()
            corr[name][probe] = (float(np.mean((s - s.mean())
                                               * (t - t.mean())) / denom)
                                 if denom > 0 else 1.0)
    return Fig7Result(indices=targets, series=series, rmse=rmse,
                      correlation=corr)


def main(preset: str = "quick") -> Fig7Result:
    result = run_fig7(preset)
    print("Figure 7 — temporal probes (2015-04 to 2018-06)")
    headers = ["model"] + [f"({lat:+.0f},{lon:.0f}) r/RMSE"
                           for lat, lon in PROBES]
    rows = []
    for name in result.rmse:
        row = [name]
        for probe in PROBES:
            row.append(f"{result.correlation[name][probe]:.2f}/"
                       f"{result.rmse[name][probe]:.2f}")
        rows.append(row)
    print(format_table(headers, rows))
    return result


if __name__ == "__main__":
    main()
