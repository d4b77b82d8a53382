"""Table I: weekly RMSE breakdown in the Eastern Pacific.

Paper values (degrees C, weeks 1-8, April 2015 - June 2018):

    Predicted  0.62 0.63 0.64 0.66 0.63 0.66 0.69 0.65
    CESM       1.88 1.87 1.83 1.85 1.86 1.87 1.86 1.83
    HYCOM      0.99 0.99 1.03 1.04 1.02 1.05 1.03 1.05

Shape to reproduce: Predicted < HYCOM < CESM, all three roughly flat in
lead week (the POD-LSTM always conditions on true history; HYCOM
re-initializes; CESM never initializes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comparators import regional_rmse
from repro.data.grid import EASTERN_PACIFIC
from repro.experiments.assessment import assessment_indices, podlstm_lead_forecasts
from repro.experiments.context import get_context
from repro.experiments.reporting import format_table

__all__ = ["Table1Result", "run_table1", "main"]

#: Paper Table I values for the EXPERIMENTS.md comparison.
PAPER_TABLE1 = {
    "Predicted": (0.62, 0.63, 0.64, 0.66, 0.63, 0.66, 0.69, 0.65),
    "CESM": (1.88, 1.87, 1.83, 1.85, 1.86, 1.87, 1.86, 1.83),
    "HYCOM": (0.99, 0.99, 1.03, 1.04, 1.02, 1.05, 1.03, 1.05),
}


@dataclass
class Table1Result:
    """Per-lead-week RMSE (degrees C) per forecast system."""

    weeks: list[int]
    rmse: dict[str, list[float]]


def run_table1(preset: str = "quick", *, max_targets: int = 80,
               n_weeks: int = 8) -> Table1Result:
    """Compute the weekly RMSE breakdown.

    ``max_targets`` subsamples the ~168 assessment weeks to bound runtime
    (RMSE is an average; subsampling changes estimates only marginally).
    """
    ctx = get_context(preset)
    targets = assessment_indices(ctx, max_targets)
    generator = ctx.dataset.generator
    truth = generator.fields(targets)
    grid, mask = generator.grid, generator.ocean_mask

    rmse: dict[str, list[float]] = {"Predicted": [], "CESM": [], "HYCOM": []}
    cesm_fields = ctx.cesm.fields(targets)
    hycom_fields = ctx.hycom.fields(targets)
    cesm_rmse = regional_rmse(truth, cesm_fields, grid, EASTERN_PACIFIC, mask)
    hycom_rmse = regional_rmse(truth, hycom_fields, grid, EASTERN_PACIFIC, mask)
    weeks = list(range(1, n_weeks + 1))
    predicted = podlstm_lead_forecasts(ctx, weeks, targets)
    for week in weeks:
        rmse["Predicted"].append(
            regional_rmse(truth, predicted[week], grid, EASTERN_PACIFIC,
                          mask))
        # CESM never initializes from the window and HYCOM re-initializes
        # each week, so their errors are lead-independent by construction
        # (the paper's rows are flat); reuse the single computed value.
        rmse["CESM"].append(cesm_rmse)
        rmse["HYCOM"].append(hycom_rmse)
    return Table1Result(weeks=weeks, rmse=rmse)


def main(preset: str = "quick") -> Table1Result:
    result = run_table1(preset)
    print("Table I — Eastern Pacific RMSE (deg C) by forecast week")
    headers = ["model"] + [f"wk{w}" for w in result.weeks]
    rows = [[name] + values for name, values in result.rmse.items()]
    print(format_table(headers, rows, float_fmt="{:.2f}"))
    return result


if __name__ == "__main__":
    main()
