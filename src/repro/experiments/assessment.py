"""Shared helpers for the 2015-2018 assessment window.

Table I and Figs. 6-7 all evaluate inside the HYCOM data-availability
window: April 5, 2015 through June 24, 2018, in the Eastern Pacific.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.experiments.context import ReproductionContext
from repro.utils.validation import check_positive_int

__all__ = ["ASSESSMENT_START", "ASSESSMENT_END", "assessment_indices",
           "podlstm_field_forecasts", "podlstm_lead_forecasts"]

ASSESSMENT_START = _dt.date(2015, 4, 5)
ASSESSMENT_END = _dt.date(2018, 6, 24)


def assessment_indices(ctx: ReproductionContext,
                       max_targets: int | None = None) -> np.ndarray:
    """Snapshot indices of the paper's HYCOM comparison window, thinned
    by one uniform stride to at most ``max_targets`` weeks if given."""
    cal = ctx.dataset.calendar
    idx = np.asarray(cal.indices_between(ASSESSMENT_START, ASSESSMENT_END))
    if max_targets is not None and idx.size > max_targets:
        idx = idx[::int(np.ceil(idx.size / max_targets))]
    return idx


def podlstm_field_forecasts(ctx: ReproductionContext, horizon: int,
                            target_indices: np.ndarray
                            ) -> np.ndarray:
    """Lead-``horizon`` POD-LSTM field forecasts for given target weeks:
    the one-lead case of :func:`podlstm_lead_forecasts`."""
    return podlstm_lead_forecasts(ctx, (horizon,), target_indices)[horizon]


def podlstm_lead_forecasts(ctx: ReproductionContext, horizons,
                           target_indices: np.ndarray
                           ) -> dict[int, np.ndarray]:
    """POD-LSTM field forecasts of the target weeks at every lead in
    ``horizons``, from one read of the series and one forecast pass.

    Returns ``{lead: stack}`` with stacks of shape
    ``(len(target_indices), n_lat, n_lon)``, NaN land, reconstructed
    through the POD basis.
    """
    emulator = ctx.emulator()
    window = emulator.pipeline.window
    leads = sorted({check_positive_int(h, name="horizon") for h in horizons})
    if not leads:
        raise ValueError("no horizon given")
    # The window producing a lead-h forecast of target T starts at
    # T - window - (h - 1); feed the emulator a series covering it for
    # the largest lead. Windowing also extracts the actual output block,
    # so the series runs `window - h` steps past the last target for the
    # smallest lead.
    first = int(target_indices.min()) - window - (leads[-1] - 1)
    last = int(target_indices.max()) + window - leads[0]
    if first < 0:
        raise ValueError(
            f"target range requires snapshots before index 0 ({first})")
    snaps = ctx.dataset.snapshots(np.arange(first, last + 1))
    generator = ctx.dataset.generator
    stacks = {}
    for lead, (times, fields) in emulator.forecast_leads(snaps, leads).items():
        # Forecast times are consecutive and cover every target.
        columns = target_indices - (first + int(times[0]))
        stacks[lead] = np.stack([generator.unflatten(fields[:, col])
                                 for col in columns])
    return stacks
