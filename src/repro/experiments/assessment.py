"""Shared helpers for the 2015-2018 assessment window.

Table I and Figs. 6-7 all evaluate inside the HYCOM data-availability
window: April 5, 2015 through June 24, 2018, in the Eastern Pacific.
"""

from __future__ import annotations

import datetime as _dt

import numpy as np

from repro.experiments.context import ReproductionContext

__all__ = ["ASSESSMENT_START", "ASSESSMENT_END", "assessment_indices",
           "podlstm_field_forecasts"]

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
    """Lead-``horizon`` POD-LSTM field forecasts for given target weeks.

    Returns a stack of shape ``(len(target_indices), n_lat, n_lon)`` with
    NaN land, reconstructed through the POD basis.
    """
    emulator = ctx.emulator()
    window = emulator.pipeline.window
    # The window producing a lead-h forecast of target T starts at
    # T - window - (h - 1); feed the emulator a series covering all of it.
    first = int(target_indices.min()) - window - (horizon - 1)
    # Windowing also extracts the actual output block, so the series must
    # run `window - horizon` steps past the last target.
    last = int(target_indices.max()) + window - horizon
    if first < 0:
        raise ValueError(
            f"target range requires snapshots before index 0 ({first})")
    series_idx = np.arange(first, last + 1)
    snaps = ctx.dataset.snapshots(series_idx)
    times, fields = emulator.forecast_fields(snaps, horizon=horizon)
    absolute = times + first
    generator = ctx.dataset.generator
    out = np.empty((target_indices.size,) + generator.grid.shape)
    lookup = {int(t): i for i, t in enumerate(absolute)}
    for row, target in enumerate(target_indices):
        try:
            col = lookup[int(target)]
        except KeyError:
            raise ValueError(
                f"no lead-{horizon} forecast available for index {target}"
            ) from None
        out[row] = generator.unflatten(fields[:, col])
    return out
