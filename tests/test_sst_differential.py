"""Differential suite: block SST synthesis against the per-week oracle.

``SyntheticSST.fields`` makes consecutive weeks in blocks; the oracle,
tests/reference_sst.py, is the week-at-a-time loop it replaced (with
the Lorenz-63 index integrated on arrays). The contract, on raw bytes
rather than with a tolerance:

* every read pattern yields exactly the oracle's fields — one long read,
  sixty 4-week batches that each continue the previous call, scattered
  reads with negative weeks, and a backward window — on the 4- and
  12-degree grids, for two seeds and every drift scenario (48 cases),
  plus a 1-degree read;
* each call draws the same noise weeks as the oracle's per-week loop,
  and leaves the same lags cached, in the same order;
* the weather series (Python-float RK4) equals the array RK4 series,
  also after an extension;
* blocks change nothing at their edges: a drift onset inside a block, a
  block boundary inside a read, and weeks before the eddy warm-up.

The oracle is chunk-independent (noise is keyed by ``(seed, week)``), so
each configuration's reference is one read over every week the patterns
touch; the bookkeeping reference runs the oracle under each pattern on
the cheapest grid, since which weeks are drawn depends on weeks alone.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.data.grid import LatLonGrid
from repro.data.sst import DRIFT_SCENARIOS, SSTConfig, SyntheticSST
from tests.reference_sst import ReferenceSST

#: Every week the read patterns touch lies in [FIRST_WEEK, LAST_WEEK):
#: -62 is the earliest week with a defined lagged ENSO index.
FIRST_WEEK, LAST_WEEK = -62, 700

READS = {
    "one-read": [range(700)],
    "batches": [range(4 * b, 4 * b + 4) for b in range(60)],
    "scattered": [[3, 50, 7], [-62, -30, -25, -24, -23, 9, 10, 11, 12],
                  [640, -5, 641, 2, 2, 1]],
    "backward-window": [range(100, 120), range(20, 116)],
}

GRIDS = (4.0, 12.0)
SEEDS = (0, 123)

CASES = [(degrees, seed, scenario, pattern)
         for degrees in GRIDS for seed in SEEDS
         for scenario in DRIFT_SCENARIOS for pattern in READS]


@lru_cache(maxsize=None)
def _reference_weather(seed: int) -> np.ndarray:
    """The oracle's weather series for ``seed`` (2048 weeks), integrated
    once: it depends on the seed alone."""
    reference = ReferenceSST(grid=LatLonGrid(degrees=12.0), seed=seed)
    reference.weather_index(0)
    return reference._weather_series


def _pair(degrees: float, seed: int, config: SSTConfig | None = None):
    grid = LatLonGrid(degrees=degrees)
    config = config or SSTConfig()
    reference = ReferenceSST(grid=grid, seed=seed, config=config)
    reference._weather_series = _reference_weather(seed)
    return SyntheticSST(grid=grid, seed=seed, config=config), reference


@lru_cache(maxsize=1)
def _reference_fields(degrees: float, seed: int, scenario: str) -> np.ndarray:
    """The oracle's fields for weeks FIRST_WEEK..LAST_WEEK-1, one read."""
    _, reference = _pair(degrees, seed, SSTConfig(scenario=scenario))
    return reference.fields(np.arange(FIRST_WEEK, LAST_WEEK))


def _read(gen, reads):
    """Run ``reads`` through ``gen``; per call: fields, draws, cache keys."""
    drawn = []
    if isinstance(gen, ReferenceSST):
        noise_field = gen._noise_field
        gen._noise_field = lambda t: drawn.append(t) or noise_field(t)
    else:
        white_noise = gen._white_noise
        gen._white_noise = lambda t, out: drawn.append(t) or white_noise(t, out)
    calls = []
    for weeks in reads:
        start = len(drawn)
        fields = gen.fields(np.asarray(weeks))
        calls.append((fields, drawn[start:], list(gen._noise_cache)))
    return calls


@lru_cache(maxsize=None)
def _reference_bookkeeping(pattern: str) -> list:
    """The oracle's draws and cached lags after each call of ``pattern``."""
    _, reference = _pair(12.0, 0)
    return [(drawn, cached)
            for _, drawn, cached in _read(reference, READS[pattern])]


@pytest.mark.parametrize("degrees,seed,scenario,pattern", CASES,
                         ids=[f"{d:g}deg-s{s}-{sc}-{p}"
                              for d, s, sc, p in CASES])
def test_reads_match_the_oracle(degrees, seed, scenario, pattern):
    reference = _reference_fields(degrees, seed, scenario)
    gen, _ = _pair(degrees, seed, SSTConfig(scenario=scenario))
    calls = _read(gen, READS[pattern])
    for weeks, (fields, _, _) in zip(READS[pattern], calls):
        expected = reference[np.asarray(weeks, dtype=np.int64) - FIRST_WEEK]
        assert fields.tobytes() == expected.tobytes()
    assert [(drawn, cached) for _, drawn, cached in calls] \
        == _reference_bookkeeping(pattern)


def _assert_same_reads(degrees, reads, config=None, seed=0):
    gen, reference = _pair(degrees, seed, config)
    for (fields, drawn, cached), (expected, ref_drawn, ref_cached) in zip(
            _read(gen, reads), _read(reference, reads)):
        assert fields.tobytes() == expected.tobytes()
        assert (drawn, cached) == (ref_drawn, ref_cached)
    return gen


def test_one_degree_read():
    """1 degree: one-week blocks, a read from before t=0 continued by
    the next call."""
    gen = _assert_same_reads(1.0, [range(-3, 20), range(20, 26)])
    assert gen.fields([0]).shape == (1, 180, 360)


@pytest.mark.parametrize("scenario", ["enso_shift", "trend_acceleration"])
def test_drift_onset_inside_a_block(scenario):
    """Onset at week 5 of the 4-degree block of weeks 0-7: weeks 0-5
    add the scenario's 0.0, weeks 6-7 its field."""
    config = SSTConfig(scenario=scenario, scenario_onset_week=5,
                       scenario_ramp_weeks=2)
    _assert_same_reads(4.0, [range(16), range(16, 19)], config)


def test_block_boundaries_inside_reads():
    """4 degrees makes 8-week blocks: reads that start off a multiple
    of 8, end one week into a block, and continue across calls."""
    _assert_same_reads(4.0, [range(3, 20), range(20, 29), [29], range(30, 47)])


def test_weeks_before_the_eddy_warm_up():
    """Weeks before -eddy_truncation have no noise lags at all."""
    gen = _assert_same_reads(12.0, [range(-40, -20), [-62, -61, -25]])
    with pytest.raises(ValueError):
        gen.fields([-63])


@pytest.mark.parametrize("seed", SEEDS)
def test_weather_series_matches_the_array_integrator(seed):
    gen = SyntheticSST(grid=LatLonGrid(degrees=12.0), seed=seed)
    gen.weather_index(0)
    assert gen._weather_series.tobytes() \
        == _reference_weather(seed).tobytes()


def test_weather_series_extension_matches():
    """A week past the first 2048 re-integrates a longer series."""
    gen, reference = _pair(12.0, 0)
    gen.weather_index(0)
    assert gen.dipole_index(2500) == reference.dipole_index(2500)
    assert gen._weather_series.shape == (4096, 2)
    assert gen._weather_series.tobytes() \
        == reference._weather_series.tobytes()
