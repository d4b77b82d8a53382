"""Dataset assembly: generator + calendar + canonical splits.

``SSTDataset`` is the single object the rest of the library consumes. It
owns a :class:`~repro.data.sst.SyntheticSST` generator and the paper's
weekly calendar, caches the training snapshot matrix (1981-10-22 through
1989, paper: 427 snapshots) and reads any other columns, such as the
test period (1990-2018, paper: 1,487 snapshots), on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.calendar import WeeklyCalendar
from repro.data.grid import LatLonGrid
from repro.data.sst import SSTConfig, SyntheticSST

__all__ = ["SSTDataset", "load_sst_dataset"]


@dataclass
class SSTDataset:
    """The NOAA-OI-SST-shaped emulation dataset.

    Attributes
    ----------
    generator:
        The synthetic field source.
    calendar:
        Weekly calendar; defines the train/test breakpoint.
    """

    generator: SyntheticSST
    calendar: WeeklyCalendar = field(default_factory=WeeklyCalendar)

    def __post_init__(self) -> None:
        self._split = self.calendar.train_test_split_index()
        self._train_cache: np.ndarray | None = None

    # -- canonical index ranges ----------------------------------------
    @property
    def train_indices(self) -> range:
        """Snapshot indices of the training/validation period (pre-1990)."""
        return range(0, self._split)

    @property
    def test_indices(self) -> range:
        """Snapshot indices of the test period (1990 onward)."""
        return range(self._split, self.calendar.n_snapshots)

    @property
    def n_train(self) -> int:
        return len(self.train_indices)

    @property
    def n_test(self) -> int:
        return len(self.test_indices)

    # -- snapshot access -------------------------------------------------
    def training_snapshots(self) -> np.ndarray:
        """Training snapshot matrix ``S``: shape ``(N_h, n_train)``.

        Cached after first call — POD fitting, baseline fitting and
        windowing all reuse it.
        """
        if self._train_cache is None:
            self._train_cache = self.generator.snapshots(
                np.asarray(self.train_indices))
        return self._train_cache

    def snapshots(self, indices) -> np.ndarray:
        """Arbitrary snapshot columns, shape ``(N_h, len(indices))``."""
        return self.generator.snapshots(indices)

    # -- convenience -----------------------------------------------------
    @property
    def grid(self) -> LatLonGrid:
        return self.generator.grid

    @property
    def ocean_mask(self) -> np.ndarray:
        return self.generator.ocean_mask

    @property
    def n_ocean(self) -> int:
        return self.generator.n_ocean


def load_sst_dataset(*, degrees: float = 4.0, seed: int = 0,
                     n_snapshots: int = 1914,
                     config: SSTConfig | None = None) -> SSTDataset:
    """Build the canonical dataset.

    ``degrees=1`` reproduces the NOAA 360x180 layout exactly;
    the default 4-degree grid keeps full-archive experiments comfortably
    inside a laptop's memory while preserving the POD spectrum (the
    retained modes are planetary-scale).
    """
    generator = SyntheticSST(grid=LatLonGrid(degrees=degrees), seed=seed,
                             config=config or SSTConfig())
    calendar = WeeklyCalendar(n_snapshots=n_snapshots)
    return SSTDataset(generator=generator, calendar=calendar)
