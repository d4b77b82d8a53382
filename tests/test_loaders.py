import numpy as np

from repro.data import SSTDataset, WeeklyCalendar, load_sst_dataset


class TestSSTDataset:
    def test_split_sizes(self, tiny_dataset):
        # 200-week archive starting 1981-10-22: all pre-1990 -> all train.
        assert tiny_dataset.n_train + tiny_dataset.n_test == 200

    def test_training_snapshot_shape(self, tiny_dataset, train_snapshots):
        assert train_snapshots.shape == (tiny_dataset.n_ocean,
                                         tiny_dataset.n_train)

    def test_training_snapshots_cached(self, tiny_dataset):
        a = tiny_dataset.training_snapshots()
        b = tiny_dataset.training_snapshots()
        assert a is b

    def test_split_dataset_has_both_periods(self, split_dataset):
        assert split_dataset.n_train == 427
        assert split_dataset.n_test == 480 - 427

    def test_indices_are_disjoint(self, tiny_dataset):
        train = set(tiny_dataset.train_indices)
        test = set(tiny_dataset.test_indices)
        assert not train & test
        assert len(train | test) == 200


class TestLoadSSTDataset:
    def test_default_paper_split(self):
        ds = load_sst_dataset(degrees=12.0, seed=0)
        assert ds.n_train == 427
        assert ds.n_test == 1487

    def test_grid_resolution(self):
        ds = load_sst_dataset(degrees=12.0, seed=0)
        assert ds.grid.degrees == 12.0

    def test_seed_controls_fields(self):
        a = load_sst_dataset(degrees=12.0, seed=1).snapshots([0])
        b = load_sst_dataset(degrees=12.0, seed=2).snapshots([0])
        assert not np.allclose(a, b)

    def test_short_archive(self):
        ds = load_sst_dataset(degrees=12.0, seed=0, n_snapshots=50)
        assert ds.n_train == 50
        assert ds.n_test == 0
