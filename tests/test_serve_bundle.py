"""Emulator bundles (repro.serve.bundle): exact round-trips and schema
validation.

The load-bearing guarantee is bitwise fidelity — a bundled emulator must
forecast with exactly the bits of the in-memory one, because the serving
engine's determinism contract (docs/SERVING.md) is defined against the
original model.
"""

import json

import numpy as np
import pytest

from repro.forecast import PODLSTMEmulator
from repro.serve import (BUNDLE_FORMAT, BUNDLE_VERSION, load_bundle,
                         read_bundle_header, save_bundle)


@pytest.fixture()
def windows(tiny_emulator, generator):
    snaps = generator.snapshots(np.arange(60))
    return tiny_emulator.pipeline.windows_from_snapshots(snaps).inputs


def _write_raw(path, header, **arrays):
    """A bundle-shaped npz with an arbitrary header (schema attacks)."""
    np.savez(path, __bundle__=np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8), **arrays)


class TestRoundTrip:
    def test_forecasts_bitwise_identical(self, tmp_path, tiny_emulator,
                                         windows):
        path = save_bundle(tiny_emulator, tmp_path / "model.npz")
        loaded = load_bundle(path)
        np.testing.assert_array_equal(
            loaded.predict_windows(windows),
            tiny_emulator.predict_windows(windows))

    def test_pipeline_state_exact(self, tmp_path, tiny_emulator, generator):
        path = save_bundle(tiny_emulator, tmp_path / "model.npz")
        loaded = load_bundle(path)
        snaps = generator.snapshots(np.arange(60))
        np.testing.assert_array_equal(
            loaded.pipeline.transform(snaps),
            tiny_emulator.pipeline.transform(snaps))
        assert loaded.pipeline.n_modes == tiny_emulator.pipeline.n_modes
        assert loaded.pipeline.window == tiny_emulator.pipeline.window
        assert loaded.train_fraction == tiny_emulator.train_fraction

    @pytest.mark.parametrize("fitted", ["tiny_emulator"], ids=["minmax"])
    def test_every_scaler_round_trips_bitwise(self, tmp_path, generator,
                                              request, fitted):
        emulator = request.getfixturevalue(fitted)
        loaded = load_bundle(save_bundle(emulator, tmp_path / "m.npz"))
        snaps = generator.snapshots(np.arange(60))
        np.testing.assert_array_equal(loaded.pipeline.transform(snaps),
                                      emulator.pipeline.transform(snaps))
        inputs = emulator.pipeline.windows_from_snapshots(snaps).inputs
        np.testing.assert_array_equal(loaded.predict_windows(inputs),
                                      emulator.predict_windows(inputs))

    def test_suffix_normalized(self, tmp_path, tiny_emulator):
        path = save_bundle(tiny_emulator, tmp_path / "model")
        assert path.name == "model.npz"
        # Loading works from the suffixed and unsuffixed spelling alike.
        load_bundle(tmp_path / "model")
        load_bundle(path)

    def test_metadata_round_trips(self, tmp_path, tiny_emulator):
        meta = {"algorithm": "ae", "seed": 7, "r2": 0.93}
        path = save_bundle(tiny_emulator, tmp_path / "m.npz",
                           metadata=meta)
        header = read_bundle_header(path)
        assert header["metadata"] == meta
        assert header["format"] == BUNDLE_FORMAT
        assert header["version"] == BUNDLE_VERSION

    def test_unfitted_emulator_rejected(self, tmp_path):
        with pytest.raises(RuntimeError, match="before fit"):
            save_bundle(PODLSTMEmulator(), tmp_path / "x.npz")


class TestSchemaValidation:
    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        _write_raw(path, {"format": BUNDLE_FORMAT,
                          "version": BUNDLE_VERSION + 1})
        with pytest.raises(ValueError,
                           match="unsupported bundle schema version"):
            load_bundle(path)
        with pytest.raises(ValueError,
                           match="unsupported bundle schema version"):
            read_bundle_header(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        _write_raw(path, {"format": "something-else",
                          "version": BUNDLE_VERSION})
        with pytest.raises(ValueError, match="not an emulator bundle"):
            load_bundle(path)

    def test_plain_npz_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(ValueError, match="missing __bundle__"):
            read_bundle_header(path)

    def test_other_scaler_refused_naming_file(self, tmp_path,
                                              tiny_emulator):
        path = save_bundle(tiny_emulator, tmp_path / "m.npz")
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(arrays.pop("__bundle__").tobytes())
        assert header["pipeline"]["scaler"] == {"class": "MinMaxScaler",
                                                "limit": 0.85}
        header["pipeline"]["scaler"] = {"class": "StandardScaler"}
        _write_raw(path, header, **arrays)
        with pytest.raises(ValueError) as err:
            load_bundle(path)
        assert str(err.value).startswith(
            f"{path}: unknown scaler class 'StandardScaler'")
