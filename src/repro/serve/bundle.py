"""Emulator bundles: one versioned ``.npz`` artifact per trained emulator.

A bundle captures a :class:`~repro.forecast.pod_lstm.PODLSTMEmulator`
end to end — the forecast network (structure via
:func:`repro.nn.serialization.network_spec`, weights as arrays) plus the
fitted :class:`~repro.forecast.pipeline.PODCoefficientPipeline` state
(POD basis, scaler parameters, window/mode geometry) — so the serving
side (docs/SERVING.md) needs nothing but the file. Like the network
archives of :mod:`repro.nn.serialization` the format is pickle-free:
plain NumPy arrays plus one JSON header, portable and inspectable.

Guarantee: ``load_bundle(save_bundle(e, p))`` forecasts **bitwise
identically** to ``e`` (tested in tests/test_serve_bundle.py).

Schema (``__bundle__`` JSON header)::

    {"format": "repro-emulator-bundle", "version": 1,
     "train_fraction": float,
     "network":  {...network_spec...},          # weights in net_w{i}
     "pipeline": {"n_modes", "window", "scaler": {...}},  # arrays pod_*/scaler_*
     "metadata": {...}}                          # free-form provenance

Unknown formats and schema versions are rejected on load — a newer
writer's artifact fails loudly instead of deserializing garbage.
"""

from __future__ import annotations

from pathlib import Path

from repro.durable import atomic_write_npz, read_npz
from repro.forecast.pipeline import PODCoefficientPipeline
from repro.forecast.pod_lstm import PODLSTMEmulator
from repro.nn.serialization import network_from_spec, network_spec

__all__ = ["BUNDLE_FORMAT", "BUNDLE_VERSION", "save_bundle", "load_bundle",
           "read_bundle_header"]

#: Format tag of an emulator bundle artifact.
BUNDLE_FORMAT = "repro-emulator-bundle"

#: Current bundle schema version. Loaders accept exactly the versions
#: they know how to decode; anything else is an error.
BUNDLE_VERSION = 1

#: Reserved array name carrying the JSON header inside the ``.npz``.
_HEADER_KEY = "__bundle__"


def save_bundle(emulator: PODLSTMEmulator, path, *,
                metadata: dict | None = None) -> Path:
    """Serialize a fitted emulator into one ``.npz`` bundle at ``path``.

    ``metadata`` (JSON-compatible) is stored verbatim in the header —
    provenance such as the search algorithm, seed, or training R^2.
    Returns the path the archive actually lives at (``.npz`` suffix
    normalized by :func:`repro.durable.npz_path`). The write is atomic.
    """
    network = emulator._require_fit()
    pipeline_config, pipeline_arrays = emulator.pipeline.fitted_state()
    header = {"format": BUNDLE_FORMAT, "version": BUNDLE_VERSION,
              "train_fraction": emulator.train_fraction,
              "network": network_spec(network),
              "pipeline": pipeline_config,
              "metadata": dict(metadata or {})}
    arrays = {f"net_w{i}": w for i, w in enumerate(network.get_weights())}
    arrays.update(pipeline_arrays)
    return atomic_write_npz(path, header, arrays, key=_HEADER_KEY)


def _read(path, arrays: bool = True) -> tuple[dict, dict]:
    return read_npz(path, key=_HEADER_KEY, fmt=BUNDLE_FORMAT,
                    versions=(BUNDLE_VERSION,),
                    describe="an emulator bundle", arrays=arrays)


def read_bundle_header(path) -> dict:
    """The validated JSON header of a bundle, without rebuilding the
    emulator (registry listings, provenance inspection)."""
    return _read(path, arrays=False)[0]


def load_bundle(path) -> PODLSTMEmulator:
    """Rebuild the emulator stored by :func:`save_bundle`."""
    header, arrays = _read(path)
    n_weights = sum(1 for name in arrays if name.startswith("net_w"))
    weights = [arrays[f"net_w{i}"] for i in range(n_weights)]
    pipeline = PODCoefficientPipeline.from_fitted_state(header["pipeline"],
                                                        arrays)
    network = network_from_spec(header["network"], weights,
                                source=str(path))
    return PODLSTMEmulator.from_artifacts(
        pipeline, network, train_fraction=float(header["train_fraction"]))
