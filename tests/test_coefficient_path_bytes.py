"""Byte pins of the coefficient path: POD, min-max scaling, windows,
reconstruction, a trained emulator, its leads and its bundle.

Every workload starts from this path, so it is held to recorded SHA-256
digests rather than to a tolerance. They cover:

* a fitted :class:`~repro.forecast.PODCoefficientPipeline`'s
  ``fitted_state``, ``transform``, windows, ``inverse`` and
  ``reconstruct``;
* ``emulator_digest`` after a short :meth:`PODLSTMEmulator.fit`;
* ``forecast_leads`` at leads 1-8;
* a bundle's save -> load -> ``predict_windows``;
* ``ReproductionContext.test_snapshots()`` at a 12-degree preset.

The values are computed in a child process pinned to one BLAS thread:
OpenBLAS threads the POD's ``S^T S`` product, and the rounding of that
product, and so every trained weight, depends on the thread count.
"""

import json
import os
import subprocess
import sys

import repro

#: Recorded from the path as it stood with the standardizing scaler,
#: window strides, upsampling, the POD method switch and the chunked
#: test-period reader still in place.
RECORDED = {
    "pipeline.fitted_state":
        "9f1b92e5448585e91071c092b5b59116eb0678093fe5354d2f07683510cc2853",
    "pipeline.transform":
        "4c0410e466fcd662a94f726d83bf24a227e00986e8129fcc4a4112a621596021",
    "pipeline.windows":
        "825c3470dc1ed03922c231c36aa1de93099b5a8f4801bf002081bcc361e2a0e6",
    "pipeline.inverse":
        "bb8d47c78485c422a80b29f5784563bfef9aa58fa3b8207203be2a304a60c624",
    "pipeline.reconstruct":
        "5d3a8df13a819d4c349ff8c88bcf773bbaa252b172577b1b2d38b083a5e09871",
    "emulator.digest":
        "e3fa93aa1e637d0ffdbc96e5cae82e7a07e43820258b135ddc5b80e092fe4f12",
    "emulator.forecast_leads":
        "b5e254b0dc423ac224fe5a9b03122966b36a13805b4c99dc095e58d13e63c85b",
    "bundle.predict_windows":
        "cb57ddaa903ee16643a243b388afb3c90423597bd3c9e3e4bc17ed133a59fe32",
    "context.test_snapshots":
        "b6881fcdf36318a9f028d23ef9a62a5da2a349eba8f6713067b1b8649f724a83",
}

_SCRIPT = """
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.data import LatLonGrid
from repro.data.sst import SyntheticSST
from repro.experiments.context import ExperimentPreset, ReproductionContext
from repro.forecast import PODCoefficientPipeline, PODLSTMEmulator
from repro.nn import Trainer
from repro.pipeline.service import emulator_digest
from repro.serve import load_bundle, save_bundle


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


generator = SyntheticSST(grid=LatLonGrid(degrees=12.0), seed=123)
snaps = generator.snapshots(np.arange(160))
train, test = snaps[:, :100], snaps[:, 100:]
out = {}

pipe = PODCoefficientPipeline(n_modes=5, window=8).fit(train)
config, arrays = pipe.fitted_state()
out["pipeline.fitted_state"] = hashlib.sha256(
    json.dumps(config, sort_keys=True).encode()
    + digest(*(arrays[k] for k in sorted(arrays))).encode()).hexdigest()
scaled = pipe.transform(snaps)
out["pipeline.transform"] = digest(scaled)
windows = pipe.windows(scaled)
out["pipeline.windows"] = digest(windows.inputs, windows.outputs)
out["pipeline.inverse"] = digest(pipe.inverse(scaled))
out["pipeline.reconstruct"] = digest(pipe.reconstruct(scaled))

emulator = PODLSTMEmulator(n_modes=5, window=8,
                           trainer=Trainer(epochs=2, batch_size=16))
emulator.fit(train, rng=0)
out["emulator.digest"] = emulator_digest(emulator)
leads = emulator.forecast_leads(test, range(1, 9))
out["emulator.forecast_leads"] = digest(
    *(a for lead in sorted(leads) for a in leads[lead]))

inputs = emulator.pipeline.windows_from_snapshots(test).inputs
with tempfile.TemporaryDirectory() as tmp:
    loaded = load_bundle(save_bundle(emulator, Path(tmp) / "m.npz"))
out["bundle.predict_windows"] = digest(loaded.predict_windows(inputs))
assert emulator_digest(loaded) == out["emulator.digest"]

preset = ExperimentPreset(name="mini", degrees=12.0, seed=3)
out["context.test_snapshots"] = digest(
    ReproductionContext(preset).test_snapshots())
print(json.dumps(out))
"""


def test_coefficient_path_bytes():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", _SCRIPT],
                           capture_output=True, text=True, env=env,
                           timeout=600)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == RECORDED
