"""The durable-state layer (repro.durable): every reader fails on a
corrupt file with a ValueError that names it, and no other module writes
files atomically on its own."""

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.baselines import build_manual_lstm
from repro.hpc import ThetaPartition, run_search
from repro.nas import (
    AgingEvolution,
    ArchitecturePerformanceModel,
    CheckpointPolicy,
    SurrogateEvaluator,
    build_archive,
    load_archive,
    load_checkpoint,
)
from repro.nn.serialization import load_network, save_network
from repro.pipeline import FeedConfig, PipelineConfig, load_state
from repro.pipeline.state import PipelineState, save_state
from repro.pod.incremental import IncrementalPOD
from repro.serve import load_bundle, save_bundle


def _bundle(tmp_path, request):
    return save_bundle(request.getfixturevalue("tiny_emulator"),
                       tmp_path / "bundle.npz")


def _archive(tmp_path, request):
    space = request.getfixturevalue("small_space")
    return build_archive(space, ArchitecturePerformanceModel(space, seed=0),
                         tmp_path / "archive.npz", n_samples=8, rng=0)


def _pipeline_state(tmp_path, request):
    pod = IncrementalPOD(2)
    pod.partial_fit(np.random.default_rng(0).standard_normal((20, 6)))
    state = PipelineState(
        feed_config=FeedConfig().as_json(),
        pipeline_config=PipelineConfig().as_json(), next_batch=1,
        decisions=[], pod=pod)
    return save_state(tmp_path / "pipe.state", state)


def _campaign_checkpoint(tmp_path, request):
    space = request.getfixturevalue("small_space")
    path = tmp_path / "campaign.json"
    model = ArchitecturePerformanceModel(space, seed=0)
    run_search(AgingEvolution(space, rng=0, population_size=4,
                              sample_size=2),
               SurrogateEvaluator(space, model),
               ThetaPartition(n_nodes=2, wall_seconds=600.0), rng=0,
               walltime=200.0, checkpoint=CheckpointPolicy(path))
    return path


def _network(tmp_path, request):
    path = tmp_path / "net.npz"
    save_network(build_manual_lstm(4, 1, input_dim=2, output_dim=2, rng=0),
                 path)
    return path


#: (writer returning the written path, reader) per durable file family.
FAMILIES = {
    "bundle": (_bundle, load_bundle),
    "nas-archive": (_archive, load_archive),
    "pipeline-state": (_pipeline_state, load_state),
    "campaign-checkpoint": (_campaign_checkpoint, load_checkpoint),
    "network": (_network, load_network),
}


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _non_utf8_header(path: Path) -> None:
    """Make the header bytes invalid UTF-8: the whole document of a JSON
    file, the first (header) member of an ``.npz``."""
    if path.suffix == ".json":
        path.write_bytes(b"\xff" + path.read_bytes()[1:])
        return
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    header = next(iter(members))
    raw = bytearray(members[header].tobytes())
    raw[0] = 0xFF
    members[header] = np.frombuffer(bytes(raw), dtype=np.uint8)
    np.savez(path, **members)


@pytest.mark.parametrize("corrupt", [_truncate, _non_utf8_header],
                         ids=["truncated", "non-utf8-header"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_corrupt_file_raises_value_error_naming_it(tmp_path, request,
                                                   family, corrupt):
    write, read = FAMILIES[family]
    path = write(tmp_path, request)
    read(path)  # intact: loads
    corrupt(path)
    with pytest.raises(ValueError) as err:
        read(path)
    assert err.type is ValueError
    assert str(path) in str(err.value)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_missing_file_stays_file_not_found(tmp_path, family):
    _, read = FAMILIES[family]
    with pytest.raises(FileNotFoundError):
        read(tmp_path / "missing.npz")


#: Calls only repro/durable.py may make: the atomic-rename and fsync
#: primitives and the npz writer.
_WRITE_PRIMITIVES = re.compile(
    r"\b(?:os\.(?:replace|fsync)|(?:np|numpy)\.savez)"
    r"|\bfrom os import .*\b(?:replace|fsync)\b"
    r"|\bfrom numpy import .*\bsavez")


def test_only_durable_module_writes_atomically():
    """Every durable write goes through repro.durable, so one module
    holds the crash discipline (and any future fault hook)."""
    package = Path(repro.__file__).parent
    durable = package / "durable.py"
    assert _WRITE_PRIMITIVES.search(durable.read_text(encoding="utf-8"))
    offenders = [
        f"{path.relative_to(package.parent)}:{lineno}"
        for path in sorted(package.rglob("*.py")) if path != durable
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if _WRITE_PRIMITIVES.search(line)]
    assert not offenders, (
        f"write through repro.durable instead: {offenders}")
