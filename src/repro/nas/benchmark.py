"""Tabular + surrogate NAS benchmark backend (docs/NAS_BENCHMARK.md).

The paper's headline cost is the search itself: tens of thousands of
candidate LSTMs, each paying a full 20-epoch training. Following
NAS-Bench-NLP's tabular archive of RNN-cell evaluations and the
Surrogate NAS Benchmarks line of work (PAPERS.md), this module collapses
that cost with a precomputed benchmark:

* :func:`build_archive` sweeps a search space through the
  :class:`~repro.nas.surrogate.ArchitecturePerformanceModel` and writes
  a versioned, pickle-free ``.npz`` artifact of ``(architecture encoding
  -> reward, cost, per-epoch training curve)`` records through
  :mod:`repro.durable` (atomic write, versioned header);
  :func:`load_archive` checks that header against the records;
* :class:`BenchmarkEvaluator` answers asks at any epoch budget from the
  table, falling back to a ridge regression fitted on the archive (over
  the one-hot architecture feature vector) for off-table points — so any
  searcher runs a full campaign in seconds instead of hours.

Determinism contract
--------------------
For an architecture **in the table**, :class:`BenchmarkEvaluator`
draws, at any budget, the identical per-evaluation noise stream (one
quality draw, one cost draw) that
:class:`~repro.nas.evaluation.SurrogateEvaluator` draws, on top of the
archived noise-free quality/mean cost — so a campaign served from the
archive is **bitwise identical** to the campaign that would have paid
per-candidate simulated training, in both in-loop and backend
evaluation modes (tests/test_nas_benchmark.py). Off-table predictions
are deterministic functions of the archive alone: two evaluators loaded
from the same file predict identically.

Campaign checkpoints (docs/CHECKPOINTING.md) treat the backend as just
another stream: the archive's SHA-256 content digest is recorded in the
v2 campaign schema via :meth:`BenchmarkEvaluator.checkpoint_identity`,
and a resume against a different archive fails with a diagnosis instead
of silently continuing a different experiment.

This enables the Li & Talwalkar-style reproducibility studies the
always-pay-training searchers make infeasible: :func:`run_seed_sweep`
repeats a campaign across seeds and emits a versioned report
(``repro benchmark sweep``, validated in CI).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.durable import atomic_write_npz, read_npz
from repro.nas.evaluation import EvaluationResult, Evaluator
from repro.nas.space.ops import Operation
from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.nas.surrogate import ArchitecturePerformanceModel
from repro.utils.rng import as_generator, as_seed_sequence, child_sequence

__all__ = ["ARCHIVE_FORMAT", "ARCHIVE_VERSION", "RIDGE_LAMBDA",
           "SWEEP_FORMAT", "SWEEP_VERSION", "ArchitectureArchive",
           "BenchmarkEvaluator", "build_archive", "load_archive",
           "read_archive_header", "run_benchmark_campaign",
           "run_seed_sweep", "validate_sweep_report"]

#: Format tag of a benchmark archive artifact.
ARCHIVE_FORMAT = "repro-nas-benchmark"

#: Current archive schema version; loaders accept exactly what they can
#: decode (see repro.durable.check_envelope).
ARCHIVE_VERSION = 1

#: Reserved array name carrying the JSON header inside the ``.npz``.
_HEADER_KEY = "__benchmark__"

_DESCRIBE = "a NAS benchmark archive"

#: Hard cap on exhaustive sweeps — asking for the paper's full 8.6M-point
#: space by accident should fail fast, not thrash for hours.
_EXHAUSTIVE_LIMIT = 200_000

#: Penalty of the off-table ridge fallback; small enough that a
#: linear-in-choices landscape is recovered at the archived points.
RIDGE_LAMBDA = 1e-6

#: Format tag / version of the multi-seed sweep report.
SWEEP_FORMAT = "repro-nas-sweep-report"
SWEEP_VERSION = 1


# ---------------------------------------------------------------------------
# Space (de)serialization — the archive must be self-describing
# ---------------------------------------------------------------------------

def _space_config(space: StackedLSTMSpace) -> dict:
    return {"n_layers": space.n_layers, "input_dim": space.input_dim,
            "output_dim": space.output_dim,
            "max_skip_depth": space.max_skip_depth,
            "operations": [[op.kind, op.units] for op in space.operations]}


def _space_from_config(config: dict) -> StackedLSTMSpace:
    ops = tuple(Operation(str(kind), int(units))
                for kind, units in config["operations"])
    return StackedLSTMSpace(
        int(config["n_layers"]), input_dim=int(config["input_dim"]),
        output_dim=int(config["output_dim"]), operations=ops,
        max_skip_depth=int(config["max_skip_depth"]))


def _content_digest(encodings: np.ndarray, rewards: np.ndarray,
                    costs: np.ndarray, curves: np.ndarray) -> str:
    """SHA-256 over the record arrays (shape+dtype+bytes): the archive's
    identity for checkpoint compatibility checks."""
    h = hashlib.sha256()
    for arr in (encodings, rewards, costs, curves):
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(np.asarray(arr.shape, dtype=np.int64).tobytes())
        h.update(arr.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The archive
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchitectureArchive:
    """In-memory view of one benchmark archive.

    ``rewards`` are **noise-free** expected qualities at ``epochs``
    epochs, ``costs`` noise-free mean single-node training seconds —
    per-evaluation noise is re-applied at ask time from the caller's RNG
    stream (see module docstring). ``curves[i, e-1]`` is record ``i``'s
    expected quality after ``e`` epochs.
    """

    space: StackedLSTMSpace
    encodings: np.ndarray         # (n, n_variable_nodes) int64
    rewards: np.ndarray           # (n,) float64
    costs: np.ndarray             # (n,) float64
    curves: np.ndarray            # (n, epochs) float64
    epochs: int
    noise: dict                   # {"noise_std", "time_noise_sigma"}
    digest: str
    metadata: dict = field(default_factory=dict)

    @property
    def n_records(self) -> int:
        return int(self.encodings.shape[0])

    def index(self) -> dict[tuple, int]:
        """Encoding -> row lookup table."""
        return {tuple(int(v) for v in row): i
                for i, row in enumerate(self.encodings)}


def build_archive(space: StackedLSTMSpace,
                  model: ArchitecturePerformanceModel, path, *,
                  architectures=None, n_samples: int | None = None,
                  rng=None, epochs: int = 20,
                  metadata: dict | None = None):
    """Sweep ``space`` through ``model`` and write a benchmark archive.

    Records hold the model's noise-free quality after 1..``epochs``
    epochs and mean training cost at ``epochs``; the header carries its
    noise levels, which the benchmark re-applies at ask time.

    Parameters
    ----------
    architectures:
        Explicit encodings to record. Default: exhaustive enumeration of
        the space (requires ``space.size`` <= 200k) unless ``n_samples``
        asks for that many *distinct* uniform samples instead.
    rng:
        Seeds the sampling.
    epochs:
        Training budget of the recorded qualities and curve length.

    Returns the path the archive actually lives at.
    """
    if not isinstance(model, ArchitecturePerformanceModel):
        raise TypeError(f"model must be an ArchitecturePerformanceModel, "
                        f"got {type(model).__name__}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    gen = as_generator(rng)
    if architectures is not None:
        if n_samples is not None:
            raise ValueError("pass either architectures= or n_samples=, "
                             "not both")
        archs = [space.validate(a) for a in architectures]
        if not archs:
            raise ValueError("architectures is empty")
    elif n_samples is not None:
        if n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {n_samples}")
        if n_samples > space.size:
            raise ValueError(f"n_samples {n_samples} exceeds the space "
                             f"size {space.size}")
        seen: set[int] = set()
        archs = []
        while len(archs) < n_samples:
            arch = space.random_architecture(gen)
            rank = space.index_of(arch)
            if rank not in seen:
                seen.add(rank)
                archs.append(arch)
    else:
        if space.size > _EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"space has {space.size} architectures; exhaustive sweeps "
                f"are capped at {_EXHAUSTIVE_LIMIT} — pass n_samples= or "
                f"architectures=")
        archs = [space.from_index(i) for i in range(space.size)]

    n = len(archs)
    encodings = np.asarray(archs, dtype=np.int64)
    costs = np.empty(n, dtype=np.float64)
    curves = np.empty((n, epochs), dtype=np.float64)
    with obs.scope("nas/benchmark/build"):
        for i, arch in enumerate(archs):
            curves[i] = [model.quality(arch, e) for e in range(1, epochs + 1)]
            costs[i] = model.training_seconds(arch, rng=None, epochs=epochs)
    rewards = curves[:, -1].copy()

    header = {
        "format": ARCHIVE_FORMAT, "version": ARCHIVE_VERSION,
        "space": _space_config(space),
        "epochs": int(epochs),
        "n_records": n,
        "fidelity": "surrogate-model",
        "noise": {"noise_std": float(model.noise_std),
                  "time_noise_sigma": float(model.time_noise_sigma)},
        "digest": _content_digest(encodings, rewards, costs, curves),
        "metadata": dict(metadata or {}),
    }
    arrays = {"arch": encodings, "reward": rewards, "cost": costs,
              "curve": curves}
    target = atomic_write_npz(path, header, arrays, key=_HEADER_KEY)
    if obs.enabled():
        obs.counter_add("nas/benchmark/records_built", n)
    return target


def _read(path, arrays: bool = True) -> tuple[dict, dict]:
    return read_npz(path, key=_HEADER_KEY, fmt=ARCHIVE_FORMAT,
                    versions=(ARCHIVE_VERSION,), describe=_DESCRIBE,
                    arrays=arrays)


def read_archive_header(path) -> dict:
    """The envelope-checked JSON header of an archive, without loading
    records (:func:`load_archive` checks the rest of it)."""
    return _read(path, arrays=False)[0]


def load_archive(path) -> ArchitectureArchive:
    """Load an archive written by :func:`build_archive`.

    Besides the envelope (format/version) and the content digest
    (corruption check), the header must agree with the records: a
    ``space`` the encodings fit, ``epochs`` an int >= 1 equal to the
    curve width, finite non-negative ``noise`` levels and the true
    ``n_records``. Any failure raises a ``ValueError`` naming the file.
    """
    header, arrays = _read(path)
    missing = {"arch", "reward", "cost", "curve"} - set(arrays)
    if missing:
        raise ValueError(f"{path}: archive lacks arrays {sorted(missing)}")
    encodings = np.asarray(arrays["arch"], dtype=np.int64)
    rewards = np.asarray(arrays["reward"], dtype=np.float64)
    costs = np.asarray(arrays["cost"], dtype=np.float64)
    curves = np.asarray(arrays["curve"], dtype=np.float64)
    n = len(encodings)
    if not (n == len(rewards) == len(costs) == len(curves)):
        raise ValueError(f"{path}: record arrays disagree on length")
    if header.get("n_records") != n:
        raise ValueError(f"{path}: header n_records "
                         f"{header.get('n_records')!r} != {n} records")
    try:
        space = _space_from_config(header["space"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad header space "
                         f"({type(exc).__name__}: {exc})") from exc
    if encodings.ndim != 2 or \
            encodings.shape[1] != space.n_variable_nodes:
        raise ValueError(
            f"{path}: encodings have shape {encodings.shape}, expected "
            f"(n, {space.n_variable_nodes}) for {space!r}")
    epochs = header.get("epochs")
    if isinstance(epochs, bool) or not isinstance(epochs, int) or \
            epochs < 1 or curves.shape != (n, epochs):
        raise ValueError(f"{path}: header epochs {epochs!r} must be an "
                         f"int >= 1 matching the curve block "
                         f"{curves.shape}")
    noise = header.get("noise")
    if not isinstance(noise, dict) or not all(
            isinstance(noise.get(k), float) and math.isfinite(noise[k])
            and noise[k] >= 0 for k in ("noise_std", "time_noise_sigma")):
        raise ValueError(f"{path}: header noise {noise!r} must hold finite, "
                         f"non-negative float noise_std and time_noise_sigma")
    digest = _content_digest(encodings, rewards, costs, curves)
    if digest != header.get("digest"):
        raise ValueError(
            f"{path}: content digest mismatch (file corrupt or arrays "
            f"edited without rewriting the header)")
    return ArchitectureArchive(
        space=space, encodings=encodings, rewards=rewards, costs=costs,
        curves=curves, epochs=epochs, noise=dict(noise), digest=digest,
        metadata=dict(header.get("metadata", {})))


# ---------------------------------------------------------------------------
# The benchmark evaluation backend
# ---------------------------------------------------------------------------

class BenchmarkEvaluator(Evaluator):
    """Answer evaluations from a benchmark archive (table, else ridge).

    In-table asks replay the archived noise-free quality/mean cost with
    the caller's per-evaluation noise draws applied on top — bitwise what
    :class:`~repro.nas.evaluation.SurrogateEvaluator` would have returned
    (see module docstring). Off-table asks fall back to closed-form ridge
    regression (penalty :data:`RIDGE_LAMBDA`) over the one-hot
    architecture feature vector (one indicator per (variable node,
    choice) plus a bias), fitted once on the archive, separately for
    reward and cost; it exactly recovers any linear-in-choices landscape.
    The fit is a deterministic function of the archive: no RNG, so two
    evaluators loaded from the same file predict identically. Obs
    counters ``nas/benchmark/table_hit`` / ``nas/benchmark/
    surrogate_miss`` meter the two paths.

    Picklable (plain arrays + dicts), so it rides the
    :class:`~repro.hpc.parallel.ParallelEvaluator` pool unchanged.
    """

    def __init__(self, archive) -> None:
        if not isinstance(archive, ArchitectureArchive):
            archive = load_archive(archive)
        super().__init__(archive.space)
        self.archive = archive
        self.epochs = archive.epochs
        self._table = archive.index()
        self._fit: tuple[np.ndarray, np.ndarray] | None = None

    # -- identity (campaign checkpoints) --------------------------------
    @property
    def digest(self) -> str:
        return self.archive.digest

    def checkpoint_identity(self) -> dict:
        """What the v2 campaign checkpoint records about this backend: a
        resume must present the same archive (by content digest).
        ``"surrogate"`` names the off-table fallback, always ridge; it is
        kept so that checkpoints which recorded it still resume."""
        return {"kind": "nas-benchmark", "digest": self.archive.digest,
                "epochs": self.epochs, "surrogate": "ridge"}

    # -- ridge fallback ----------------------------------------------------
    def _one_hot(self, encodings: np.ndarray) -> np.ndarray:
        cards = self.space.cardinalities
        offsets = np.concatenate(([0], np.cumsum(cards)[:-1]))
        n = encodings.shape[0]
        x = np.zeros((n, int(sum(cards)) + 1), dtype=np.float64)
        x[:, -1] = 1.0                        # bias column
        rows = np.arange(n)
        for j, off in enumerate(offsets):
            x[rows, off + encodings[:, j]] = 1.0
        return x

    def _predict(self, arch: tuple) -> tuple[float, float]:
        """Deterministic full-budget (quality, mean cost) for an
        off-table point."""
        if self._fit is None:
            x = self._one_hot(self.archive.encodings)
            gram = x.T @ x + RIDGE_LAMBDA * np.eye(x.shape[1])
            self._fit = (np.linalg.solve(gram, x.T @ self.archive.rewards),
                         np.linalg.solve(gram, x.T @ self.archive.costs))
        w_reward, w_cost = self._fit
        x = self._one_hot(np.asarray([arch], dtype=np.int64))[0]
        return float(x @ w_reward), float(x @ w_cost)

    # -- the Evaluator protocol ------------------------------------------
    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        return self.evaluate_at(arch, self.epochs, rng)

    def evaluate_at(self, arch: Architecture, epochs: int,
                    rng=None) -> EvaluationResult:
        """Answer an ask at an ``epochs`` budget (multi-fidelity rungs).

        In-table asks read the archived reward and cost at the full
        budget and, below it, ``curves[i, epochs-1]`` with the cost
        prorated to ``epochs``. Off-table asks take the ridge prediction,
        shifted below the full budget by the table-mean truncation
        offset and prorated alike.
        """
        epochs = int(epochs)
        if not 1 <= epochs <= self.epochs:
            raise ValueError(
                f"epochs must be in [1, {self.epochs}], got {epochs}")
        truncated = epochs < self.epochs
        gen = as_generator(rng)
        arch = self.space.validate(arch)
        with obs.scope("nas/evaluate/benchmark"):
            idx = self._table.get(arch)
            if idx is None:
                quality, mean_cost = self._predict(arch)
                if truncated:  # shift by the table-mean truncation drop
                    quality += float(np.mean(
                        self.archive.curves[:, epochs - 1]
                        - self.archive.rewards))
            else:
                quality = float(self.archive.curves[idx, epochs - 1]
                                if truncated else self.archive.rewards[idx])
                mean_cost = float(self.archive.costs[idx])
            if truncated:
                mean_cost *= epochs / self.epochs
        # Exactly SurrogateEvaluator's two per-evaluation draws, in order
        # — quality noise, then lognormal cost noise — so the caller's
        # stream advances identically and in-table results are bitwise
        # equal to the simulated-training path.
        noise_std = float(self.archive.noise["noise_std"])
        sigma = float(self.archive.noise["time_noise_sigma"])
        reward = float(quality + gen.normal(0.0, noise_std))
        cost_noise = np.exp(gen.normal(0.0, sigma) - 0.5 * sigma ** 2)
        duration = float(mean_cost * cost_noise)
        if obs.enabled():
            obs.counter_add("nas/evaluations")
            obs.counter_add("nas/benchmark/surrogate_miss" if idx is None
                            else "nas/benchmark/table_hit")
            obs.counter_add("nas/simulated_seconds", duration)
        return EvaluationResult(
            architecture=arch, reward=reward, duration=duration,
            n_parameters=self.space.count_parameters(arch),
            metadata={"fidelity": "benchmark",
                      "source": "surrogate" if idx is None else "table",
                      "epochs": epochs})


# ---------------------------------------------------------------------------
# Campaigns and multi-seed sweeps
# ---------------------------------------------------------------------------

def _make_algorithm(name: str, space: StackedLSTMSpace, seed: int):
    from repro.nas.algorithms import AgingEvolution, DistributedRL, \
        GeneticSearch, RandomSearch
    if name == "rs":
        return RandomSearch(space, rng=seed)
    if name == "ae":
        return AgingEvolution(space, rng=seed,
                              population_size=min(20, space.size),
                              sample_size=5)
    if name == "ga":
        return GeneticSearch(space, rng=seed,
                             population_size=min(20, space.size),
                             tournament_size=4)
    if name == "rl":
        return DistributedRL(space, rng=seed, n_agents=2,
                             workers_per_agent=2)
    raise ValueError(
        f"unknown algorithm {name!r}: use 'rs', 'ae', 'ga' or 'rl'")


def run_benchmark_campaign(evaluator: Evaluator, *, algorithm: str = "rs",
                           n_evaluations: int = 200, seed: int = 0) -> dict:
    """One fixed-budget campaign against ``evaluator`` (ask/tell loop for
    rs/ae; round loop for rl), returning a plain result dict.

    Per-evaluation RNG streams are order-stable children of ``seed``
    (:func:`repro.utils.rng.child_sequence`), so a campaign is a pure
    function of ``(archive, algorithm, seed)``.
    """
    if n_evaluations < 1:
        raise ValueError(
            f"n_evaluations must be >= 1, got {n_evaluations}")
    search = _make_algorithm(algorithm, evaluator.space, seed)
    task_root = child_sequence(as_seed_sequence(seed), 0)
    # Where each answer came from, counted off the results themselves so
    # the report does not depend on whether observability is on.
    sources = {"table": 0, "surrogate": 0}

    def evaluate(arch, index: int) -> float:
        result = evaluator.evaluate(
            arch, np.random.default_rng(child_sequence(task_root, index)))
        source = result.metadata.get("source")
        if source in sources:
            sources[source] += 1
        return result.reward

    start = time.perf_counter()
    n_done = 0
    with obs.scope("nas/benchmark/campaign"):
        if search.asynchronous:
            while n_done < n_evaluations:
                arch = search.ask()
                search.tell(arch, evaluate(arch, n_done))
                n_done += 1
        else:
            while n_done < n_evaluations:
                batches = search.propose_round()
                rewards = []
                for batch in batches:
                    row = []
                    for arch in batch:
                        row.append(evaluate(arch, n_done))
                        n_done += 1
                    rewards.append(row)
                search.finish_round(batches, rewards)
    wall = time.perf_counter() - start
    return {
        "algorithm": algorithm, "seed": int(seed),
        "n_evaluations": n_done,
        "best_reward": float(search.best_reward),
        "best_architecture": (list(search.best_architecture)
                              if search.best_architecture is not None
                              else None),
        "table_hits": sources["table"],
        "surrogate_misses": sources["surrogate"],
        "wall_seconds": wall,
    }


def run_seed_sweep(evaluator: Evaluator, *, algorithm: str = "rs",
                   n_evaluations: int = 50, n_seeds: int = 10,
                   base_seed: int = 0) -> dict:
    """Repeat a campaign across ``n_seeds`` seeds — the Li & Talwalkar
    reproducibility study a tabular benchmark makes affordable — and
    return a versioned report (see :func:`validate_sweep_report`)."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    campaigns = [run_benchmark_campaign(
        evaluator, algorithm=algorithm, n_evaluations=n_evaluations,
        seed=base_seed + i) for i in range(n_seeds)]
    best = [c["best_reward"] for c in campaigns]
    report = {
        "format": SWEEP_FORMAT, "version": SWEEP_VERSION,
        "algorithm": algorithm,
        "n_evaluations": int(n_evaluations),
        "n_seeds": int(n_seeds), "base_seed": int(base_seed),
        "archive_digest": getattr(evaluator, "digest", None),
        "campaigns": campaigns,
        "best_reward": {
            "mean": statistics.fmean(best),
            "std": statistics.pstdev(best) if len(best) > 1 else 0.0,
            "min": min(best), "max": max(best),
            "median": statistics.median(best),
        },
        "total_wall_seconds": sum(c["wall_seconds"] for c in campaigns),
    }
    validate_sweep_report(report)
    return report


def validate_sweep_report(report) -> None:
    """Schema-check a sweep report; raises ValueError on the first
    violation (the CI ``benchmark-smoke`` job gates on this)."""
    if not isinstance(report, dict):
        raise ValueError("sweep report must be a dict")
    if report.get("format") != SWEEP_FORMAT:
        raise ValueError(f"not a sweep report "
                         f"(format {report.get('format')!r})")
    if report.get("version") != SWEEP_VERSION:
        raise ValueError(f"unsupported sweep report version "
                         f"{report.get('version')!r}")
    for key in ("algorithm", "n_evaluations", "n_seeds", "base_seed",
                "campaigns", "best_reward", "total_wall_seconds"):
        if key not in report:
            raise ValueError(f"sweep report lacks {key!r}")
    campaigns = report["campaigns"]
    if not isinstance(campaigns, list) or \
            len(campaigns) != report["n_seeds"]:
        raise ValueError(
            f"expected {report['n_seeds']} campaigns, "
            f"got {len(campaigns) if isinstance(campaigns, list) else campaigns!r}")
    for i, c in enumerate(campaigns):
        for key in ("seed", "n_evaluations", "best_reward",
                    "best_architecture", "table_hits", "surrogate_misses",
                    "wall_seconds"):
            if key not in c:
                raise ValueError(f"campaign {i} lacks {key!r}")
        if int(c["n_evaluations"]) < int(report["n_evaluations"]):
            raise ValueError(
                f"campaign {i} completed {c['n_evaluations']} < "
                f"{report['n_evaluations']} evaluations")
        hits, misses = int(c["table_hits"]), int(c["surrogate_misses"])
        if hits < 0 or misses < 0:
            raise ValueError(
                f"campaign {i} has negative table_hits/surrogate_misses "
                f"({hits}, {misses})")
        if hits + misses > int(c["n_evaluations"]):
            raise ValueError(
                f"campaign {i} counts {hits} table_hits + {misses} "
                f"surrogate_misses, more than its {c['n_evaluations']} "
                f"evaluations")
        if not np.isfinite(c["best_reward"]):
            raise ValueError(f"campaign {i} best_reward is not finite")
    stats = report["best_reward"]
    for key in ("mean", "std", "min", "max", "median"):
        if key not in stats or not np.isfinite(stats[key]):
            raise ValueError(f"best_reward.{key} missing or not finite")
    if not stats["min"] <= stats["median"] <= stats["max"]:
        raise ValueError("best_reward statistics are inconsistent")
