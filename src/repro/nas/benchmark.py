"""Tabular + surrogate NAS benchmark backend (docs/NAS_BENCHMARK.md).

The paper's headline cost is the search itself: tens of thousands of
candidate LSTMs, each paying a full 20-epoch training. Following
NAS-Bench-NLP's tabular archive of RNN-cell evaluations and the
Surrogate NAS Benchmarks line of work (PAPERS.md), this module collapses
that cost with a precomputed benchmark:

* :func:`build_archive` sweeps a search space through the
  :class:`~repro.nas.surrogate.ArchitecturePerformanceModel` (or any
  :class:`~repro.nas.evaluation.Evaluator`, e.g. real short trainings)
  and writes a versioned, pickle-free ``.npz`` artifact of
  ``(architecture encoding -> reward, cost, training curve)`` records
  through :mod:`repro.durable` (atomic write, versioned header);
* :class:`BenchmarkEvaluator` answers asks from the table, falling back
  to a surrogate fitted on the archive (ridge or k-NN over the one-hot
  architecture feature vector) for off-table points — so any searcher
  runs a full campaign in seconds instead of hours.

Determinism contract
--------------------
For an architecture **in the table**, :meth:`BenchmarkEvaluator.evaluate`
draws the identical per-evaluation noise stream (one quality draw, one
cost draw) that :class:`~repro.nas.evaluation.SurrogateEvaluator` draws,
on top of the archived noise-free quality/mean-cost — so a campaign
served from the archive is **bitwise identical** to the campaign that
would have paid per-candidate simulated training, in both in-loop and
backend evaluation modes (tests/test_nas_benchmark.py). Off-table
predictions are deterministic functions of the archive alone: two
evaluators loaded from the same file predict identically.

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

__all__ = ["ARCHIVE_FORMAT", "ARCHIVE_VERSION", "SWEEP_FORMAT",
           "SWEEP_VERSION", "ArchitectureArchive", "BenchmarkEvaluator",
           "CurveUnavailableError", "build_archive", "load_archive",
           "read_archive_header", "run_benchmark_campaign",
           "run_seed_sweep", "validate_sweep_report"]


class CurveUnavailableError(ValueError):
    """A fidelity-truncated ask hit an archive built without per-epoch
    curves (``build_archive(..., with_curves=False)``). Typed so
    multi-fidelity schedulers can distinguish "this archive cannot answer
    low-fidelity asks" from a plain missing-architecture ``KeyError``."""

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

    @property
    def has_curves(self) -> bool:
        """False when built with ``with_curves=False`` (the curves array
        is ``(n, 0)`` and low-fidelity asks cannot be answered)."""
        return self.curves.shape[1] > 0

    def curve(self, arch: Architecture) -> np.ndarray:
        """The training curve recorded for an in-table architecture.

        Raises :class:`CurveUnavailableError` when the archive was built
        without curves, and ``KeyError`` when the architecture is simply
        not in the table.
        """
        if not self.has_curves:
            raise CurveUnavailableError(
                f"archive was built without per-epoch curves "
                f"(with_curves=False); rebuild with curves to answer "
                f"fidelity-truncated asks")
        key = tuple(int(v) for v in arch)
        for i, row in enumerate(self.encodings):
            if tuple(int(v) for v in row) == key:
                return self.curves[i]
        raise KeyError(f"architecture {key} is not in the archive")


def build_archive(space: StackedLSTMSpace, model, path, *,
                  architectures=None, n_samples: int | None = None,
                  rng=None, epochs: int = 20, with_curves: bool = True,
                  metadata: dict | None = None):
    """Sweep ``space`` through ``model`` and write a benchmark archive.

    Parameters
    ----------
    model:
        An :class:`ArchitecturePerformanceModel` (records its noise-free
        ``quality``/``training_seconds`` plus the per-epoch curve), or any
        :class:`~repro.nas.evaluation.Evaluator` — e.g. real short
        trainings — whose measured reward/cost are recorded verbatim
        (noise parameters zero: the benchmark replays the archived values
        exactly).
    architectures:
        Explicit encodings to record. Default: exhaustive enumeration of
        the space (requires ``space.size`` <= 200k) unless ``n_samples``
        asks for that many *distinct* uniform samples instead.
    rng:
        Seeds sampling and (Evaluator mode) the per-record task streams.
    epochs:
        Training budget of the recorded qualities and curve length.
    with_curves:
        False skips the per-epoch curves (smaller/faster builds); the
        resulting archive answers full-budget asks only — fidelity-
        truncated asks raise :class:`CurveUnavailableError`.

    Returns the path the archive actually lives at.
    """
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
    rewards = np.empty(n, dtype=np.float64)
    costs = np.empty(n, dtype=np.float64)
    curves = np.empty((n, epochs if with_curves else 0), dtype=np.float64)

    with obs.scope("nas/benchmark/build"):
        if isinstance(model, ArchitecturePerformanceModel):
            fidelity = "surrogate-model"
            noise = {"noise_std": float(model.noise_std),
                     "time_noise_sigma": float(model.time_noise_sigma)}
            for i, arch in enumerate(archs):
                rewards[i] = model.quality(arch, epochs)
                costs[i] = model.training_seconds(arch, rng=None,
                                                  epochs=epochs)
                if with_curves:
                    for e in range(1, epochs + 1):
                        curves[i, e - 1] = model.quality(arch, e)
        elif isinstance(model, Evaluator):
            # Measured-fidelity archive: the recorded values already
            # include whatever noise the evaluation process has, so the
            # benchmark replays them exactly (zero re-applied noise).
            fidelity = "evaluator"
            noise = {"noise_std": 0.0, "time_noise_sigma": 0.0}
            task_root = as_seed_sequence(gen).spawn(1)[0]
            for i, arch in enumerate(archs):
                result = model.evaluate(
                    arch, np.random.default_rng(
                        child_sequence(task_root, i)))
                rewards[i] = result.reward
                costs[i] = result.duration
                if not with_curves:
                    continue
                history = result.metadata.get("history")
                val_r2 = getattr(history, "val_r2", None)
                if val_r2:
                    curve = np.asarray(val_r2, dtype=np.float64)
                    k = min(len(curve), epochs)
                    curves[i, :k] = curve[:k]
                    curves[i, k:] = curve[k - 1]
                else:
                    curves[i, :] = result.reward
        else:
            raise TypeError(
                f"model must be an ArchitecturePerformanceModel or an "
                f"Evaluator, got {type(model).__name__}")

    header = {
        "format": ARCHIVE_FORMAT, "version": ARCHIVE_VERSION,
        "space": _space_config(space),
        "epochs": int(epochs),
        "n_records": n,
        "fidelity": fidelity,
        "noise": noise,
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
    """The validated JSON header of an archive, without loading records."""
    return _read(path, arrays=False)[0]


def load_archive(path) -> ArchitectureArchive:
    """Load an archive written by :func:`build_archive`, verifying the
    header (format/version) and the content digest (corruption check)."""
    header, arrays = _read(path)
    missing = {"arch", "reward", "cost", "curve"} - set(arrays)
    if missing:
        raise ValueError(f"{path}: archive lacks arrays {sorted(missing)}")
    space = _space_from_config(header["space"])
    encodings = np.asarray(arrays["arch"], dtype=np.int64)
    rewards = np.asarray(arrays["reward"], dtype=np.float64)
    costs = np.asarray(arrays["cost"], dtype=np.float64)
    curves = np.asarray(arrays["curve"], dtype=np.float64)
    if not (len(encodings) == len(rewards) == len(costs) == len(curves)):
        raise ValueError(f"{path}: record arrays disagree on length")
    if encodings.ndim != 2 or \
            encodings.shape[1] != space.n_variable_nodes:
        raise ValueError(
            f"{path}: encodings have shape {encodings.shape}, expected "
            f"(n, {space.n_variable_nodes}) for {space!r}")
    digest = _content_digest(encodings, rewards, costs, curves)
    if digest != header.get("digest"):
        raise ValueError(
            f"{path}: content digest mismatch (file corrupt or arrays "
            f"edited without rewriting the header)")
    return ArchitectureArchive(
        space=space, encodings=encodings, rewards=rewards, costs=costs,
        curves=curves, epochs=int(header["epochs"]),
        noise=dict(header["noise"]), digest=digest,
        metadata=dict(header.get("metadata", {})))


# ---------------------------------------------------------------------------
# The benchmark evaluation backend
# ---------------------------------------------------------------------------

class BenchmarkEvaluator(Evaluator):
    """Answer evaluations from a benchmark archive (table, else surrogate).

    In-table asks replay the archived noise-free quality/mean cost with
    the caller's per-evaluation noise draws applied on top — bitwise what
    :class:`~repro.nas.evaluation.SurrogateEvaluator` would have returned
    (see module docstring). Off-table asks fall back to a surrogate
    fitted once on the archive:

    * ``surrogate="ridge"`` (default) — closed-form ridge regression over
      the one-hot architecture feature vector (one indicator per
      (variable node, choice) plus a bias), fitted separately for reward
      and cost; exactly recovers any linear-in-choices landscape.
    * ``surrogate="knn"`` — mean of the ``knn_k`` nearest table records
      by Hamming distance over the encoding (stable tie-break by record
      order).

    Both fits are deterministic functions of the archive: no RNG, so two
    evaluators loaded from the same file predict identically. Obs
    counters ``nas/benchmark/table_hit`` / ``nas/benchmark/
    surrogate_miss`` meter the two paths.

    Picklable (plain arrays + dicts), so it rides the
    :class:`~repro.hpc.parallel.ParallelEvaluator` pool unchanged.
    """

    def __init__(self, archive, *, surrogate: str = "ridge",
                 ridge_lambda: float = 1e-6, knn_k: int = 8) -> None:
        if not isinstance(archive, ArchitectureArchive):
            archive = load_archive(archive)
        super().__init__(archive.space)
        if surrogate not in ("ridge", "knn"):
            raise ValueError(f"surrogate must be 'ridge' or 'knn', "
                             f"got {surrogate!r}")
        if ridge_lambda <= 0:
            raise ValueError(f"ridge_lambda must be positive, "
                             f"got {ridge_lambda}")
        if knn_k < 1:
            raise ValueError(f"knn_k must be >= 1, got {knn_k}")
        self.archive = archive
        self.epochs = archive.epochs
        self.surrogate = surrogate
        self.ridge_lambda = float(ridge_lambda)
        self.knn_k = int(knn_k)
        self._table = archive.index()
        self._fit: tuple[np.ndarray, np.ndarray] | None = None

    # -- identity (campaign checkpoints) --------------------------------
    @property
    def digest(self) -> str:
        return self.archive.digest

    def checkpoint_identity(self) -> dict:
        """What the v2 campaign checkpoint records about this backend: a
        resume must present the same archive (by content digest)."""
        return {"kind": "nas-benchmark", "digest": self.archive.digest,
                "epochs": self.epochs, "surrogate": self.surrogate}

    # -- surrogate fallback ----------------------------------------------
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

    def _ridge_weights(self) -> tuple[np.ndarray, np.ndarray]:
        if self._fit is None:
            x = self._one_hot(self.archive.encodings)
            gram = x.T @ x + self.ridge_lambda * np.eye(x.shape[1])
            w_reward = np.linalg.solve(gram, x.T @ self.archive.rewards)
            w_cost = np.linalg.solve(gram, x.T @ self.archive.costs)
            self._fit = (w_reward, w_cost)
        return self._fit

    def _predict(self, arch: tuple) -> tuple[float, float]:
        """Deterministic (quality, mean cost) for an off-table point."""
        if self.surrogate == "ridge":
            w_reward, w_cost = self._ridge_weights()
            x = self._one_hot(np.asarray([arch], dtype=np.int64))[0]
            return float(x @ w_reward), float(x @ w_cost)
        distances = np.count_nonzero(
            self.archive.encodings != np.asarray(arch, dtype=np.int64),
            axis=1)
        k = min(self.knn_k, self.archive.n_records)
        nearest = np.argsort(distances, kind="stable")[:k]
        return (float(np.mean(self.archive.rewards[nearest])),
                float(np.mean(self.archive.costs[nearest])))

    # -- the Evaluator protocol ------------------------------------------
    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        gen = as_generator(rng)
        arch = self.space.validate(arch)
        with obs.scope("nas/evaluate/benchmark"):
            idx = self._table.get(arch)
            if idx is not None:
                quality = float(self.archive.rewards[idx])
                mean_cost = float(self.archive.costs[idx])
                source = "table"
            else:
                quality, mean_cost = self._predict(arch)
                source = "surrogate"
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
            obs.counter_add(f"nas/benchmark/"
                            f"{'table_hit' if source == 'table' else 'surrogate_miss'}")
            obs.counter_add("nas/simulated_seconds", duration)
        return EvaluationResult(
            architecture=arch, reward=reward, duration=duration,
            n_parameters=self.space.count_parameters(arch),
            metadata={"fidelity": "benchmark", "source": source,
                      "epochs": self.epochs})

    def evaluate_at(self, arch: Architecture, epochs: int,
                    rng=None) -> EvaluationResult:
        """Fidelity-truncated ask, answered from the archived per-epoch
        curves (multi-fidelity rungs).

        In-table asks at ``epochs`` replay ``curves[i, epochs-1]`` — the
        noise-free quality the performance model reports at that budget —
        with the cost prorated to ``epochs``, then apply the same two
        noise draws as :meth:`evaluate`; the result is bitwise what
        :meth:`SurrogateEvaluator.evaluate_at
        <repro.nas.evaluation.SurrogateEvaluator.evaluate_at>` returns.
        Off-table asks shift the surrogate's full-budget prediction by
        the table-mean truncation offset. Archives built with
        ``with_curves=False`` raise :class:`CurveUnavailableError`.
        """
        epochs = int(epochs)
        if not 1 <= epochs <= self.epochs:
            raise ValueError(
                f"epochs must be in [1, {self.epochs}], got {epochs}")
        if epochs == self.epochs:
            return self.evaluate(arch, rng)
        if not self.archive.has_curves:
            raise CurveUnavailableError(
                f"archive {self.archive.digest[:12]} was built without "
                f"per-epoch curves (with_curves=False) and cannot answer "
                f"a {epochs}-epoch ask; rebuild the archive with curves")
        gen = as_generator(rng)
        arch = self.space.validate(arch)
        with obs.scope("nas/evaluate/benchmark"):
            idx = self._table.get(arch)
            if idx is not None:
                quality = float(self.archive.curves[idx, epochs - 1])
                mean_cost = float(self.archive.costs[idx]) \
                    * (epochs / self.epochs)
                source = "table"
            else:
                full_quality, full_cost = self._predict(arch)
                quality = full_quality + self._truncation_offset(epochs)
                mean_cost = full_cost * (epochs / self.epochs)
                source = "surrogate"
        noise_std = float(self.archive.noise["noise_std"])
        sigma = float(self.archive.noise["time_noise_sigma"])
        reward = float(quality + gen.normal(0.0, noise_std))
        cost_noise = np.exp(gen.normal(0.0, sigma) - 0.5 * sigma ** 2)
        duration = float(mean_cost * cost_noise)
        if obs.enabled():
            obs.counter_add("nas/evaluations")
            obs.counter_add(f"nas/benchmark/"
                            f"{'table_hit' if source == 'table' else 'surrogate_miss'}")
            obs.counter_add("nas/simulated_seconds", duration)
        return EvaluationResult(
            architecture=arch, reward=reward, duration=duration,
            n_parameters=self.space.count_parameters(arch),
            metadata={"fidelity": "benchmark", "source": source,
                      "epochs": epochs})

    def _truncation_offset(self, epochs: int) -> float:
        """Table-mean quality drop of truncating training to ``epochs``
        — the deterministic fidelity correction for off-table asks."""
        return float(np.mean(self.archive.curves[:, epochs - 1]
                             - self.archive.rewards))


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
