"""Versioned, atomic search checkpoint/restart (docs/CHECKPOINTING.md).

On a real machine a 3-hour allocation ends whether or not the search is
done; DeepHyper-style campaigns resume from saved state. Checkpoints are
plain JSON — architectures as integer lists, rewards as floats, RNG state
as stringified bit-generator words — so they stay portable and
inspectable by external tools (``allow_nan=False`` guarantees spec-valid
JSON: an untold search's ``best_reward = -inf`` is stored as ``null``,
never the non-standard ``-Infinity`` token).

Exactness: a checkpoint captures the **complete** search state, including
the exact position of every RNG bit-stream (via
:func:`repro.utils.rng.generator_state`). Restoring does *not* reseed —
reseeding would make an interrupted campaign a different experiment than
an uninterrupted one, which is exactly the reproducibility failure Li &
Talwalkar warn about. A resumed search proposes the bit-identical
continuation; the differential suite (tests/test_campaign_resume.py)
enforces this for every algorithm. Legacy v1 checkpoints (written before
RNG capture existed) are still loadable and fall back to
``seed_on_resume`` reseeding, with the caveat that they cannot reproduce
the uninterrupted trajectory.

Atomicity: :func:`save_search` (and every campaign checkpoint the
executors write) goes through :func:`repro.durable.atomic_write_json` —
serialize to a ``.tmp`` sibling, ``fsync``, then an atomic rename over
the target. A kill at any instant leaves either the previous checkpoint
or the new one, never a torn file.

All four algorithms are covered: :class:`AgingEvolution`,
:class:`RandomSearch`, and :class:`DistributedRL` (whose state includes
each :class:`~repro.nas.algorithms.ppo.PPOAgent`'s policy logits, value
baseline, and the synchronized round counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.durable import atomic_write_json, check_envelope, read_json
from repro.nas.algorithms.aging_evolution import AgingEvolution
from repro.nas.algorithms.genetic import GeneticSearch
from repro.nas.algorithms.ppo import PPOConfig
from repro.nas.algorithms.random_search import RandomSearch
from repro.nas.algorithms.rl_nas import DistributedRL
from repro.nas.space.search_space import StackedLSTMSpace

__all__ = ["SEARCH_FORMAT", "CAMPAIGN_FORMAT", "CHECKPOINT_VERSION",
           "CheckpointPolicy", "search_state",
           "save_search", "restore_search", "load_search",
           "load_checkpoint"]

#: Format tag of an algorithm-only checkpoint (one search's state).
SEARCH_FORMAT = "repro-search-checkpoint"

#: Format tag of a full campaign checkpoint (search + executor + tracker),
#: written by the walltime-bounded executors in :mod:`repro.hpc.executor`.
CAMPAIGN_FORMAT = "repro-campaign-checkpoint"

#: Current schema version. v1 is the legacy pre-RNG-capture layout (no
#: ``format``/``version`` keys); v2 adds exact RNG state, DistributedRL
#: coverage, and JSON-spec-valid ``best_reward`` encoding.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where a campaign writes checkpoints.

    Parameters
    ----------
    path:
        Checkpoint file; each write atomically replaces the previous one.
    every_seconds:
        Periodic checkpoint interval in *simulated* seconds. ``None``
        writes only at walltime expiry / campaign completion. The
        synchronous RL search rounds the interval up to its next round
        boundary (its only quiescent points).
    """

    path: str | Path
    every_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValueError(
                f"every_seconds must be positive, got {self.every_seconds}")


def search_state(search) -> dict:
    """Versioned JSON-compatible snapshot of any search algorithm."""
    if not isinstance(search, (AgingEvolution, RandomSearch, DistributedRL,
                               GeneticSearch)):
        raise TypeError(
            f"checkpointing supports AgingEvolution, RandomSearch, "
            f"DistributedRL and GeneticSearch, got {type(search).__name__}")
    return {"format": SEARCH_FORMAT, "version": CHECKPOINT_VERSION,
            **search.state_dict()}


def save_search(search, path) -> None:
    """Atomically write a checkpoint of ``search`` to ``path`` (JSON)."""
    atomic_write_json(path, search_state(search))


def _build_algorithm(state: dict, space: StackedLSTMSpace):
    """Construct an uninitialized instance of the checkpointed class."""
    name = state.get("algorithm")
    if name == "AgingEvolution":
        return AgingEvolution(space, rng=0,
                              population_size=state["population_size"],
                              sample_size=state["sample_size"],
                              aging=state.get("aging", True))
    if name == "RandomSearch":
        return RandomSearch(space, rng=0)
    if name == "DistributedRL":
        return DistributedRL(space, rng=0,
                             n_agents=state["n_agents"],
                             workers_per_agent=state["workers_per_agent"],
                             config=PPOConfig(**state["config"]))
    if name == "GeneticSearch":
        config = state["config"]
        return GeneticSearch(space, rng=0,
                             population_size=config["population_size"],
                             tournament_size=config["tournament_size"],
                             crossover_rate=config["crossover_rate"],
                             mutation_rate=config["mutation_rate"],
                             elite=config["elite"])
    raise ValueError(f"unknown algorithm {name!r} in checkpoint")


def restore_search(state: dict, space: StackedLSTMSpace, *,
                   seed_on_resume=None):
    """Rebuild a search from a :func:`search_state` snapshot.

    v2 snapshots restore exactly, including the RNG bit-stream —
    ``seed_on_resume`` is ignored. Legacy v1 snapshots carry no RNG state,
    so the generator is reseeded from ``seed_on_resume`` (the old,
    non-reproducible behaviour, kept so existing files remain loadable).
    """
    # Legacy v1 files predate the envelope: no format/version keys.
    legacy = "format" not in state and "version" not in state
    if not legacy:
        check_envelope(state, "checkpoint", fmt=SEARCH_FORMAT,
                       versions=(CHECKPOINT_VERSION,),
                       describe="a search checkpoint")
    search = _build_algorithm(state, space)
    if not legacy:
        search.load_state_dict(state)
        return search
    # -- legacy v1 layout (reseed-on-resume) ------------------------------
    search.rng = np.random.default_rng(seed_on_resume)
    search.n_asked = int(state["n_asked"])
    search.n_told = int(state["n_told"])
    reward = state["best_reward"]
    search.best_reward = -float("inf") if reward is None else float(reward)
    if state.get("best_architecture") is not None:
        search.best_architecture = space.validate(
            state["best_architecture"])
    if isinstance(search, AgingEvolution):
        for arch, reward in state.get("population", []):
            search.population.append((space.validate(arch), float(reward)))
    return search


def load_checkpoint(path) -> dict:
    """Read any checkpoint file (search or campaign) as a raw dict; an
    undecodable file raises ``ValueError`` naming it."""
    return read_json(path)


def load_search(path, space: StackedLSTMSpace, *, seed_on_resume=None):
    """Read a checkpoint written by :func:`save_search` — or extract the
    algorithm from a campaign checkpoint written by the executors."""
    state = load_checkpoint(path)
    if state.get("format") == CAMPAIGN_FORMAT:
        state = state["algorithm"]
    return restore_search(state, space, seed_on_resume=seed_on_resume)
