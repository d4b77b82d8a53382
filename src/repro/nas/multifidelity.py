"""Multi-fidelity budget allocation: successive halving and Hyperband.

The paper trains every sampled architecture to the full 20-epoch budget.
Li & Talwalkar (PAPERS.md) show that *budget schedulers* — train many
candidates briefly, promote only the promising ones to longer budgets —
buy the same final quality for a fraction of the training epochs. This
module adds that scheduling layer between the searchers and the
evaluators:

* :class:`SuccessiveHalving` — one bracket: start ``n`` candidates at
  ``min_epochs``, keep the best ``1/eta`` fraction at each rung, multiply
  the budget by ``eta``, until ``max_epochs``;
* :class:`Hyperband` — a portfolio of successive-halving brackets
  trading off exploration (many candidates, short budgets) against
  exploitation (few candidates, long budgets).

Worked example (``max_epochs=20``, ``eta=4``): ``s_max = floor(log_4 20)
= 2``, so three brackets. Bracket ``s=2`` runs 16 candidates at 1 epoch,
promotes the best 4 to 4 epochs, then the best 1 to 20 epochs — 16·1 +
4·4 + 1·20 = 52 training epochs to full-train the bracket winner.
Brackets ``s=1`` (6 @ 5 → 1 @ 20) and ``s=0`` (3 @ 20) complete the
portfolio. Full-budget random search would pay 20 epochs for every
candidate.

Determinism contract
--------------------
Candidate ``j`` of bracket ``b`` is sampled from stream ``(seed, 0, b,
j)`` and *evaluated* — at every rung — under lifetime task stream
``(seed, 1, b, j)`` (:func:`repro.utils.rng.child_sequence` children, so
position-keyed and order-stable). Every evaluation is therefore a pure
function of ``(architecture, stream, rung epochs)``: results are bitwise
identical across serial and pooled backends at any worker count, and a
campaign killed mid-rung resumes — from the JSON checkpoint this module
writes through :func:`repro.durable.atomic_write_json` — to the
exact trajectory of an uninterrupted run (tests/test_multifidelity.py).

Every rung trains from scratch (``evaluate_at(arch, r_k)``) under the
candidate's lifetime stream; reusing that stream across rungs is
common-random-numbers variance reduction for the promotion decisions.

Rungs dispatch through :class:`~repro.hpc.parallel.EvaluationBackend`:
every pending member of a rung is submitted before the first gather, so
a pool of any size is saturated — the rung is the speculation window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.durable import atomic_write_json, check_envelope, \
    check_identity, read_json
from repro.nas.evaluation import Evaluator, evaluator_identity
from repro.utils.rng import as_seed_sequence, child_sequence

__all__ = ["MULTIFIDELITY_FORMAT", "MULTIFIDELITY_VERSION", "Rung",
           "Bracket", "SuccessiveHalving", "Hyperband",
           "scheduler_from_config", "run_multifidelity_campaign",
           "resume_multifidelity_campaign"]

#: Format tag / version of a multi-fidelity campaign checkpoint.
MULTIFIDELITY_FORMAT = "repro-multifidelity-checkpoint"
MULTIFIDELITY_VERSION = 1


@dataclass(frozen=True)
class Rung:
    """One budget level of a bracket: ``n_candidates`` evaluated at
    ``epochs`` total training epochs."""

    epochs: int
    n_candidates: int


@dataclass(frozen=True)
class Bracket:
    """A successive-halving run: rungs of increasing budget."""

    index: int
    rungs: tuple[Rung, ...]

    @property
    def n_evaluations(self) -> int:
        return sum(r.n_candidates for r in self.rungs)


def _check_budgets(min_epochs: int, max_epochs: int, eta: int) -> None:
    if not isinstance(eta, int) or eta < 2:
        raise ValueError(f"eta must be an int >= 2, got {eta!r}")
    if min_epochs < 1:
        raise ValueError(f"min_epochs must be >= 1, got {min_epochs}")
    if max_epochs < min_epochs:
        raise ValueError(
            f"max_epochs ({max_epochs}) must be >= min_epochs "
            f"({min_epochs})")


class SuccessiveHalving:
    """One bracket: geometric budget growth, 1/eta survival per rung."""

    algorithm = "sh"

    def __init__(self, *, n_candidates: int, min_epochs: int = 1,
                 max_epochs: int = 20, eta: int = 4) -> None:
        _check_budgets(min_epochs, max_epochs, eta)
        if n_candidates < 1:
            raise ValueError(
                f"n_candidates must be >= 1, got {n_candidates}")
        self.n_candidates = int(n_candidates)
        self.min_epochs = int(min_epochs)
        self.max_epochs = int(max_epochs)
        self.eta = int(eta)

    def config(self) -> dict:
        return {"algorithm": self.algorithm,
                "n_candidates": self.n_candidates,
                "min_epochs": self.min_epochs,
                "max_epochs": self.max_epochs, "eta": self.eta}

    def brackets(self) -> list[Bracket]:
        rungs: list[Rung] = []
        epochs, n = self.min_epochs, self.n_candidates
        k = 0
        while True:
            # Once a single survivor remains, jump straight to the full
            # budget: the bracket winner is always trained to max_epochs.
            if max(1, n) == 1:
                rungs.append(Rung(epochs=self.max_epochs, n_candidates=1))
                break
            rungs.append(Rung(epochs=min(epochs, self.max_epochs),
                              n_candidates=n))
            if epochs >= self.max_epochs:
                break
            k += 1
            epochs = self.min_epochs * self.eta ** k
            n = self.n_candidates // self.eta ** k
        return [Bracket(index=0, rungs=tuple(rungs))]


class Hyperband:
    """A portfolio of successive-halving brackets (Li et al. 2018).

    ``s_max = floor(log_eta(max_epochs / min_epochs))``; bracket ``s``
    (from ``s_max`` down to 0) starts ``ceil((s_max+1)/(s+1) · eta^s) ·
    candidate_multiplier`` candidates at ``max(min_epochs, max_epochs ·
    eta^-s)`` epochs. ``brackets`` limits the portfolio to the most
    exploratory ``brackets`` members; ``candidate_multiplier`` scales
    every bracket's width (more samples per budget profile).
    """

    algorithm = "hyperband"

    def __init__(self, *, min_epochs: int = 1, max_epochs: int = 20,
                 eta: int = 4, brackets: int | None = None,
                 candidate_multiplier: int = 1) -> None:
        _check_budgets(min_epochs, max_epochs, eta)
        if brackets is not None and brackets < 1:
            raise ValueError(f"brackets must be >= 1, got {brackets}")
        if candidate_multiplier < 1:
            raise ValueError(f"candidate_multiplier must be >= 1, "
                             f"got {candidate_multiplier}")
        self.min_epochs = int(min_epochs)
        self.max_epochs = int(max_epochs)
        self.eta = int(eta)
        self.n_brackets = brackets
        self.candidate_multiplier = int(candidate_multiplier)

    def config(self) -> dict:
        return {"algorithm": self.algorithm,
                "min_epochs": self.min_epochs,
                "max_epochs": self.max_epochs, "eta": self.eta,
                "brackets": self.n_brackets,
                "candidate_multiplier": self.candidate_multiplier}

    def brackets(self) -> list[Bracket]:
        s_max = int(math.floor(
            math.log(self.max_epochs / self.min_epochs, self.eta)))
        out: list[Bracket] = []
        for s in range(s_max, -1, -1):
            n = math.ceil((s_max + 1) / (s + 1) * self.eta ** s) \
                * self.candidate_multiplier
            r0 = max(self.min_epochs,
                     int(self.max_epochs * self.eta ** (-s)))
            inner = SuccessiveHalving(n_candidates=n, min_epochs=r0,
                                      max_epochs=self.max_epochs,
                                      eta=self.eta)
            out.append(Bracket(index=s, rungs=inner.brackets()[0].rungs))
        if self.n_brackets is not None:
            out = out[:self.n_brackets]
        return out


def scheduler_from_config(config: dict):
    """Rebuild the scheduler a checkpoint's ``scheduler`` entry captured."""
    algorithm = config.get("algorithm")
    if algorithm == "sh":
        return SuccessiveHalving(
            n_candidates=int(config["n_candidates"]),
            min_epochs=int(config["min_epochs"]),
            max_epochs=int(config["max_epochs"]), eta=int(config["eta"]))
    if algorithm == "hyperband":
        return Hyperband(
            min_epochs=int(config["min_epochs"]),
            max_epochs=int(config["max_epochs"]), eta=int(config["eta"]),
            brackets=config["brackets"],
            candidate_multiplier=int(config["candidate_multiplier"]))
    raise ValueError(f"unknown scheduler algorithm {algorithm!r}")


# ---------------------------------------------------------------------------
# The campaign runner
# ---------------------------------------------------------------------------

def _key(bracket: int, rung: int, slot: int) -> str:
    return f"{bracket}:{rung}:{slot}"


def _check_envelope(state: dict, source) -> None:
    check_envelope(state, source, fmt=MULTIFIDELITY_FORMAT,
                   versions=(MULTIFIDELITY_VERSION,),
                   describe="a multi-fidelity campaign checkpoint")


def _check_resume(state: dict, source, scheduler, evaluator: Evaluator,
                  seed: int) -> None:
    check_identity(source, "scheduler (--eta/--min-epochs/--brackets)",
                   state["scheduler"], scheduler.config())
    check_identity(source, "seed", int(state["seed"]), int(seed))
    if state.get("evaluator") is not None:
        check_identity(source, "evaluator", state["evaluator"],
                       evaluator_identity(evaluator))


def run_multifidelity_campaign(scheduler, evaluator: Evaluator, *,
                               seed: int = 0, workers: int | None = None,
                               checkpoint=None,
                               stop_after_evaluations: int | None = None,
                               resume_state: dict | None = None) -> dict:
    """Run the scheduler's brackets against ``evaluator``.

    Parameters
    ----------
    scheduler:
        A :class:`SuccessiveHalving` or :class:`Hyperband` instance.
    workers:
        ``None`` or ``0`` — the in-process serial submit/gather backend;
        ``n >= 1`` — the ``n``-worker process pool. Both are
        bitwise-identical.
    checkpoint:
        Path to write an atomic campaign checkpoint after every completed
        evaluation (and at campaign end).
    stop_after_evaluations:
        Stop (deterministically, mid-rung if needed) once this many *new*
        evaluations completed — the differential suites' and CI's
        interrupt injection.
    resume_state:
        A checkpoint dict from :func:`~repro.nas.checkpoint.
        load_checkpoint`; completed evaluations are not re-run, and the
        scheduler config / seed / evaluator identity must match.

    Returns a report dict: best architecture/reward, evaluation and epoch
    totals, and a per-bracket rung log. ``epochs_fresh`` sums every
    evaluation's epochs, which is what this runner trains;
    ``epochs_incremental`` is the budget a scheduler charges when each
    promotion pays only the delta over the candidate's previous rung.
    """
    if resume_state is not None:
        _check_envelope(resume_state, "resume_state")
    return _run_campaign(
        scheduler, evaluator, "resume_state", seed=seed, workers=workers,
        checkpoint=checkpoint,
        stop_after_evaluations=stop_after_evaluations,
        resume_state=resume_state)


def _run_campaign(scheduler, evaluator: Evaluator, source, *, seed: int,
                  workers: int | None, checkpoint,
                  stop_after_evaluations: int | None,
                  resume_state: dict | None) -> dict:
    """:func:`run_multifidelity_campaign` on a ``resume_state`` whose
    envelope was checked; its identity refusals name ``source``."""
    from repro.hpc.parallel import evaluation_backend

    if stop_after_evaluations is not None and stop_after_evaluations < 1:
        raise ValueError(f"stop_after_evaluations must be >= 1, "
                         f"got {stop_after_evaluations}")
    if resume_state is not None:
        _check_resume(resume_state, source, scheduler, evaluator, seed)

    brackets = scheduler.brackets()
    space = evaluator.space
    root = as_seed_sequence(seed)
    sample_root = child_sequence(root, 0)
    task_root = child_sequence(root, 1)

    done: dict[str, dict] = {}
    results: list[dict] = []
    if resume_state is not None:
        for rec in resume_state["results"]:
            done[_key(rec["bracket"], rec["rung"], rec["slot"])] = rec
            results.append(rec)

    # Epoch accounting replays deterministically from the results list —
    # restored records and fresh ones go through the same bookkeeping.
    prev_epochs: dict[str, int] = {}
    totals = {"incremental": 0, "fresh": 0}
    # The campaign's answer is the best *full-budget* evaluation — a
    # noisy 1-epoch reward is not evidence an architecture is best. The
    # any-fidelity incumbent is only a fallback for campaigns stopped
    # before any candidate reached max_epochs.
    best = {"reward": -float("inf"), "architecture": None}
    best_any = {"reward": -float("inf"), "architecture": None}

    def account(rec: dict) -> None:
        ck = f"{rec['bracket']}:{rec['slot']}"
        already = prev_epochs.get(ck, 0)
        totals["incremental"] += rec["epochs"] - already
        totals["fresh"] += rec["epochs"]
        prev_epochs[ck] = rec["epochs"]
        if rec["reward"] > best_any["reward"]:
            best_any["reward"] = rec["reward"]
            best_any["architecture"] = tuple(rec["architecture"])
        if rec["epochs"] >= scheduler.max_epochs and \
                rec["reward"] > best["reward"]:
            best["reward"] = rec["reward"]
            best["architecture"] = tuple(rec["architecture"])

    for rec in results:
        account(rec)
    n_new = 0
    stopped = False
    bracket_log: list[dict] = []

    def payload() -> dict:
        return {"format": MULTIFIDELITY_FORMAT,
                "version": MULTIFIDELITY_VERSION,
                "scheduler": scheduler.config(), "seed": int(seed),
                "evaluator": evaluator_identity(evaluator),
                "results": results,
                "n_evaluations": len(results),
                "epochs_incremental": totals["incremental"],
                "epochs_fresh": totals["fresh"]}

    def record(rec: dict) -> None:
        nonlocal n_new
        done[_key(rec["bracket"], rec["rung"], rec["slot"])] = rec
        results.append(rec)
        account(rec)
        n_new += 1
        if obs.enabled():
            obs.counter_add("multifidelity/evaluations")
            obs.counter_add("multifidelity/epochs_trained",
                            rec["epochs_this_call"])
        if checkpoint is not None:
            atomic_write_json(checkpoint, payload())

    backend = evaluation_backend(evaluator,
                                 0 if workers is None else workers)

    try:
        with obs.scope("multifidelity/campaign"):
            for b_i, bracket in enumerate(brackets):
                if stopped:
                    break
                bracket_sample = child_sequence(sample_root, b_i)
                bracket_tasks = child_sequence(task_root, b_i)
                members = [
                    (slot, space.validate(space.random_architecture(
                        np.random.default_rng(
                            child_sequence(bracket_sample, slot)))))
                    for slot in range(bracket.rungs[0].n_candidates)]
                rung_log: list[dict] = []
                for r_i, rung in enumerate(bracket.rungs):
                    if stopped:
                        break
                    members = members[:rung.n_candidates]
                    # Saturate the pool: the whole rung goes out before
                    # the first gather.
                    handles = [
                        (slot, arch, backend.submit(
                            arch, child_sequence(bracket_tasks, slot),
                            epochs=rung.epochs))
                        for slot, arch in members
                        if _key(b_i, r_i, slot) not in done]
                    for slot, arch, handle in handles:
                        if stopped:
                            break
                        result = backend.gather(handle)
                        # Every rung trains from scratch, so the record
                        # format's epochs_this_call equals epochs.
                        record({"bracket": b_i, "rung": r_i, "slot": slot,
                                "architecture": list(arch),
                                "epochs": rung.epochs,
                                "epochs_this_call": rung.epochs,
                                "reward": float(result.reward),
                                "duration": float(result.duration)})
                        if stop_after_evaluations is not None and \
                                n_new >= stop_after_evaluations:
                            stopped = True
                    if stopped or any(_key(b_i, r_i, slot) not in done
                                      for slot, _ in members):
                        stopped = True
                        break
                    rewards = {slot: done[_key(b_i, r_i, slot)]["reward"]
                               for slot, _ in members}
                    rung_log.append({
                        "epochs": rung.epochs,
                        "n_candidates": len(members),
                        "best_reward": max(rewards.values())})
                    if obs.enabled():
                        obs.counter_add("multifidelity/rungs_completed")
                    if r_i + 1 < len(bracket.rungs):
                        keep = bracket.rungs[r_i + 1].n_candidates
                        # Stable sort: reward ties promote the earlier
                        # slot, deterministically.
                        members = sorted(
                            members,
                            key=lambda m: -rewards[m[0]])[:keep]
                        if obs.enabled():
                            obs.counter_add("multifidelity/promotions",
                                            len(members))
                if not stopped:
                    bracket_log.append({"index": bracket.index,
                                        "rungs": rung_log})
                    if obs.enabled():
                        obs.counter_add("multifidelity/brackets_completed")
    finally:
        backend.close()

    if checkpoint is not None:
        atomic_write_json(checkpoint, payload())
    winner = best if best["architecture"] is not None else best_any
    return {
        "algorithm": scheduler.config()["algorithm"],
        "scheduler": scheduler.config(),
        "seed": int(seed),
        "completed": not stopped,
        "n_evaluations": len(results),
        "epochs_incremental": totals["incremental"],
        "epochs_fresh": totals["fresh"],
        "best_reward": (winner["reward"]
                        if winner["architecture"] is not None else None),
        "best_architecture": (list(winner["architecture"])
                              if winner["architecture"] is not None
                              else None),
        "best_is_full_budget": best["architecture"] is not None,
        "brackets": bracket_log,
    }


def resume_multifidelity_campaign(source, evaluator: Evaluator, *,
                                  scheduler=None,
                                  workers: int | None = None,
                                  checkpoint=None,
                                  stop_after_evaluations: int | None = None
                                  ) -> dict:
    """Resume a campaign from a checkpoint file (or a loaded dict).

    The scheduler is rebuilt from the checkpoint unless one is passed
    explicitly — in which case its config must match (mismatched
    ``--eta``/``--min-epochs`` refuse with a "different experiment"
    diagnosis, exactly like the executor campaign checkpoints). Every
    refusal names the file (``resume_state`` for a dict).
    """
    state = source if isinstance(source, dict) else read_json(source)
    if state is source:
        source = "resume_state"
    _check_envelope(state, source)
    if scheduler is None:
        scheduler = scheduler_from_config(state["scheduler"])
    return _run_campaign(
        scheduler, evaluator, source, seed=int(state["seed"]),
        workers=workers, checkpoint=checkpoint,
        stop_after_evaluations=stop_after_evaluations, resume_state=state)
