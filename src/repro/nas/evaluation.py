"""Architecture evaluators.

An evaluator maps an architecture encoding to an
:class:`EvaluationResult`: the search reward (validation R^2) plus the
*simulated single-node duration* the cluster model charges for it. Two
fidelities are provided (DESIGN.md Sec. 1):

* :class:`RealTrainingEvaluator` — builds the NumPy network and actually
  trains it on windowed POD-coefficient data (the paper's inner loop;
  used for science results and small searches);
* :class:`SurrogateEvaluator` — queries the calibrated
  :class:`~repro.nas.surrogate.ArchitecturePerformanceModel` (used for
  512-node-scale searches on one core).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nas.space.builder import build_network
from repro.nas.space.joint import JointArchitectureSpace
from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.nas.surrogate import ArchitecturePerformanceModel
from repro.nn.optimizers import Adam
from repro.nn.serialization import network_from_spec, network_spec
from repro.nn.training import History, Trainer
from repro.utils.rng import as_generator, generator_from_state, \
    generator_state

__all__ = ["EvaluationResult", "Evaluator", "RealTrainingEvaluator",
           "SurrogateEvaluator", "PacedEvaluator",
           "JointSurrogateEvaluator", "PartialTrainingEvaluator",
           "evaluator_identity"]


def evaluator_identity(evaluator) -> dict | None:
    """What a campaign checkpoint records about an evaluation backend.

    Evaluators that represent external or experiment-defining state — a
    benchmark archive bound by content digest, a hyperparameter grid —
    expose ``checkpoint_identity()``; a resume must then present an
    evaluator with the same identity. Evaluators without the hook record
    ``None`` and skip the check, exactly as all legacy checkpoints do.
    """
    identity = getattr(evaluator, "checkpoint_identity", None)
    return identity() if callable(identity) else None


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of evaluating one architecture."""

    architecture: Architecture
    reward: float
    duration: float               # simulated single-node seconds
    n_parameters: int
    metadata: dict = field(default_factory=dict)


class Evaluator:
    """Protocol: subclasses implement :meth:`evaluate`."""

    def __init__(self, space: StackedLSTMSpace) -> None:
        self.space = space

    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        raise NotImplementedError


class SurrogateEvaluator(Evaluator):
    """Reward/cost from the hidden performance model."""

    def __init__(self, space: StackedLSTMSpace,
                 model: ArchitecturePerformanceModel | None = None, *,
                 epochs: int = 20) -> None:
        super().__init__(space)
        self.model = model or ArchitecturePerformanceModel(space)
        self.epochs = int(epochs)

    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        return self.evaluate_at(arch, self.epochs, rng)

    def evaluate_at(self, arch: Architecture, epochs: int,
                    rng=None) -> EvaluationResult:
        """Evaluate at an explicit epoch budget (multi-fidelity ask).

        ``evaluate_at(arch, self.epochs, rng)`` is ``evaluate(arch, rng)``
        bitwise — the same two noise draws in the same order.
        """
        gen = as_generator(rng)
        with obs.scope("nas/evaluate/surrogate"):
            reward = self.model.observed_quality(arch, gen, epochs=epochs)
            duration = self.model.training_seconds(arch, gen, epochs=epochs)
        if obs.enabled():
            obs.counter_add("nas/evaluations")
            obs.counter_add("nas/simulated_seconds", duration)
        return EvaluationResult(
            architecture=tuple(arch), reward=reward, duration=duration,
            n_parameters=self.space.count_parameters(arch),
            metadata={"fidelity": "surrogate", "epochs": int(epochs)})


class PacedEvaluator(Evaluator):
    """Wrap an evaluator with real wall-clock latency per evaluation.

    On the actual machine an evaluation occupies a node for minutes while
    the master merely waits; this wrapper reintroduces that latency
    (``pace_seconds`` of ``time.sleep`` around the inner evaluation) so
    dispatch machinery can be exercised and benchmarked under realistic
    conditions: a process pool overlaps the waits of concurrent
    evaluations even on a single core, exactly as the real cluster
    overlaps node occupancy. Results are those of the inner evaluator,
    bitwise — pacing never touches the rng stream.
    """

    def __init__(self, inner: Evaluator, *, pace_seconds: float) -> None:
        super().__init__(inner.space)
        if pace_seconds < 0:
            raise ValueError(
                f"pace_seconds must be non-negative, got {pace_seconds}")
        self.inner = inner
        self.pace_seconds = float(pace_seconds)

    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        result = self.inner.evaluate(arch, rng)
        if self.pace_seconds > 0:
            time.sleep(self.pace_seconds)
        return result


class RealTrainingEvaluator(Evaluator):
    """Trains the realized network on windowed example tensors.

    Parameters
    ----------
    data:
        ``(x_train, y_train, x_val, y_val)`` windowed tensors (see
        :func:`repro.data.make_windowed_examples`).
    trainer:
        Training protocol; defaults to the paper's search settings
        (batch 64, lr 1e-3, 20 epochs, Adam).
    cost_model:
        Optional performance model used to *charge simulated time* for the
        evaluation so real-fidelity runs remain comparable to surrogate
        runs on the simulated cluster; defaults to measured wall seconds.
    """

    def __init__(self, space: StackedLSTMSpace, data, *,
                 trainer: Trainer | None = None,
                 cost_model: ArchitecturePerformanceModel | None = None
                 ) -> None:
        super().__init__(space)
        x_train, y_train, x_val, y_val = data
        self.x_train = np.asarray(x_train, dtype=np.float64)
        self.y_train = np.asarray(y_train, dtype=np.float64)
        self.x_val = np.asarray(x_val, dtype=np.float64)
        self.y_val = np.asarray(y_val, dtype=np.float64)
        if self.x_train.ndim != 3 or self.x_train.shape[2] != space.input_dim:
            raise ValueError(
                f"x_train must be (n, T, {space.input_dim}), "
                f"got {self.x_train.shape}")
        self.trainer = trainer or Trainer(epochs=20, batch_size=64,
                                          learning_rate=0.001)
        self.cost_model = cost_model

    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        gen = as_generator(rng)
        start = time.perf_counter()
        with obs.scope("nas/evaluate/real"):
            net = build_network(self.space, arch, rng=gen)
            history = self.trainer.fit(net, self.x_train, self.y_train,
                                       self.x_val, self.y_val, rng=gen)
        wall = time.perf_counter() - start
        if obs.enabled():
            obs.counter_add("nas/evaluations")
            obs.gauge_set("nas/evaluation_wall_s", wall)
        reward = history.final_val_r2
        if self.cost_model is not None:
            duration = self.cost_model.training_seconds(
                arch, gen, epochs=self.trainer.epochs)
        else:
            duration = wall
        return EvaluationResult(
            architecture=tuple(arch), reward=reward, duration=duration,
            n_parameters=net.n_parameters,
            metadata={"fidelity": "real", "wall_seconds": wall,
                      "epochs": self.trainer.epochs,
                      "history": history})


class JointSurrogateEvaluator(Evaluator):
    """Surrogate evaluator over a
    :class:`~repro.nas.space.joint.JointArchitectureSpace`.

    The reward is the performance model's architecture quality plus a
    deterministic hyperparameter response surface whose optimum sits at
    the paper's fixed protocol (lr 1e-3, window 8, POD rank 6) —
    quadratic penalties in log-lr, window, and rank, large enough
    (up to ~3 noise standard deviations at the grid edges) that a joint
    searcher has real signal to exploit. The two per-evaluation noise
    draws (quality Gaussian, then lognormal cost) replay
    :class:`SurrogateEvaluator` exactly, so campaign trajectories remain
    pure functions of the task RNG streams.
    """

    #: Penalty weights of the hyperparameter response surface.
    LR_PENALTY = 0.008        # per (decade off 1e-3)^2
    WINDOW_PENALTY = 0.0006   # per (window - 8)^2
    RANK_PENALTY = 0.0008     # per (rank - 6)^2

    def __init__(self, space: JointArchitectureSpace,
                 model: ArchitecturePerformanceModel | None = None, *,
                 epochs: int = 20) -> None:
        if not isinstance(space, JointArchitectureSpace):
            raise TypeError(
                f"JointSurrogateEvaluator needs a JointArchitectureSpace, "
                f"got {type(space).__name__}")
        super().__init__(space)
        self.model = model or ArchitecturePerformanceModel(space.arch_space)
        self.epochs = int(epochs)

    def mean_quality(self, encoding, epochs: int | None = None) -> float:
        """Noise-free joint quality (architecture term + hyper response)."""
        arch, hp = self.space.split(encoding)
        q = self.model.quality(arch, epochs=epochs or self.epochs)
        q -= self.LR_PENALTY * math.log10(hp.learning_rate / 1e-3) ** 2
        q -= self.WINDOW_PENALTY * (hp.window - 8) ** 2
        q -= self.RANK_PENALTY * (hp.pod_rank - 6) ** 2
        return float(q)

    def _cost_scale(self, hp) -> float:
        # Longer windows lengthen every BPTT unroll; higher POD rank
        # widens the input/output features. Both scale compute linearly
        # to first order.
        return (hp.window / 8.0) * (0.7 + 0.3 * hp.pod_rank / 6.0)

    def evaluate(self, encoding, rng=None) -> EvaluationResult:
        return self.evaluate_at(encoding, self.epochs, rng)

    def evaluate_at(self, encoding, epochs: int, rng=None) -> EvaluationResult:
        gen = as_generator(rng)
        arch, hp = self.space.split(encoding)
        with obs.scope("nas/evaluate/joint"):
            reward = self.mean_quality(encoding, epochs) \
                + float(gen.normal(0.0, self.model.noise_std))
            duration = self.model.training_seconds(arch, gen, epochs=epochs) \
                * self._cost_scale(hp)
        if obs.enabled():
            obs.counter_add("nas/evaluations")
            obs.counter_add("nas/simulated_seconds", duration)
        return EvaluationResult(
            architecture=self.space.validate(encoding), reward=reward,
            duration=duration,
            n_parameters=self.space.count_parameters(encoding),
            metadata={"fidelity": "joint-surrogate", "epochs": int(epochs),
                      "learning_rate": hp.learning_rate,
                      "window": hp.window, "pod_rank": hp.pod_rank})

    def checkpoint_identity(self) -> dict:
        """Joint campaigns are defined by the hyperparameter grid: a
        resume against a different grid is a different experiment."""
        return {"kind": "joint-surrogate", "epochs": self.epochs,
                "grid": self.space.grid.config()}


class PartialTrainingEvaluator(RealTrainingEvaluator):
    """Real training with resumable partial fits (multi-fidelity rungs).

    :meth:`evaluate_partial` trains an architecture to an epoch budget
    and returns, in the result metadata, a *continuation state* — the
    fitted-state vocabulary of :mod:`repro.serve.bundle`
    (:func:`~repro.nn.serialization.network_spec` + weight arrays)
    extended with the Adam moment estimates and the exact RNG
    bit-position. Feeding that state back with a higher budget continues
    the training **bitwise-identically** to one uninterrupted run: the
    epoch loop's only cross-epoch state is (weights, optimizer moments,
    RNG position, history), all captured. Early stopping keeps per-call
    state, so the trainer must have ``patience=None``.
    """

    def __init__(self, space: StackedLSTMSpace, data, *,
                 trainer: Trainer | None = None,
                 cost_model: ArchitecturePerformanceModel | None = None
                 ) -> None:
        super().__init__(space, data, trainer=trainer, cost_model=cost_model)
        if self.trainer.patience is not None:
            raise ValueError(
                "PartialTrainingEvaluator requires patience=None: early "
                "stopping keeps per-call state that a continuation cannot "
                "restore")

    def evaluate(self, arch: Architecture, rng=None) -> EvaluationResult:
        return self.evaluate_partial(arch, self.trainer.epochs, rng)

    def evaluate_at(self, arch: Architecture, epochs: int,
                    rng=None) -> EvaluationResult:
        """Fresh train to ``epochs`` (the fidelity-aware backend ask)."""
        return self.evaluate_partial(arch, epochs, rng)

    def evaluate_partial(self, arch: Architecture, epochs: int, rng=None,
                         state: dict | None = None) -> EvaluationResult:
        """Train ``arch`` up to ``epochs`` *total* epochs.

        With ``state`` (a prior result's ``metadata["continuation"]``),
        training continues from that snapshot; ``epochs`` still counts
        from zero, so continuing a 5-epoch state to ``epochs=20`` runs 15
        more. The returned duration charges only the epochs run by *this
        call* — the incremental cost a budget scheduler accounts for.
        """
        epochs = int(epochs)
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        start = time.perf_counter()
        if state is None:
            gen = as_generator(rng)
            net = build_network(self.space, arch, rng=gen)
            optimizer = Adam(learning_rate=self.trainer.learning_rate)
            history = History()
            done = 0
        else:
            arch = self.space.validate(arch)
            if tuple(state["architecture"]) != arch:
                raise ValueError(
                    f"continuation state is for architecture "
                    f"{tuple(state['architecture'])}, not {arch}")
            done = int(state["epochs"])
            if epochs <= done:
                raise ValueError(
                    f"continuation target ({epochs} epochs) must exceed "
                    f"the {done} already trained")
            net = network_from_spec(state["network"], state["weights"],
                                    source="partial-training continuation")
            params = [p for p, _ in net.parameters_and_gradients()]
            optimizer = Adam(learning_rate=self.trainer.learning_rate)
            optimizer.restore_state(params, state["optimizer"])
            history = History(
                train_loss=list(state["history"]["train_loss"]),
                val_loss=list(state["history"]["val_loss"]),
                val_r2=list(state["history"]["val_r2"]),
                learning_rates=list(state["history"]["learning_rates"]))
            gen = generator_from_state(state["rng"])
        with obs.scope("nas/evaluate/partial"):
            self.trainer.fit(net, self.x_train, self.y_train,
                             self.x_val, self.y_val, rng=gen,
                             optimizer=optimizer, history=history,
                             n_epochs=epochs - done)
        wall = time.perf_counter() - start
        if obs.enabled():
            obs.counter_add("nas/evaluations")
            obs.counter_add("nas/partial_epochs", epochs - done)
            obs.gauge_set("nas/evaluation_wall_s", wall)
        params = [p for p, _ in net.parameters_and_gradients()]
        continuation = {
            "architecture": list(arch),
            "network": network_spec(net),
            "weights": [np.array(w) for w in net.get_weights()],
            "optimizer": optimizer.capture_state(params),
            "rng": generator_state(gen),
            "history": {"train_loss": list(history.train_loss),
                        "val_loss": list(history.val_loss),
                        "val_r2": list(history.val_r2),
                        "learning_rates": list(history.learning_rates)},
            "epochs": epochs,
        }
        if self.cost_model is not None:
            # Deterministic mean cost for just this call's epochs: a noise
            # draw here would advance the captured RNG position and break
            # the bitwise-continuation contract.
            duration = self.cost_model.training_seconds(
                arch, None, epochs=epochs - done)
        else:
            duration = wall
        return EvaluationResult(
            architecture=tuple(arch), reward=history.final_val_r2,
            duration=duration, n_parameters=net.n_parameters,
            metadata={"fidelity": "partial", "epochs": epochs,
                      "epochs_this_call": epochs - done,
                      "wall_seconds": wall, "continuation": continuation})
