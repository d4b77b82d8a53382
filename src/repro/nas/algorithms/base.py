"""Ask/tell interface shared by the asynchronous search algorithms.

The executor (simulated cluster or a plain loop) drives a search by
repeatedly calling :meth:`ask` to obtain the next architecture to evaluate
and :meth:`tell` when an evaluation finishes. Fully asynchronous
algorithms (aging evolution, random search) tolerate any interleaving of
asks and tells; the synchronous RL method uses its own batch interface
(see :mod:`repro.nas.algorithms.rl_nas`).
"""

from __future__ import annotations

from repro import obs
from repro.nas.space.search_space import Architecture, StackedLSTMSpace
from repro.utils.rng import as_generator, generator_from_state, \
    generator_state

__all__ = ["SearchAlgorithm"]


class SearchAlgorithm:
    """Base class: owns the space, an RNG, and the best-so-far record.

    Subclasses implement ``_propose``/``_observe``, and override
    :meth:`can_ask_ahead` for the asks whose proposal reads no pending
    tell (random search: every ask; aging evolution and the GA: their
    random initial population).
    """

    #: Whether the algorithm tolerates out-of-order tells (drives which
    #: executor the cluster simulator pairs it with).
    asynchronous: bool = True

    def __init__(self, space: StackedLSTMSpace, rng=None) -> None:
        self.space = space
        self.rng = as_generator(rng)
        self.n_asked = 0
        self.n_told = 0
        self.best_architecture: Architecture | None = None
        self.best_reward = -float("inf")

    # -- protocol ----------------------------------------------------------
    def can_ask_ahead(self) -> bool:
        """Whether the next :meth:`ask` can be answered without any
        pending tell.

        True promises that the next proposal is the same architecture
        whether it is asked now or after every outstanding evaluation
        has been told. The parallel backend then issues it ahead of the
        event loop to keep more of the pool busy
        (:class:`repro.hpc.parallel.TaskFeed`); the ask *order* never
        changes. Feedback-driven proposals must answer False.
        """
        return False

    def ask(self) -> Architecture:
        """Propose the next architecture to evaluate."""
        self.n_asked += 1
        with obs.scope("nas/ask"):
            return self._propose()

    def tell(self, arch: Architecture, reward: float) -> None:
        """Report a finished evaluation."""
        self.n_told += 1
        if reward > self.best_reward:
            self.best_reward = reward
            self.best_architecture = tuple(arch)
        with obs.scope("nas/tell"):
            self._observe(tuple(arch), float(reward))

    # -- checkpointing ------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-compatible snapshot of the complete search state.

        Includes the exact RNG bit-stream position, so a search restored
        via :meth:`load_state_dict` proposes the *identical* continuation
        an uninterrupted run would have — the contract the campaign
        checkpoints (:mod:`repro.nas.checkpoint`) build on. ``best_reward``
        of a never-told search is ``-inf``, which is not valid JSON; it is
        stored as ``None``.
        """
        return {
            "algorithm": type(self).__name__,
            "n_asked": self.n_asked,
            "n_told": self.n_told,
            "best_reward": (None if self.best_reward == -float("inf")
                            else float(self.best_reward)),
            "best_architecture": (list(self.best_architecture)
                                  if self.best_architecture is not None
                                  else None),
            "rng": generator_state(self.rng),
            **self._state_extra(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the snapshot produced by :meth:`state_dict` in place."""
        name = state.get("algorithm")
        if name != type(self).__name__:
            raise ValueError(
                f"state is for {name!r}, not {type(self).__name__}")
        self.n_asked = int(state["n_asked"])
        self.n_told = int(state["n_told"])
        reward = state["best_reward"]
        self.best_reward = -float("inf") if reward is None else float(reward)
        self.best_architecture = None
        if state["best_architecture"] is not None:
            self.best_architecture = self.space.validate(
                state["best_architecture"])
        if state.get("rng") is not None:
            self.rng = generator_from_state(state["rng"])
        self._load_extra(state)

    def _state_extra(self) -> dict:
        """Algorithm-specific state merged into :meth:`state_dict`."""
        return {}

    def _load_extra(self, state: dict) -> None:
        """Restore what :meth:`_state_extra` captured."""

    # -- hooks for subclasses ----------------------------------------------
    def _propose(self) -> Architecture:
        raise NotImplementedError

    def _observe(self, arch: Architecture, reward: float) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(asked={self.n_asked}, "
                f"told={self.n_told}, best={self.best_reward:.4f})")
