"""Random search (paper Sec. III-B3).

Samples operations uniformly at every variable node with no feedback —
embarrassingly parallel, needs no internode communication, and (as the
paper demonstrates) plateaus because nothing steers it toward better
regions of the space.
"""

from __future__ import annotations

from repro.nas.algorithms.base import SearchAlgorithm
from repro.nas.space.search_space import Architecture

__all__ = ["RandomSearch"]


class RandomSearch(SearchAlgorithm):
    """Uniform random sampling over the architecture space."""

    asynchronous = True

    def can_ask_ahead(self) -> bool:
        # Proposals never depend on rewards: the backend may ask ahead and
        # keep every pool worker busy without changing the sample stream.
        return True

    def _propose(self) -> Architecture:
        return self.space.random_architecture(self.rng)

    def _observe(self, arch: Architecture, reward: float) -> None:
        # Feedback-free by definition; the base class already tracks the best.
        pass

    # Checkpointing: the base class already captures everything random
    # search owns (counters, best record, exact RNG position) — the
    # sample stream continues bit-for-bit on resume.
