"""Figure 3: search trajectories of AE, RL and RS on 128 nodes.

Paper findings to reproduce: AE reaches validation R^2 ~0.96 within ~50
minutes; RL explores strongly early and only approaches AE's reward near
the end of the 3 hours; RS plateaus at 0.93-0.94.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import get_context
from repro.experiments.reporting import format_series
from repro.hpc.tracking import SearchTracker

__all__ = ["Fig3Result", "run_fig3", "main"]


@dataclass
class Fig3Result:
    """Trajectories per method: (times_s, moving-average rewards)."""

    trajectories: dict[str, tuple[np.ndarray, np.ndarray]]
    trackers: dict[str, SearchTracker]

    def reward_at(self, method: str, minutes: float) -> float:
        """Moving-average reward at a wall-clock checkpoint."""
        times, rewards = self.trajectories[method]
        if times.size == 0:
            raise ValueError(f"no evaluations recorded for {method}")
        i = int(np.searchsorted(times, minutes * 60.0))
        return float(rewards[min(i, rewards.size - 1)])


def run_fig3(preset: str = "quick", *, n_nodes: int = 128,
             seed: int = 7) -> Fig3Result:
    """Simulate the three searches and collect reward trajectories."""
    trackers = get_context(preset).campaigns(("AE", "RL", "RS"), n_nodes,
                                             (seed,))
    return Fig3Result(
        trajectories={name: tracker.reward_trajectory(window=100)
                      for name, tracker in trackers.items()},
        trackers=trackers)


def main(preset: str = "quick") -> Fig3Result:
    from repro.experiments.ascii_plots import trajectory_panel

    result = run_fig3(preset)
    print("Figure 3 — search trajectories (moving-average reward, 128 nodes)")
    for name, (times, rewards) in result.trajectories.items():
        print(format_series(times, rewards, label=f"  {name}"))
    print(trajectory_panel(result.trajectories))
    return result


if __name__ == "__main__":
    main()
