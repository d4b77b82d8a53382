"""Figure 9: seed-to-seed variability of AE and RL on 128 nodes.

The paper repeats AE and RL ten times with different seeds: AE's reward
and utilization curves have tight two-standard-deviation bands (its
optimum was "not fortuitous"); RL shows oscillatory node utilization
across all seeds and slower reward growth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import get_context
from repro.experiments.reporting import describe_distribution

__all__ = ["Fig9Result", "run_fig9", "main"]


@dataclass
class Fig9Result:
    """Per-method arrays over repetitions."""

    final_rewards: dict[str, np.ndarray]     # moving-average reward at end
    utilizations: dict[str, np.ndarray]
    n_evaluations: dict[str, np.ndarray]

    def reward_band(self, method: str) -> tuple[float, float]:
        """(mean, 2*std) of the end-of-search reward."""
        v = self.final_rewards[method]
        return float(v.mean()), float(2.0 * v.std())


def run_fig9(preset: str = "quick", *, n_nodes: int = 128,
             n_repetitions: int = 10, seed: int = 31) -> Fig9Result:
    ctx = get_context(preset)
    final_rewards = {"AE": [], "RL": []}
    utilizations = {"AE": [], "RL": []}
    n_evaluations = {"AE": [], "RL": []}
    for rep in range(n_repetitions):
        trackers = ctx.campaigns(("AE", "RL"), n_nodes, (seed, rep))
        for name, tracker in trackers.items():
            _, rewards = tracker.reward_trajectory(window=100)
            final_rewards[name].append(float(rewards[-1]))
            utilizations[name].append(tracker.node_utilization())
            n_evaluations[name].append(tracker.n_evaluations)
    return Fig9Result(
        final_rewards={k: np.asarray(v) for k, v in final_rewards.items()},
        utilizations={k: np.asarray(v) for k, v in utilizations.items()},
        n_evaluations={k: np.asarray(v) for k, v in n_evaluations.items()})


def main(preset: str = "quick") -> Fig9Result:
    result = run_fig9(preset)
    print("Figure 9 — 10-seed variability on 128 nodes")
    for name in ("AE", "RL"):
        print(describe_distribution(result.final_rewards[name],
                                    label=f"  {name} final reward"))
        print(describe_distribution(result.utilizations[name],
                                    label=f"  {name} utilization"))
    return result


if __name__ == "__main__":
    main()
