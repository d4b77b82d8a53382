"""Figure 8: unique high-performing architectures vs time and node count.

The paper counts distinct architectures with reward R^2 > 0.96:

* (a) AE's cumulative unique count grows strongly with node count —
  roughly, each doubling of nodes reaches the previous size's final count
  in half to two-thirds of the wall time;
* (b) at the end of 180 minutes, AE beats RL and RS comprehensively, and
  RL's count saturates beyond 256 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.context import get_context
from repro.experiments.reporting import format_table
from repro.hpc.theta import PAPER_NODE_COUNTS

__all__ = ["Fig8Result", "run_fig8", "main"]

HIGH_PERFORMER_THRESHOLD = 0.96


@dataclass
class Fig8Result:
    """Unique-high-performer curves and final counts."""

    ae_curves: dict[int, tuple[np.ndarray, np.ndarray]]  # per node count
    final_counts: dict[int, dict[str, int]]              # per node count/method


def run_fig8(preset: str = "quick", *,
             node_counts: tuple[int, ...] = PAPER_NODE_COUNTS,
             seed: int = 23,
             threshold: float = HIGH_PERFORMER_THRESHOLD) -> Fig8Result:
    ctx = get_context(preset)
    ae_curves: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    final_counts: dict[int, dict[str, int]] = {}
    for n_nodes in node_counts:
        trackers = ctx.campaigns(("AE", "RL", "RS"), n_nodes,
                                 (seed, n_nodes))
        final_counts[n_nodes] = {
            name: tracker.n_unique_high_performers(threshold)
            for name, tracker in trackers.items()}
        ae_curves[n_nodes] = trackers["AE"].unique_high_performers(threshold)
    return Fig8Result(ae_curves=ae_curves, final_counts=final_counts)


def main(preset: str = "quick") -> Fig8Result:
    result = run_fig8(preset)
    print(f"Figure 8 — unique architectures with reward > "
          f"{HIGH_PERFORMER_THRESHOLD}")
    rows = [[n, counts["AE"], counts["RL"], counts["RS"]]
            for n, counts in sorted(result.final_counts.items())]
    print(format_table(["nodes", "AE", "RL", "RS"], rows))
    return result


if __name__ == "__main__":
    main()
