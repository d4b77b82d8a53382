"""Table III: node utilization and evaluation counts at scale.

Paper values (3-hour searches on Theta):

    nodes | util AE / RL / RS      | evals AE / RL / RS
    33    | 0.905 / 0.592 / 0.913  |  2,093 /  1,066 /  1,780
    64    | 0.920 / 0.482 / 0.927  |  4,201 /  2,100 /  3,630
    128   | 0.918 / 0.527 / 0.921  |  8,068 /  4,740 /  7,267
    256   | 0.911 / 0.509 / 0.936  | 18,039 /  9,680 / 15,221
    512   | 0.962 / 0.541 / 0.869  | 33,748 / 16,335 / 26,559

Shape targets: AE/RS utilization > 0.85 at every size, RL ~0.5; AE
evaluates roughly twice as many architectures as RL; counts scale
~linearly with node count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.context import get_context
from repro.experiments.reporting import format_table
from repro.hpc.theta import PAPER_NODE_COUNTS

__all__ = ["Table3Result", "run_table3", "main", "PAPER_TABLE3"]

PAPER_TABLE3 = {
    33: {"AE": (0.905, 2093), "RL": (0.592, 1066), "RS": (0.913, 1780)},
    64: {"AE": (0.920, 4201), "RL": (0.482, 2100), "RS": (0.927, 3630)},
    128: {"AE": (0.918, 8068), "RL": (0.527, 4740), "RS": (0.921, 7267)},
    256: {"AE": (0.911, 18039), "RL": (0.509, 9680), "RS": (0.936, 15221)},
    512: {"AE": (0.962, 33748), "RL": (0.541, 16335), "RS": (0.869, 26559)},
}


@dataclass
class Table3Result:
    """Per (node count, method): (utilization, evaluation count)."""

    table: dict[int, dict[str, tuple[float, int]]]


def run_table3(preset: str = "quick", *,
               node_counts: tuple[int, ...] = PAPER_NODE_COUNTS,
               seed: int = 11) -> Table3Result:
    ctx = get_context(preset)
    table: dict[int, dict[str, tuple[float, int]]] = {}
    for n_nodes in node_counts:
        trackers = ctx.campaigns(("AE", "RL", "RS"), n_nodes,
                                 (seed, n_nodes))
        table[n_nodes] = {name: (tracker.node_utilization(),
                                 tracker.n_evaluations)
                          for name, tracker in trackers.items()}
    return Table3Result(table=table)


def main(preset: str = "quick") -> Table3Result:
    result = run_table3(preset)
    print("Table III — node utilization and evaluation counts")
    rows = []
    for n_nodes, methods in sorted(result.table.items()):
        row = [n_nodes]
        for name in ("AE", "RL", "RS"):
            util, evals = methods[name]
            row.append(f"{util:.3f}/{evals}")
        rows.append(row)
    print(format_table(["nodes", "AE util/evals", "RL util/evals",
                        "RS util/evals"], rows))
    return result


if __name__ == "__main__":
    main()
