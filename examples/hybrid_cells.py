"""Hybrid-cell architecture search (the paper's future-work direction).

The paper searches over stacked *LSTM* layers only; its related-work
section highlights neuroevolution over hybrid memory structures (LSTM vs
simpler cells) as a promising direction. This example runs aging
evolution over an extended operation catalog that mixes LSTM, GRU and
SimpleRNN cells, post-trains the winner with real NumPy training, and
saves the fitted emulator to disk.

Usage::

    python examples/hybrid_cells.py [--evals 1200]
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import load_sst_dataset
from repro.forecast import posttrain_architecture
from repro.nas import AgingEvolution, ArchitecturePerformanceModel, SurrogateEvaluator
from repro.nas.space import StackedLSTMSpace, describe_architecture, hybrid_operations
from repro.serve import load_bundle, save_bundle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--evals", type=int, default=1200)
    parser.add_argument("--posttrain-epochs", type=int, default=40)
    args = parser.parse_args()

    space = StackedLSTMSpace(operations=hybrid_operations())
    kinds = sorted({op.kind for op in space.operations})
    print(f"Hybrid search space: {space.size:,} architectures over cell "
          f"kinds {kinds}")

    model = ArchitecturePerformanceModel(space, seed=0)
    evaluator = SurrogateEvaluator(space, model)
    search = AgingEvolution(space, rng=0)
    eval_rng = np.random.default_rng(1)
    for i in range(args.evals):
        arch = search.ask()
        search.tell(arch, evaluator.evaluate(arch, eval_rng).reward)
    print(f"best surrogate reward after {args.evals} evaluations: "
          f"{search.best_reward:.4f}")

    best = search.best_architecture
    print("\nBest hybrid architecture:")
    print(describe_architecture(space, best))

    print(f"\nPost-training for {args.posttrain_epochs} epochs ...")
    dataset = load_sst_dataset(degrees=4.0, seed=0)
    emulator = posttrain_architecture(space, best,
                                      dataset.training_snapshots(),
                                      epochs=args.posttrain_epochs, rng=0)
    print(f"  validation R^2: {emulator.validation_r2:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        path = save_bundle(emulator, Path(tmp) / "hybrid-emulator.npz")
        loaded = load_bundle(path)
        test = dataset.snapshots(np.asarray(dataset.test_indices)[:120])
        print(f"  reloaded-from-disk test R^2: {loaded.score(test):.4f}")
    print("Done.")


if __name__ == "__main__":
    main()
