"""Triangle-detection benchmark: pair convolutions against GIN and a
structure-blind baseline.

Generates the synthetic triangle dataset, trains each model family on a
stratified split over several seeds, and prints per-seed and mean
accuracies. The pair model stops as soon as it fits the training set;
the vertex models run a fixed budget.

Usage:
    python scripts/triangle_benchmark.py [--quick]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wl2gnn.bench import triangle_experiment
from wl2gnn.graphs import TriangleConfig, generate_triangle_dataset


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7,
                        help="dataset generation seed")
    parser.add_argument("--split-seed", type=int, default=123)
    parser.add_argument("--train-fraction", type=float, default=0.2)
    parser.add_argument("--train-seeds", default="0,1,2")
    parser.add_argument("--quick", action="store_true",
                        help="smaller graphs and fewer samples")
    args = parser.parse_args()

    # below n = 8 the planted triangle shifts degree statistics enough
    # for vertex models to pick the class up, so stay above that
    if args.quick:
        cfg = TriangleConfig(vertex_counts=(8, 10, 12), samples_per_cell=5)
    else:
        cfg = TriangleConfig(vertex_counts=(8, 10, 12, 14), samples_per_cell=6)
    t0 = time.time()
    graphs, labels, warnings = generate_triangle_dataset(args.seed, cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    sizes = [g.n for g in graphs]
    print(f"{len(graphs)} graphs (n {min(sizes)}..{max(sizes)}, "
          f"mean {np.mean(sizes):.1f}), generated in {time.time() - t0:.0f}s")

    seeds = [int(s) for s in args.train_seeds.split(",")]
    runs = triangle_experiment(graphs, labels, seeds=seeds,
                               split_seed=args.split_seed,
                               train_fraction=args.train_fraction)
    for layer, family in runs.items():
        for seed, (train, test, trained) in zip(seeds, family):
            print(f"  {layer} seed {seed}: train {train:.3f} test {test:.3f} "
                  f"({trained.epochs} epochs, {trained.seconds:.0f}s)")
        print(f"{layer}: mean test "
              f"{np.mean([test for _, test, _ in family]):.3f}")


if __name__ == "__main__":
    main()
