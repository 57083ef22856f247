"""Command line entry point, the one front end of the paper's experiments.

Subcommands:
  cv            cross-validated benchmark on a TU dataset directory
  triangle      triangle detection: pair convolutions against GIN and a
                structure-blind baseline
  timing        scaling study: epoch time against n, gamma against d
  deltas        paired fold-wise comparison of two result files
  gen-triangle  write the synthetic triangle dataset in TU text format

Bad input exits 2 with one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .bench import (DEFAULT_RADII, TrainConfig, check_grid, foldwise_deltas,
                    read_results_csv, run_cv, scaling_study,
                    triangle_experiment, write_timing_csv)
from .graphs import GraphError, TriangleConfig, generate_triangle_dataset, \
    load_tu_dataset, save_tu_dataset
from .layers import parse_model_spec

# the one spec `cv` runs without a grid file, at the dataset's radius
DEFAULT_GRID = "layer=wl2,T=3,d=32,r={r},pool=mean,act=logistic,lr=0.001"


def _print_warnings(warnings):
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _check_out_dir(path):
    """Fails before any work when `path` could not be written at the end."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"cannot write {path}: directory {directory} does "
                         "not exist")
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")


def _cmd_cv(args):
    # the output directory and the grid are checked before the dataset
    # is loaded
    _check_out_dir(args.out)
    name = os.path.basename(args.dataset.rstrip("/"))
    if args.grid_file:
        with open(args.grid_file) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()
                     and not ln.lstrip().startswith("#")]
    else:
        lines = [DEFAULT_GRID.format(r=DEFAULT_RADII.get(name, 1))]
    grid = check_grid([parse_model_spec(ln) for ln in lines])
    graphs, labels = load_tu_dataset(args.dataset)
    config = TrainConfig(epochs=args.epochs, patience=args.patience,
                         batch_size=args.batch_size, seed=args.seed,
                         folds=args.folds, repeats=args.repeats,
                         workers=args.workers)
    results = run_cv(graphs, labels, grid, config, dataset=name,
                     out_path=args.out)
    accs = [r.test_acc for r in results]
    print(f"{name}: {len(results)} rows -> {args.out}; mean test accuracy "
          f"{sum(accs) / len(accs):.4f}")
    return 0


def _parse_int_list(flag, text):
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ValueError(f"{flag} takes comma separated integers, "
                         f"got {text!r}") from None


def _cmd_triangle(args):
    # below n = 8 the planted triangle shifts degree statistics enough
    # for vertex models to pick the class up, so stay above that
    if args.quick:
        cfg = TriangleConfig(vertex_counts=(8, 10, 12), samples_per_cell=5)
    else:
        cfg = TriangleConfig(vertex_counts=(8, 10, 12, 14), samples_per_cell=6)
    t0 = time.time()
    graphs, labels, warnings = generate_triangle_dataset(args.seed, cfg)
    _print_warnings(warnings)
    sizes = [g.n for g in graphs]
    print(f"{len(graphs)} graphs (n {min(sizes)}..{max(sizes)}, "
          f"mean {np.mean(sizes):.1f}), generated in {time.time() - t0:.0f}s")
    # criterion 9's split and training seeds
    seeds = (0, 1, 2)
    runs = triangle_experiment(graphs, labels, seeds=seeds, split_seed=123,
                               train_fraction=0.2)
    for layer, family in runs.items():
        for seed, (train, test, trained) in zip(seeds, family):
            print(f"  {layer} seed {seed}: train {train:.3f} test {test:.3f} "
                  f"({trained.epochs} epochs, {trained.seconds:.0f}s)")
        print(f"{layer}: mean test "
              f"{np.mean([test for _, test, _ in family]):.3f}")
    return 0


def _cmd_timing(args):
    if args.out:
        _check_out_dir(args.out)
    rows_n, rows_d, slope_n, slope_d = scaling_study(
        _parse_int_list("--n-values", args.n_values),
        _parse_int_list("--d-values", args.d_values),
        r=args.radius, fixed_n=args.fixed_n, n_graphs=args.graphs,
        epochs=args.epochs, seed=args.seed)
    print("size sweep (d=2):")
    for r in rows_n:
        print(f"  n={r.n:5d}  gamma={r.gamma:8d}  epoch={r.epoch_seconds:.4f}s")
    print(f"epoch-time slope over the top decade: {slope_n:.3f}")
    print(f"degree sweep (n={args.fixed_n}):")
    for r in rows_d:
        print(f"  d={r.d:3d}  gamma={r.gamma:8d}  epoch={r.epoch_seconds:.4f}s")
    print(f"gamma slope in d: {slope_d:.3f} (worst-case bound "
          f"{2 * args.radius + 0.5})")
    if args.out:
        write_timing_csv(rows_n + rows_d, args.out)
        print(f"{len(rows_n) + len(rows_d)} rows -> {args.out}")
    return 0


def _cmd_deltas(args):
    report = foldwise_deltas(read_results_csv(args.a), read_results_csv(args.b))
    verdict = "significant" if report.significant else "not significant"
    print(f"mean delta {report.mean:+.4f}, std {report.std:.4f} "
          f"over {len(report.deltas)} pairs: {verdict} at two sigma")
    return 0


def _cmd_gen_triangle(args):
    # a path that cannot be a directory fails before the generation
    out_dir = os.path.join(args.out_dir, args.name)
    os.makedirs(out_dir, exist_ok=True)
    graphs, labels, warnings = generate_triangle_dataset(args.seed)
    _print_warnings(warnings)
    save_tu_dataset(graphs, labels, out_dir, args.name)
    n_mean = sum(g.n for g in graphs) / len(graphs)
    print(f"{len(graphs)} graphs (mean size {n_mean:.1f}, "
          f"{int(labels.sum())} of class B) -> {out_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="wl2gnn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cv", help="cross-validated benchmark")
    p.add_argument("--dataset", required=True,
                   help="directory with a TU-format dataset")
    p.add_argument("--grid-file", help="file with one model spec per line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_cv)

    p = sub.add_parser("triangle", help="triangle detection: pair "
                                        "convolutions against GIN and a "
                                        "structure-blind baseline")
    p.add_argument("--seed", type=int, default=7,
                   help="dataset generation seed")
    p.add_argument("--quick", action="store_true",
                   help="smaller graphs and fewer samples")
    p.set_defaults(fn=_cmd_triangle)

    p = sub.add_parser("timing", help="scaling study: epoch time against n, "
                                      "gamma against d")
    p.add_argument("--n-values", default="32,64,128,256,512",
                   help="comma separated graph sizes of the size sweep")
    p.add_argument("--d-values", default="2,4,8,16",
                   help="comma separated degrees of the degree sweep")
    p.add_argument("--fixed-n", type=int, default=64,
                   help="graph size for the degree sweep")
    p.add_argument("--graphs", type=int, default=100)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(fn=_cmd_timing)

    p = sub.add_parser("deltas", help="paired fold-wise comparison")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_deltas)

    p = sub.add_parser("gen-triangle", help="write the triangle dataset "
                                            "in TU format")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--name", default="TRIANGLE")
    p.set_defaults(fn=_cmd_gen_triangle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # seeds feed numpy generators, which take no negative entropy
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got "
                             f"{args.seed}")
        return args.fn(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
