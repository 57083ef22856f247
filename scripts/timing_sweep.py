"""Scaling study of the sparse pair convolution on regular graphs.

Times full training epochs on batches of random d-regular circulant
graphs while sweeping the graph size and the degree separately, then
reports log-log slopes: epoch time against n (expected about linear)
and reference-list size gamma against d (bounded by the d^{2r} worst
case).

Usage:
    python scripts/timing_sweep.py [--out timing.csv]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wl2gnn.bench import scaling_study, write_timing_csv


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-values", default="32,64,128,256,512")
    parser.add_argument("--d-values", default="2,4,8,16")
    parser.add_argument("--fixed-n", type=int, default=64,
                        help="graph size for the degree sweep")
    parser.add_argument("--graphs", type=int, default=100)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--radius", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="optional CSV path")
    args = parser.parse_args()

    try:
        rows_n, rows_d, slope_n, slope_d, warnings = scaling_study(
            [int(x) for x in args.n_values.split(",")],
            [int(x) for x in args.d_values.split(",")], r=args.radius,
            fixed_n=args.fixed_n, n_graphs=args.graphs, epochs=args.epochs,
            seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
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


if __name__ == "__main__":
    main()
