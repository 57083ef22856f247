"""Runs the benchmark over several seeds and summarises it.

    python3 perfbench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 \\
        --out perfbench/results/BENCH_example.json

Each (workload, seed) run is its own process, so peak memory and the
BLAS thread setting belong to that workload alone, and the runs go one
after another. For every end-to-end metric the summary gives the median
over seeds and the spread, the distance between the first and third
quartile as a share of the median, next to the bound in
BENCHMARK.json. Each traced seed is also run with spans on; its
per-layer metrics, span coverage and tracing overhead (traced minus
untraced, per end-to-end metric) are reported beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}.json"
    with open(ROOT / ".perfbench" / stem) as fh:
        detail = json.load(fh)
    return result, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def summarise(workload, seeds, traced_seeds, seconds, bench):
    runs = {seed: run_one(workload, seed, seconds, 0) for seed in seeds}
    out = {"seeds": seeds, "end_to_end": {}, "checks_ok": True,
           "fail_frac": {}, "sizes": {}, "final_loss": {}, "extra": {}}
    for seed, (result, detail) in runs.items():
        out["checks_ok"] &= bool(result["correct"])
        out["fail_frac"][seed] = detail["extra"]["fail_frac"]
        out["sizes"][seed] = detail["sizes"]
        out["final_loss"][seed] = detail["final_loss"]
        out["extra"][seed] = {k: v for k, v in detail["extra"].items()
                              if k in ("eval_graphs_per_s", "step_tail_ms",
                                       "step_tail_pct", "step_samples",
                                       "all_steps_p50_ms", "rounds")
                              or k.endswith(".train_graphs_per_s")}
        out["checks"] = detail["checks"]
        out["provenance"] = detail["provenance"]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [runs[s][0]["metrics"][name]["value"] for s in seeds]
        row = {"unit": metric["unit"], "better": metric["better"],
               "bound": metric["bound"], "values": values}
        if len(values) >= 2:
            row.update(spread(values))
        out["end_to_end"][name] = row
    out["traced"] = {}
    for seed in traced_seeds:
        result, detail = run_one(workload, seed, seconds, 1)
        plain = runs[seed][1] if seed in runs else \
            run_one(workload, seed, seconds, 0)[1]
        overhead = {}
        for name, (value, unit) in plain["metrics"].items():
            traced = detail["metrics"][name][0]
            overhead[name] = {"untraced": value, "traced": traced,
                              "traced_minus_untraced": traced - value,
                              "relative": (traced - value) / value,
                              "unit": unit}
        out["checks_ok"] &= bool(result["correct"])
        out["traced"][seed] = {
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "coverage": detail["layer_metrics"]["trace.coverage"][0],
            "overhead": overhead,
            "spans": detail["spans_table"],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    summary = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        summary["workloads"][name] = wl = summarise(
            name, args.seeds, args.traced_seeds, seconds, bench)
        print(f"== {name}  checks {'ok' if wl['checks_ok'] else 'FAILED'}  "
              f"fail_frac {max(wl['fail_frac'].values()):g}", flush=True)
        for metric, row in wl["end_to_end"].items():
            line = f"  {metric:<20} {row.get('median', row['values'][0]):12.6g}" \
                   f" {row['unit']:<4}"
            if "spread" in row:
                line += (f" spread {row['spread']:.4f} bound {row['bound']}"
                         f" (third {row['bound'] / 3:.4f})")
            print(line, flush=True)
        extras = wl["extra"].values()
        for key in sorted(k for k in next(iter(extras))
                          if k == "eval_graphs_per_s"
                          or k.endswith(".train_graphs_per_s")):
            values = [e[key] for e in extras]
            line = f"  {key:<20} {statistics.median(values):12.6g} 1/s "
            if len(values) >= 2:
                line += f" spread {spread(values)['spread']:.4f},"
            print(line + " not bounded")
        tails = [e["step_tail_ms"] for e in wl["extra"].values()]
        pcts = [e["step_tail_pct"] for e in wl["extra"].values()]
        counts = [e["step_samples"] for e in wl["extra"].values()]
        print(f"  {'step_tail_ms':<20} {statistics.median(tails):12.6g} ms  "
              f"  whole run, p{min(pcts):.1f}-p{max(pcts):.1f} of "
              f"{min(counts)}-{max(counts)} steps, not bounded")
        print(f"  {'fail_frac':<20} {max(wl['fail_frac'].values()):12.6g} 1  "
              "   worst seed, not bounded", flush=True)
        for seed, traced in wl["traced"].items():
            print(f"  traced seed {seed}: coverage {traced['coverage']:.4f}")
            for metric, row in traced["overhead"].items():
                print(f"    overhead {metric:<20} "
                      f"{row['traced_minus_untraced']:+12.6g} {row['unit']:<4}"
                      f" ({100 * row['relative']:+.1f}%)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if all(w["checks_ok"] for w in summary["workloads"].values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
