"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload triangle-cv --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from `src/`.
The inputs are made from `--seed`; each round of the workload repeats
until `--seconds` have passed. With `--trace 0` the last line of the
output is the JSON result with every end-to-end metric that
`BENCHMARK.json` names; with `--trace 1` the same run is repeated with
spans on every module boundary and the result holds the per-layer
metrics instead. A detail file with provenance, input sizes, the final
training loss, the outcome of every output check and, when traced, the
whole per-span table, is written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# one single-threaded process: processes x BLAS threads stays within 2 cores,
# and the timings do not depend on the BLAS thread scheduler
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_program():
    """Puts the checkout's `src/` first on the path; exits with an error
    when the checkout has no program."""
    if not (ROOT / "src" / "wl2gnn" / "__init__.py").is_file():
        sys.exit(f"error: no program at {ROOT / 'src' / 'wl2gnn'}; run the "
                 "benchmark from a checkout of the repository")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "seed": seed}


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def best_slices(rounds):
    """Each slice's best time over the rounds (see `spans.Probes`).

    Every round repeats the same work (the output checks test this), so
    slice k of one round does what slice k of any other does. Other
    processes on the host slow the program in bursts of a few
    milliseconds, and its speed drifts by tens of percent over seconds
    while they run; a slice's best repeat is one that such a burst
    missed. Sums of best slices moved less between runs than the fastest
    round or any median or tail over a whole run; slowdowns that last a
    whole run still show in them.
    """
    slices = ([b - a for a, b in zip(r["marks"], r["marks"][1:])]
              for r in rounds)
    return [min(times) for times in zip(*slices)]


def best_of(best, spans):
    """Time of each (first mark, last mark) span, slices at their best."""
    return [sum(best[start:end]) for start, end in spans]


def end_to_end(setup_s, round_s, probes):
    """The bounded metrics, and extras that are recorded but not bounded.

    `setup_s` is the fastest set-up. Round, step and evaluation times
    are sums of best slices (`best_slices`): the round with each slice
    at its best over the run's rounds. The extras keep every sample, the
    run-wide median and tail of real steps, the fastest real round, and
    the per-family training rates in their best round.
    """
    rounds = probes.rounds
    every_step = [t for r in rounds for t in probes.durations(r, "steps")]
    step_tail, pct, count = tail(every_step)
    best = best_slices(rounds)
    steps = best_of(best, rounds[0]["steps"])
    evals = best_of(best, rounds[0]["evals"])
    # per family: graph-epochs over train_model time, in its best round
    family_rates = {}
    for r in rounds:
        for layer, graph_epochs, seconds in r["train"]:
            key = f"{layer}.train_graphs_per_s"
            family_rates[key] = max(family_rates.get(key, 0.0),
                                    graph_epochs / seconds)
    return {
        "setup_s": (min(setup_s), "s"),
        "round_s": (sum(best), "s"),
        "train_graphs_per_s": (sum(rounds[0]["step_graphs"]) / sum(steps),
                               "1/s"),
        "step_p50_ms": (1000 * statistics.median(steps), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }, {"eval_graphs_per_s": sum(rounds[0]["eval_graphs"]) / sum(evals),
        "step_tail_ms": 1000 * step_tail, "step_tail_pct": pct,
        "step_samples": count,
        "all_steps_p50_ms": 1000 * statistics.median(every_step),
        "fastest_round_s": min(round_s),
        "all_rounds_median_s": statistics.median(round_s),
        "all_setups_median_s": statistics.median(setup_s),
        "rounds": len(round_s), "slices": len(best),
        "setup_samples": setup_s, "round_samples": round_s,
        "losses_checked": probes.losses, **family_rates,
        "per_round": [{"step_s": probes.durations(r, "steps"),
                       "eval_s": probes.durations(r, "evals"),
                       "train": r["train"]} for r in rounds]}


def per_layer(tracer, per_phase, timed):
    """The per-layer metrics, each a cost per set-up plus per round."""
    table, counts = tracer.table(per_phase)

    def s(name, key="s"):
        return table.get(name, {}).get(key, 0.0)

    def n(key):
        return counts.get(key, 0.0)

    out = {}
    for op in ("matmul", "gather", "scatter_sum", "add", "hadamard", "bce"):
        out[f"tensor.{op}.fwd_s"] = (s(f"tensor.{op}.fwd"), "s")
        out[f"tensor.{op}.bwd_s"] = (s(f"tensor.{op}.bwd"), "s")
    for op in ("matmul", "gather", "scatter_sum", "add", "hadamard", "scale",
               "relu", "logistic", "bce"):
        out[f"tensor.{op}.calls"] = (n(f"tensor.{op}.calls"), "count")
    out["tensor.activation.fwd_s"] = (s("tensor.relu.fwd")
                                      + s("tensor.logistic.fwd"), "s")
    out["tensor.activation.bwd_s"] = (s("tensor.relu.bwd")
                                      + s("tensor.logistic.bwd"), "s")
    out["tensor.gather.bytes"] = (n("tensor.gather.bytes"), "count")
    out["tensor.scatter_sum.bytes"] = (n("tensor.scatter_sum.bytes"), "count")
    out["tensor.matmul.flops"] = (n("tensor.matmul.flops"), "count")
    out["tensor.backward.s"] = (s("tensor.backward"), "s")
    out["tensor.backward.self_s"] = (s("tensor.backward", "self_s"), "s")
    out["tensor.backward.nodes"] = (sum(row["calls"] for name, row
                                        in table.items()
                                        if name.endswith(".bwd")), "count")
    out["tensor.adam_step.s"] = (s("tensor.adam_step"), "s")
    out["layers.forward_model.s"] = (s("layers.forward_model"), "s")
    out["layers.forward_model.self_s"] = (s("layers.forward_model", "self_s"),
                                          "s")
    out["layers.forward_model.calls"] = (s("layers.forward_model", "calls"),
                                         "count")
    out["layers.wl2_conv.calls"] = (s("layers.wl2_conv", "calls"), "count")
    out["layers.pool_segments.s"] = (s("layers.pool_segments"), "s")
    out["layers.combine_units.s"] = (s("layers.combine_units"), "s")
    out["layers.combine_units.calls"] = (s("layers.combine_units", "calls"),
                                         "count")
    out["layers.prepare_units.s"] = (s("layers.prepare_units"), "s")
    for name in ("encoding.encode", "encoding.combine_encodings",
                 "graphs.graph_power"):
        out[f"{name}.s"] = (s(name), "s")
        out[f"{name}.calls"] = (s(name, "calls"), "count")
    out["encoding.encode.self_s"] = (s("encoding.encode", "self_s"), "s")
    out["encoding.rows"] = (n("encoding.rows"), "count")
    out["encoding.triples"] = (n("encoding.triples"), "count")
    out["encoding.triples_per_row"] = (
        n("encoding.triples") / n("encoding.rows") if n("encoding.rows")
        else 0.0, "ratio")
    out["graphs.generate_triangle_dataset.s"] = (
        s("graphs.generate_triangle_dataset"), "s")
    out["graphs.triangle_draws"] = (n("graphs.triangle_draws"), "count")
    out["graphs.triangle_accept_ratio"] = (
        n("graphs.triangle_kept") / n("graphs.triangle_draws")
        if n("graphs.triangle_draws") else 0.0, "ratio")
    out["bench.evaluate_model.s"] = (s("bench.evaluate_model"), "s")
    out["bench.evaluate_model.calls"] = (s("bench.evaluate_model", "calls"),
                                         "count")
    out["bench.train_model.calls"] = (s("bench.train_model", "calls"),
                                      "count")
    out["bench.run_cv.calls"] = (s("bench.run_cv", "calls"), "count")
    out["bench.epochs"] = (n("bench.epochs"), "count")
    out["bench.eval_share"] = (tracer.nested_share("bench.evaluate_model",
                                                   "bench.train_model"),
                               "ratio")
    # the bench spans cover whole rounds, so their self time is every
    # line of the program no other span covers: it is reported, and kept
    # out of the coverage
    out["bench.self_s"] = (sum(row["self_s"] for name, row in table.items()
                               if name.startswith("bench.")), "s")
    out["trace.coverage"] = (tracer.coverage("timed", timed,
                                             exclude="bench."), "ratio")
    out["trace.spans"] = (sum(row["calls"] for row in table.values()),
                          "count")
    return out, table, counts


def run(workload, seed, seconds, trace, wl2):
    """Set-up, timed rounds and output checks for one workload. Returns
    the detail record; `metrics` holds (value, unit) pairs."""
    from spans import Patches, Probes, Tracer, clock

    patches = Patches()
    tracer = Tracer() if trace else None
    probes = Probes(fine=workload.fine_slices)
    setup_s, fingerprints, round_s, outputs, failures = [], [], [], [], []
    state, timed = None, 0.0
    for _ in range(workload.warmup):
        # untimed: a fresh process pays first-call costs in its first
        # set-ups, which would otherwise make the short ones unsteady
        workload.setup(seed)
    try:
        if tracer:
            tracer.install(patches, wl2)
        probes.install(patches, wl2)
        # set-ups are spread evenly over the timed phase, so their
        # fastest does not hang on the host's load in one part of the run
        while len(setup_s) < workload.setups or timed < seconds:
            if len(setup_s) < workload.setups and \
                    timed >= len(setup_s) * seconds / workload.setups:
                if tracer:
                    tracer.phase = "setup"
                state = None
                start = clock()
                state = workload.setup(seed)
                setup_s.append(clock() - start)
                fingerprints.append(state.get("fingerprint"))
                if tracer:
                    tracer.phase = "timed"
            bad = probes.nonfinite
            probes.start_round()
            try:
                output = workload.round(state)
            except Exception:
                failures.append(traceback.format_exc())
                probes.rounds.pop()
                break
            took = probes.end_round()
            timed += took
            if probes.nonfinite > bad:
                failures.append(f"round {len(round_s) + 1}: non-finite loss")
                probes.rounds.pop()
            else:
                round_s.append(took)
                outputs.append(output)
    finally:
        patches.restore()
    if not round_s:
        sys.stderr.write("".join(failures))
        sys.exit(f"error: {workload.name}: no round completed")

    try:
        checks, sizes, final_loss = workload.checks(state, outputs, probes,
                                                    fingerprints)
    except Exception:
        failures.append(traceback.format_exc())
        checks, sizes, final_loss = {"checks_ran": (False, None)}, {}, None
    marks = {len(r["marks"]) for r in probes.rounds}
    checks["rounds_repeat_their_slices"] = (len(marks) == 1, max(marks))
    failed = len(failures) + sum(not ok for ok, _ in checks.values())
    attempted = len(round_s) + len(failures) + len(checks)
    metrics, extra = end_to_end(setup_s, round_s, probes)
    extra["fail_frac"] = failed / attempted
    record = {"workload": workload.name, "trace": int(trace),
              "seconds": seconds, "provenance": provenance(seed),
              "sizes": sizes, "final_loss": final_loss,
              "checks": {k: {"ok": bool(ok), "value": v}
                         for k, (ok, v) in checks.items()},
              "failures": failures, "attempted": attempted, "failed": failed,
              "metrics": metrics, "extra": extra}
    if tracer:
        per_phase = {"setup": len(setup_s), "timed": len(round_s)}
        layer, table, counts = per_layer(tracer, per_phase, sum(round_s))
        record["layer_metrics"] = layer
        record["spans_table"] = table
        record["counts"] = counts
        record["tracer"] = tracer
    return record


def declared_metrics(kind):
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import wl2gnn.bench
    import wl2gnn.encoding
    import wl2gnn.graphs
    import wl2gnn.layers
    import wl2gnn.tensor
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)}")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), wl2gnn)
    kind = "per_layer" if args.trace else "end_to_end"
    source = record["layer_metrics"] if args.trace else record["metrics"]
    names = declared_metrics(kind)
    missing = [n for n in names if n not in source]
    if missing:
        sys.exit(f"error: {args.workload} does not produce {missing}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer:
        tracer.dump(f"{stem}-spans.json")
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=float)

    for name, (value, unit) in record["metrics"].items():
        print(f"{name:<22} {value:14.6g} {unit}")
    extra = record["extra"]
    print(f"{'eval_graphs_per_s':<22} {extra['eval_graphs_per_s']:14.6g} 1/s "
          "(slices at their best, not bounded)")
    for key in sorted(k for k in extra if k.endswith(".train_graphs_per_s")):
        print(f"{key:<22} {extra[key]:14.6g} 1/s (train_model, best round, "
              "not bounded)")
    print(f"{'step_tail_ms':<22} {extra['step_tail_ms']:14.6g} ms  (p"
          f"{extra['step_tail_pct']:.1f} of {extra['step_samples']} steps, "
          "whole run, not bounded)")
    print(f"{'fail_frac':<22} {extra['fail_frac']:14.6g} 1   (not bounded)")
    for name, check in record["checks"].items():
        print(f"check {name}: {'ok' if check['ok'] else 'FAILED'} "
              f"({check['value']})")
    print(f"detail: {stem}.json")
    result = {"correct": record["failed"] == 0,
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": {n: {"value": source[n][0], "unit": source[n][1]}
                          for n in names}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
