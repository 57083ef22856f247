"""Self-test of the benchmark on tiny inputs: every output check, the
traced path and the result format, in seconds.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_program()

import wl2gnn  # noqa: E402
import wl2gnn.bench  # noqa: E402
import wl2gnn.encoding  # noqa: E402
import wl2gnn.graphs  # noqa: E402
import wl2gnn.layers  # noqa: E402
import wl2gnn.tensor  # noqa: E402
from workloads import WORKLOADS, TriangleCv, TriangleVertexModels  # noqa: E402

with open(run.ROOT / "BENCHMARK.json") as fh:
    BENCH = json.load(fh)

TINY = [
    TriangleCv(vertex_counts=(8,), samples_per_cell=3, folds=2, epochs=1,
               oracle_graphs=2),
    TriangleVertexModels(vertex_counts=(8,), epochs=1, setups=2),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_tiny_workload_passes_every_check(workload, trace):
    record = run.run(workload, seed=3, seconds=0.05, trace=trace, wl2=wl2gnn)
    assert record["failed"] == 0, record["failures"]
    assert record["checks"] and all(c["ok"] for c in record["checks"].values())
    losses = record["final_loss"]
    for loss in losses.values() if isinstance(losses, dict) else [losses]:
        assert math.isfinite(loss)
    for metric in BENCH["end_to_end"]:
        value = record["metrics"][metric["name"]][0]
        assert math.isfinite(value) and value > 0, metric["name"]
    if trace:
        layer = record["layer_metrics"]
        assert {m["name"] for m in BENCH["per_layer"]} <= layer.keys()
        assert 0.5 < layer["trace.coverage"][0] <= 1.0
        assert layer["bench.self_s"][0] > 0
        assert layer["tensor.matmul.calls"][0] > 0


def test_wrong_convolution_fails_the_oracle_check(monkeypatch):
    original = wl2gnn.layers.wl2_conv

    def off_by_a_little(enc, z, params):
        out = original(enc, z, params)
        out.data = out.data + 1e-9
        return out

    monkeypatch.setattr(wl2gnn.layers, "wl2_conv", off_by_a_little)
    record = run.run(TINY[0], seed=3, seconds=0.05, trace=False, wl2=wl2gnn)
    assert not record["checks"]["oracle_max_abs_diff"]["ok"]
    assert record["failed"] >= 1


def test_nonfinite_loss_fails_its_round(monkeypatch):
    original = wl2gnn.bench.evaluate_model
    calls = []

    def nan_on_second_call(*args, **kwargs):
        calls.append(1)
        loss, acc = original(*args, **kwargs)
        return (float("nan") if len(calls) == 2 else loss), acc

    monkeypatch.setattr(wl2gnn.bench, "evaluate_model", nan_on_second_call)
    record = run.run(TINY[1], seed=3, seconds=0.2, trace=False, wl2=wl2gnn)
    assert any("non-finite" in f for f in record["failures"])
    assert record["failed"] >= 1


def test_every_patched_name_is_restored():
    names = [(wl2gnn.tensor, "matmul"), (wl2gnn.bench, "train_model"),
             (wl2gnn.layers, "combine_encodings"), (wl2gnn.graphs,
                                                    "_sample_triangle_graph")]
    before = [getattr(o, n) for o, n in names]
    relu = wl2gnn.tensor.ACTIVATIONS["relu"]
    run.run(TINY[1], seed=3, seconds=0.05, trace=True, wl2=wl2gnn)
    assert [getattr(o, n) for o, n in names] == before
    assert wl2gnn.tensor.ACTIVATIONS["relu"] is relu


def test_tail_has_ten_samples_beyond_it():
    samples = list(np.random.default_rng(0).permutation(np.arange(1.0, 31.0)))
    value, pct, count = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert count == 30 and pct == pytest.approx(100 * 20 / 30)


def test_best_slices_take_each_slice_at_its_best_round():
    # two rounds of marks: slices (1, 4, 1) and (3, 1, 2)
    rounds = [{"marks": [0.0, 1.0, 5.0, 6.0]}, {"marks": [10.0, 13.0, 14.0, 16.0]}]
    best = run.best_slices(rounds)
    assert best == [1.0, 1.0, 1.0]
    assert run.best_of(best, [(0, 2), (2, 3)]) == [2.0, 1.0]


def test_benchmark_json_matches_the_workloads():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "triangle-cv", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
