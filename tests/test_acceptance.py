"""End-to-end acceptance checks, one per headline property.

Each test records a single `criterion N: PASS/FAIL` line; the conftest
hook echoes the collected lines after the run, outside capture, so
they survive into piped logs. Each check enforces its stated tolerance
and time budget.
"""

import functools
import time
from pathlib import Path

import numpy as np

from conftest import ACCEPTANCE_LINES

import wl2gnn.tensor as T
from wl2gnn import bench
from wl2gnn.bench import (TrainConfig, run_cv, scaling_study,
                          stratified_holdout, triangle_experiment,
                          _random_regular_circulant)
from wl2gnn.encoding import combine_encodings, encode
from wl2gnn.graphs import (Graph, TriangleConfig, complete_graph, cycle_graph,
                           disjoint_union, edge_neighborhood_graph,
                           generate_triangle_dataset, graph_power,
                           load_tu_dataset, save_tu_dataset)
from wl2gnn.layers import (ModelSpec, VertexSumSpec, Wl2LayerParams,
                           build_simulation_stack, combine_units,
                           forward_model, init_model_params, input_width,
                           pool, prepare_units, simulation_block_boundaries,
                           simulation_initial_features, vertex_sum_forward,
                           wl2_conv, wl2_conv_naive)
from wl2gnn.tensor import constant
from wl2gnn.wl import Palette, color_histogram, distinguishable, run_wl

NCI1_DIR = Path(__file__).resolve().parents[1] / "data" / "NCI1"


def _report(k, verdict, detail=""):
    line = f"criterion {k:2d}: {verdict}" + (f" - {detail}" if detail else "")
    print(line)
    ACCEPTANCE_LINES.append(line)


def criterion(k):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                msg = str(exc).splitlines()[0][:100] if str(exc) else type(exc).__name__
                _report(k, "FAIL", msg)
                raise
            _report(k, "PASS", detail or "")
        return run
    return wrap


def two_triangles():
    return disjoint_union([cycle_graph(3), cycle_graph(3)])


def time_calls(monkeypatch, owner, name, totals, key):
    """Adds the wall time of every call to `owner.name` to totals[key]."""
    fn = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start
    monkeypatch.setattr(owner, name, timed)


# -------------------------------------------------------------------------

@criterion(1)
def test_criterion_01_wl_counterexample():
    start = time.perf_counter()
    c6, cc = cycle_graph(6), two_triangles()
    one = distinguishable(c6, cc, k=1)
    two = distinguishable(c6, cc, k=2)
    elapsed = time.perf_counter() - start
    assert one is False, "1-WL separated C6 from 2xC3"
    assert two is True, "2-WL failed to separate C6 from 2xC3"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    return f"1-WL blind, 2-WL separates ({elapsed * 1000:.0f} ms)"


@criterion(2)
def test_criterion_02_edge_graph_refinement():
    start = time.perf_counter()
    checked = 0
    for pair in range(20):
        d = 2 if pair < 10 else 3
        rng = np.random.default_rng([2, pair])
        if d == 2:
            n = int(rng.integers(5, 21))
        else:
            n = int(2 * rng.integers(3, 11))  # odd degree needs even n
        g1 = _random_regular_circulant(rng, n, d)
        g2 = _random_regular_circulant(rng, n, d)
        assert g1 is not None and g2 is not None
        palette = Palette()
        h1, it1 = run_wl(edge_neighborhood_graph(g1), 1, palette)
        h2, it2 = run_wl(edge_neighborhood_graph(g2), 1, palette)
        assert it1 == 1 and it2 == 1, f"pair {pair}: {it1}/{it2} iterations"
        h1, h2 = color_histogram(h1), color_histogram(h2)
        assert h1 == h2, f"pair {pair}: histograms differ"
        assert sorted(h1.values()) == sorted([n, n * d // 2]), \
            f"pair {pair}: counts {sorted(h1.values())}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    return f"{checked} regular pairs, 1 iteration each ({elapsed:.2f} s)"


@criterion(3)
def test_criterion_03_vertex_models_blind():
    pairs = [(cycle_graph(6), two_triangles()),
             (disjoint_union([cycle_graph(3)] * 4),
              disjoint_union([cycle_graph(4)] * 3))]
    gnn2 = ModelSpec(layer="gnn2", t=2, d=8, r=1, pool="sum", act="logistic",
                     lr=1e-3)
    gin = ModelSpec(layer="gin", t=3, d=8, r=1, pool="mean", act="relu",
                    lr=1e-3)
    worst = 0.0
    for spec, spec_pairs in ((gnn2, pairs), (gin, pairs[:1])):
        for g, h in spec_pairs:
            for seed in range(10):
                params = init_model_params(
                    spec, input_width(prepare_units(spec, [g])), seed)
                logits = []
                for graph in (g, h):
                    batch = combine_units(spec, prepare_units(spec, [graph]))
                    logits.append(forward_model(spec, params, batch).data[0, 0])
                diff = abs(logits[0] - logits[1])
                worst = max(worst, diff)
                assert diff <= 1e-10, f"{spec.layer} split a blind pair: {diff}"
    return f"2-GNN and GIN logit gaps <= {worst:.1e} over 10 draws per pair"


@criterion(4)
def test_criterion_04_fixed_weight_separation():
    values = {}
    for name, g in (("c6", cycle_graph(6)), ("cc", two_triangles())):
        enc = encode(g, 1)
        params = Wl2LayerParams(w_l=constant(np.zeros((enc.width, 1))),
                                w_f=constant(np.ones((enc.width, 1))),
                                w_g=constant(np.ones((enc.width, 1))),
                                act="identity", act_gamma="identity")
        z = wl2_conv(enc, constant(enc.z0), params)
        values[name] = pool(z, "min").data[0, 0]
    assert values["c6"] == 4.0, f"C6 pooled to {values['c6']}"
    assert values["cc"] == 6.0, f"2xC3 pooled to {values['cc']}"
    return "min pooling yields exactly 4 on C6 and 6 on 2xC3"


@criterion(5)
def test_criterion_05_conv_oracle_equivalence():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(1, 13))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.8)
        edges = tuple(p for p, keep in zip(pairs, mask) if keep)
        kwargs = {"vertex_features": rng.normal(size=(n, 2))}
        if trial % 2 and edges:
            kwargs["edge_features"] = rng.normal(size=(len(edges), 1))
        g = Graph(n, edges, **kwargs)
        r = 1 + trial % 3
        enc = encode(g, r)
        act = ("identity", "relu", "logistic")[trial % 3]
        params = Wl2LayerParams(w_l=T.glorot_uniform(rng, enc.width, 4),
                                w_f=T.glorot_uniform(rng, enc.width, 4),
                                w_g=T.glorot_uniform(rng, enc.width, 4),
                                act=act, act_gamma=act)
        fast = wl2_conv(enc, constant(enc.z0), params).data
        slow = wl2_conv_naive(graph_power(g, r), enc.z0, params)
        worst = max(worst, float(np.max(np.abs(fast - slow))) if fast.size else 0.0)
    assert worst <= 1e-12, f"max abs diff {worst}"
    return f"50 random graphs, max abs diff {worst:.1e}"


K3_TRIPLES = [(1, 1, 1), (1, 4, 4), (1, 5, 5), (2, 2, 2), (2, 4, 4),
              (2, 6, 6), (3, 3, 3), (3, 5, 5), (3, 6, 6), (4, 1, 4),
              (4, 4, 2), (4, 5, 6), (5, 1, 5), (5, 5, 3), (5, 4, 6),
              (6, 2, 6), (6, 6, 3), (6, 4, 5)]
P2_TRIPLES = [(7, 7, 7), (7, 9, 9), (8, 8, 8), (8, 9, 9), (9, 7, 9),
              (9, 9, 8)]


@criterion(6)
def test_criterion_06_golden_batch_encoding():
    k3 = Graph(3, ((0, 1), (0, 2), (1, 2)), vertex_features=np.ones((3, 1)),
               edge_features=np.ones((3, 1)))
    p2 = Graph(2, ((0, 1),), vertex_features=np.ones((2, 1)),
               edge_features=np.ones((1, 1)))
    batch = combine_encodings([encode(k3, 1), encode(p2, 1)])
    assert batch.m == 9, f"m = {batch.m}"
    assert batch.gamma == 24, f"gamma = {batch.gamma}"
    want_z0 = np.array([[1, 0]] * 3 + [[0, 1]] * 3 + [[1, 0]] * 2 + [[0, 1]],
                       dtype=float)
    assert np.array_equal(batch.z0, want_z0), "feature rows differ"
    golden = [tuple(x - 1 for x in t) for t in K3_TRIPLES + P2_TRIPLES]
    assert batch.triples() == golden, "reference triples differ"
    return "m=9, gamma=24, rows and 24 triples match the worked example"


@criterion(7)
def test_criterion_07_vertex_network_simulation():
    worst = 0.0
    for case in range(10):
        rng = np.random.default_rng([7, case])
        n = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = tuple(p for p in pairs if rng.random() < 0.5)
        g = Graph(n, edges, vertex_features=np.ones((n, 1)))
        width = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 3))
        x = rng.normal(size=(n, width))
        w_self = rng.random(n) + 0.5
        w_edge = rng.random(len(edges)) + 0.5
        act = "relu" if case % 2 else "identity"
        spec = VertexSumSpec(
            matrices=[[rng.normal(size=(width, width))] for _ in range(depth)],
            activation=act)
        want = vertex_sum_forward(g, x, w_self, w_edge, spec)
        enc = encode(g, 1)
        zt = constant(simulation_initial_features(g, x, w_self, w_edge))
        cuts = set(simulation_block_boundaries(spec))
        block = 0
        for k, layer in enumerate(build_simulation_stack(spec, width), 1):
            zt = wl2_conv(enc, zt, layer)
            if k not in cuts:
                continue
            state = zt.data
            assert np.allclose(state[:n, 0], 1.0, atol=1e-12), "P1 loops"
            assert np.allclose(state[n:, 0], 0.0, atol=1e-12), "P1 edges"
            diff = float(np.max(np.abs(state[:n, 1:width + 1] - want[block])))
            worst = max(worst, diff)
            assert diff <= 1e-8, f"case {case} block {block}: P2 off by {diff}"
            assert np.allclose(state[:n, width + 1], w_self, atol=1e-8), "P3"
            if n < len(state):
                assert np.allclose(state[n:, width + 1], w_edge,
                                   atol=1e-8), "P3 edges"
            block += 1
        assert block == depth
    return f"P1-P3 hold on 10 graphs, max state error {worst:.1e}"


@criterion(8)
def test_criterion_08_gradient_suite():
    rng = np.random.default_rng(8)

    def mat(r, c):
        return T.Tensor(rng.uniform(0.1, 2.0, size=(r, c))
                        * rng.choice([-1.0, 1.0], size=(r, c)),
                        requires_grad=True)

    worst = 0.0

    def check(make_loss, *params):
        nonlocal worst
        report = T.grad_check(make_loss, list(params))
        assert report.passed, report
        worst = max(worst, report.max_rel_error)

    a, b = mat(3, 4), mat(4, 2)
    check(lambda: T.sum_all(T.matmul(a, b)), a, b)
    c, d = mat(3, 4), mat(1, 4)
    check(lambda: T.sum_all(T.add(c, d)), c, d)
    e, f = mat(3, 4), mat(3, 4)
    check(lambda: T.sum_all(T.hadamard(e, f)), e, f)
    g = mat(3, 4)
    check(lambda: T.sum_all(T.scale(g, -1.7)), g)
    h = mat(5, 3)
    idx = np.array([0, 2, 4, 2, 1])
    check(lambda: T.sum_all(T.hadamard(T.gather(h, idx),
                                       constant(np.arange(15.0).reshape(5, 3)
                                                + 1))), h)
    i = mat(6, 2)
    seg = np.array([0, 0, 1, 1, 1, 2])
    check(lambda: T.sum_all(T.hadamard(T.scatter_sum(i, seg, 3),
                                       constant(np.ones((3, 2)) * 1.5))), i)
    j = mat(6, 2)
    check(lambda: T.sum_all(T.segment_min(j, seg, 3)), j)
    for op in (T.relu, T.logistic, T.identity, T.exp, T.reciprocal):
        k = mat(4, 3)
        check(lambda op=op, k=k: T.sum_all(op(k)), k)
    logits = mat(5, 1)
    y = rng.integers(0, 2, size=(5, 1)).astype(float)
    check(lambda: T.bce(logits, y), logits)

    spec = ModelSpec(layer="wl2", t=2, d=3, r=2, pool="weighted_mean",
                     act="logistic", lr=1e-3)
    graphs = [cycle_graph(5), complete_graph(4)]
    units = prepare_units(spec, graphs)
    params = init_model_params(spec, input_width(units), seed=88)
    batch = combine_units(spec, units)
    targets = np.array([[1.0], [0.0]])
    check(lambda: T.bce(forward_model(spec, params, batch), targets),
          *params.tensors())
    assert worst <= 1e-4
    return f"all ops and the full model loss, max rel error {worst:.1e}"


# runs before the training benchmark on purpose: the slope measurement
# is wall-clock sensitive and the training test churns the heap
@criterion(10)
def test_criterion_10_scaling_slopes(monkeypatch):
    import gc
    gc.collect()
    # set-up calls are timed from outside; the timed epochs are not wrapped
    spent = {"generation": 0.0, "encoding": 0.0}
    time_calls(monkeypatch, bench, "_random_regular_circulant", spent,
               "generation")
    time_calls(monkeypatch, bench, "prepare_units", spent, "encoding")
    start = time.perf_counter()
    rows_n, rows_d, slope_n, slope_d = scaling_study(
        [32, 64, 128, 256, 512], [2, 4, 8, 16], r=1, fixed_n=64, n_graphs=100,
        epochs=100, seed=0)
    elapsed = time.perf_counter() - start
    assert len(rows_n) == 5 and len(rows_d) == 4
    training = (100 * sum(r.epoch_seconds for r in rows_n)
                + 3 * sum(r.epoch_seconds for r in rows_d))
    assert 0.75 <= slope_n <= 1.25, f"epoch-time slope in n: {slope_n:.3f}"
    assert slope_d <= 2 * 1 + 0.5, f"gamma slope in d: {slope_d:.3f}"
    assert elapsed <= 600, f"took {elapsed:.0f}s"
    blas = ("one BLAS thread" if bench._openblas_threads() is not None
            else "BLAS threads left as found: no bundled OpenBLAS")
    return (f"epoch time ~ n^{slope_n:.2f}, gamma ~ d^{slope_d:.2f} "
            f"(bound 2.5) on {blas} ({elapsed:.0f} s: generation "
            f"{spent['generation']:.2f} s, encoding {spent['encoding']:.2f} s, "
            f"timed epochs {training:.1f} s)")


@criterion(9)
def test_criterion_09_triangle_learning(monkeypatch):
    start = time.perf_counter()
    cfg = TriangleConfig(vertex_counts=(8, 10, 12, 14), samples_per_cell=6)
    graphs, labels, _ = generate_triangle_dataset(7, cfg)
    generation = time.perf_counter() - start
    spent = {"encoding": 0.0}
    time_calls(monkeypatch, bench, "prepare_units", spent, "encoding")
    # deliberately small training split: the claim under test is the
    # architectural separation, and the large held-out side gives a
    # low-variance test estimate while keeping training cheap
    runs = triangle_experiment(graphs, labels, seeds=(0, 1, 2),
                               split_seed=123, train_fraction=0.2)
    means = {layer: float(np.mean([test for _, test, _ in family]))
             for layer, family in runs.items()}
    wl2_trains = [train for train, _, _ in runs["wl2"]]
    training = sum(trained.seconds for family in runs.values()
                   for _, _, trained in family)
    elapsed = time.perf_counter() - start
    assert min(wl2_trains) >= 0.95, f"wl2 train accs {wl2_trains}"
    margin = means["wl2"] - means["gin"]
    assert margin >= 0.05, f"test margin over gin only {margin:+.3f}"
    assert means["baseline"] <= 0.65, f"baseline test {means['baseline']:.3f}"
    assert elapsed <= 900, f"took {elapsed:.0f}s"
    return (f"{len(graphs)} graphs: wl2 test {means['wl2']:.3f} vs gin "
            f"{means['gin']:.3f} vs baseline {means['baseline']:.3f}, "
            f"wl2 train >= {min(wl2_trains):.3f} ({elapsed:.0f} s: "
            f"generation {generation:.1f} s, encoding "
            f"{spent['encoding']:.2f} s, training {training:.1f} s)")


def _synthetic_tu_corpus(path, count=240):
    """Feature-separable stand-in corpus written in TU text format."""
    rng = np.random.default_rng(11)
    graphs, labels = [], []
    for k in range(count):
        cls = k % 2
        n = int(rng.integers(4, 9))
        edges = tuple((i, i + 1) for i in range(n - 1))
        graphs.append(Graph(n, edges,
                            vertex_features=None,
                            vertex_labels=(cls,) * n))
        labels.append(cls)
    save_tu_dataset(graphs, np.asarray(labels), str(path / "SMOKE"), "SMOKE")
    return count


@criterion(11)
def test_criterion_11_tu_ingestion_and_smoke_cv(tmp_path):
    if NCI1_DIR.is_dir():
        graphs, labels = load_tu_dataset(str(NCI1_DIR))
        assert len(graphs) == 4110, f"NCI1 loaded {len(graphs)} graphs"
        source = "NCI1"
    else:
        count = _synthetic_tu_corpus(tmp_path)
        graphs, labels = load_tu_dataset(str(tmp_path / "SMOKE"))
        assert len(graphs) == count, f"loaded {len(graphs)}/{count} graphs"
        source = f"synthetic stand-in ({count} graphs; no NCI1 data on disk)"
    rng = np.random.default_rng(42)
    _, sub = stratified_holdout(np.arange(len(graphs)), labels,
                                200 / len(graphs), rng)
    sub_graphs = [graphs[i] for i in sub]
    sub_labels = np.asarray(labels)[sub]
    grid = [ModelSpec(layer="gin", t=2, d=16, r=1, pool="mean", act="relu",
                      lr=1e-2)]
    results = run_cv(sub_graphs, sub_labels, grid,
                     TrainConfig(epochs=30, patience=30, batch_size=32,
                                 folds=5, repeats=1, seed=0),
                     dataset="smoke")
    mean_acc = float(np.mean([r.test_acc for r in results]))
    assert mean_acc > 0.55, f"smoke CV accuracy {mean_acc:.3f}"
    return (f"{source}; ingestion count ok, {len(sub_graphs)}-graph smoke CV "
            f"test accuracy {mean_acc:.3f}")
