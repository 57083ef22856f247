import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wl2gnn import bench
from wl2gnn.bench import (
    DEFAULT_RADII,
    FoldResult,
    TrainConfig,
    epoch_timing,
    evaluate_model,
    foldwise_deltas,
    loglog_slope,
    read_results_csv,
    run_cv,
    stratified_folds,
    stratified_holdout,
    train_model,
    write_results_csv,
    write_timing_csv,
    _random_regular_circulant,
    _select,
)
from wl2gnn.cli import DEFAULT_GRID, main
from wl2gnn.graphs import Graph, GraphError, save_tu_dataset
from wl2gnn.layers import ModelSpec, init_model_params, input_width, prepare_units


def constant_graph(value, n=3):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)),
                 vertex_features=np.full((n, 1), float(value)))


def separable_dataset(count=20):
    """Class is readable off the (constant) vertex feature sign."""
    graphs, labels = [], []
    for k in range(count):
        cls = k % 2
        graphs.append(constant_graph(1.0 if cls else -1.0, n=3 + k % 3))
        labels.append(cls)
    return graphs, np.asarray(labels)


BASELINE = ModelSpec(layer="baseline", t=1, d=4, r=1, pool="mean",
                     act="relu", lr=1e-2)
WL2 = ModelSpec(layer="wl2", t=1, d=4, r=2, pool="mean", act="relu", lr=1e-2)


# ------------------------------------------------------------------ splits

def test_stratified_folds_partition_and_balance():
    labels = np.array([0] * 17 + [1] * 23)
    folds = stratified_folds(labels, 5, np.random.default_rng(0))
    seen = np.concatenate(folds)
    assert sorted(seen.tolist()) == list(range(40))
    per_class = [[int(np.sum(labels[f] == c)) for f in folds] for c in (0, 1)]
    for counts in per_class:
        assert max(counts) - min(counts) <= 1


def test_stratified_folds_deterministic():
    labels = np.array([0, 1] * 10)
    a = stratified_folds(labels, 4, np.random.default_rng(7))
    b = stratified_folds(labels, 4, np.random.default_rng(7))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_stratified_holdout_partitions_and_covers_classes():
    labels = np.array([0] * 12 + [1] * 4)
    idx = np.arange(16)
    rest, held = stratified_holdout(idx, labels, 0.25, np.random.default_rng(1))
    assert sorted(rest.tolist() + held.tolist()) == list(range(16))
    for cls in (0, 1):
        assert np.sum(labels[held] == cls) >= 1
    assert np.sum(labels[held] == 0) == 3  # round(0.25 * 12)


def test_stratified_holdout_keeps_rare_class():
    labels = np.array([0] * 30 + [1])
    idx = np.arange(31)
    _, held = stratified_holdout(idx, labels, 0.1, np.random.default_rng(2))
    assert np.sum(labels[held] == 1) == 1


# ------------------------------------------------------------ train and eval

def test_evaluate_model_chunking_invariant():
    graphs, labels = separable_dataset(9)
    units = prepare_units(BASELINE, graphs)
    params = init_model_params(BASELINE, input_width(BASELINE, graphs), 3)
    a = evaluate_model(BASELINE, params, units, labels, batch_size=2)
    b = evaluate_model(BASELINE, params, units, labels, batch_size=256)
    assert abs(a[0] - b[0]) <= 1e-12 and a[1] == b[1]


def test_train_model_fits_separable_task():
    graphs, labels = separable_dataset()
    units = prepare_units(BASELINE, graphs)
    config = TrainConfig(epochs=60, patience=60, batch_size=8)
    trained = train_model(BASELINE, units, labels, config, seed=0)
    _, acc = evaluate_model(BASELINE, trained.params, units, labels)
    assert acc == 1.0
    assert trained.epochs <= 60 and trained.seconds > 0.0


def test_train_model_target_accuracy_stops_early():
    graphs, labels = separable_dataset()
    units = prepare_units(BASELINE, graphs)
    config = TrainConfig(epochs=200, patience=200, batch_size=8,
                         target_acc=0.9)
    trained = train_model(BASELINE, units, labels, config, seed=0,
                          val_units=units, val_labels=labels)
    assert trained.epochs < 200
    _, acc = evaluate_model(BASELINE, trained.params, units, labels)
    assert acc >= 0.9  # the stopping weights are the returned weights


def test_train_model_rejects_non_finite_losses():
    graphs, labels = separable_dataset(8)
    config = TrainConfig(epochs=5, patience=5, batch_size=4)
    bad = [constant_graph(np.nan)] + graphs[1:]
    with pytest.raises(ValueError, match=r"training loss in epoch 1, batch \d"):
        train_model(BASELINE, prepare_units(BASELINE, bad), labels, config,
                    seed=0)
    units = prepare_units(BASELINE, graphs)
    with pytest.raises(ValueError, match="validation loss in epoch 1"):
        train_model(BASELINE, units, labels, config, seed=0,
                    val_units=prepare_units(BASELINE, bad), val_labels=labels)


def test_train_model_rejects_counts_below_one():
    graphs, labels = separable_dataset(8)
    units = prepare_units(BASELINE, graphs)
    for field in ("epochs", "batch_size"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{field} must be at least 1"):
                train_model(BASELINE, units, labels,
                            TrainConfig(**{field: value}), seed=0)


def test_train_model_target_needs_a_validation_set():
    graphs, labels = separable_dataset(8)
    units = prepare_units(BASELINE, graphs)
    with pytest.raises(ValueError, match="target_acc needs a validation set"):
        train_model(BASELINE, units, labels, TrainConfig(target_acc=0.9),
                    seed=0)


def test_evaluate_model_rejects_empty_mislabelled_or_unbatched_units():
    graphs, labels = separable_dataset(6)
    units = prepare_units(BASELINE, graphs)
    params = init_model_params(BASELINE, input_width(BASELINE, graphs), 0)
    with pytest.raises(ValueError, match="units is empty"):
        evaluate_model(BASELINE, params, [], [])
    with pytest.raises(ValueError, match="3 labels for 6 units"):
        evaluate_model(BASELINE, params, units, labels[:3])
    # a negative batch size used to score nothing and return (0.0, 0.0)
    for size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            evaluate_model(BASELINE, params, units, labels, batch_size=size)


@pytest.mark.parametrize("case,message", [
    ("fewer-labels", "5 labels for 6 units"),
    ("no-units", "units is empty"),
    ("empty-validation", "val_units is empty"),
])
def test_train_model_rejects_empty_or_mislabelled_units(case, message):
    graphs, labels = separable_dataset(6)
    units = prepare_units(BASELINE, graphs)
    args = {"fewer-labels": (units, labels[:5], {}),
            "no-units": ([], [], {}),
            "empty-validation": (units, labels,
                                 {"val_units": [], "val_labels": []})}
    units, labels, kwargs = args[case]
    with pytest.raises(ValueError, match=message):
        train_model(BASELINE, units, labels, TrainConfig(epochs=1), seed=0,
                    **kwargs)


def test_train_model_scores_validation_set_once_per_epoch(monkeypatch):
    graphs, labels = separable_dataset()
    units = prepare_units(BASELINE, graphs)
    val_units, val_labels = units[::2], labels[::2]
    calls = []

    def counting(spec, params, units, labels, *args, **kwargs):
        calls.append(units)
        return evaluate_model(spec, params, units, labels, *args, **kwargs)
    monkeypatch.setattr(bench, "evaluate_model", counting)
    plain = train_model(BASELINE, units, labels,
                        TrainConfig(epochs=3, batch_size=8), seed=3)
    assert calls == [] and (plain.val_loss, plain.val_acc) == (None, None)
    # flipped validation labels: the best epoch is an early one, so
    # patience stops training and the best weights are restored; with
    # the true labels the accuracy target stops it
    for targets, target in ((1 - val_labels, 1.1), (val_labels, 0.9)):
        calls.clear()
        config = TrainConfig(epochs=80, patience=3, batch_size=8,
                             target_acc=target, lr_patience=1)
        trained = train_model(BASELINE, units, labels, config, seed=3,
                              val_units=val_units, val_labels=targets)
        assert trained.epochs < 80
        assert len(calls) == trained.epochs
        assert all(c is val_units for c in calls)
        assert (trained.val_loss, trained.val_acc) == evaluate_model(
            BASELINE, trained.params, val_units, targets)
    assert trained.val_acc >= 0.9


def test_train_model_patience_stops_on_plateau():
    # identical graphs with split labels: loss flatlines at ln 2
    graphs = [constant_graph(1.0) for _ in range(8)]
    labels = np.array([0, 1] * 4)
    units = prepare_units(BASELINE, graphs)
    config = TrainConfig(epochs=400, patience=5, batch_size=8)
    trained = train_model(BASELINE, units, labels, config, seed=1,
                          val_units=units, val_labels=labels)
    assert trained.epochs < 400


def test_train_model_restores_best_epoch_weights():
    # adversarial validation labels: the best validation epoch is an
    # early one, so the restored model must not have fit the train set
    graphs, labels = separable_dataset()
    units = prepare_units(BASELINE, graphs)
    config = TrainConfig(epochs=80, patience=4, batch_size=8)
    trained = train_model(BASELINE, units, labels, config, seed=0,
                          val_units=units, val_labels=1 - labels)
    assert trained.epochs < 80
    loss_flipped, _ = evaluate_model(BASELINE, trained.params, units,
                                     1 - labels)
    fit = train_model(BASELINE, units, labels,
                      TrainConfig(epochs=80, patience=80, batch_size=8),
                      seed=0)
    loss_fit_flipped, _ = evaluate_model(BASELINE, fit.params, units,
                                         1 - labels)
    assert loss_flipped < loss_fit_flipped


# ------------------------------------------------------------------- run_cv

def quick_config(**kw):
    base = dict(epochs=4, patience=4, batch_size=8, folds=4, holdout=0.2,
                repeats=2, seed=5)
    base.update(kw)
    return TrainConfig(**base)


def test_run_cv_shape_and_csv_round_trip(tmp_path):
    graphs, labels = separable_dataset(16)
    out = tmp_path / "results.csv"
    results = run_cv(graphs, labels, [BASELINE], quick_config(),
                     dataset="toy", out_path=out)
    assert [(r.fold, r.repeat) for r in results] == [
        (f, rep) for f in range(4) for rep in range(2)]
    assert all(r.dataset == "toy" and r.params > 0 for r in results)
    back = read_results_csv(out)
    for a, b in zip(results, back):
        assert (a.dataset, a.model, a.params, a.fold, a.repeat) == \
               (b.dataset, b.model, b.params, b.fold, b.repeat)
        assert abs(a.train_acc - b.train_acc) <= 1e-6
        assert abs(a.test_acc - b.test_acc) <= 1e-6


def test_run_cv_parallel_matches_serial():
    graphs, labels = separable_dataset(12)
    config = quick_config(folds=3, repeats=1, epochs=2)
    for spec in (BASELINE, WL2):
        serial = run_cv(graphs, labels, [spec], config)
        parallel = run_cv(graphs, labels, [spec],
                          quick_config(folds=3, repeats=1, epochs=2, workers=2))
        assert [(r.fold, r.test_acc) for r in serial] == \
               [(r.fold, r.test_acc) for r in parallel]


def test_run_fold_evaluates_only_train_and_test_folds(monkeypatch):
    # selection reads the holdout score train_model returns, so outside
    # train_model only each repeat's train and test folds are evaluated
    graphs, labels = separable_dataset(16)
    evals, epochs = [], []

    def counting_eval(*args, **kwargs):
        evals.append(1)
        return evaluate_model(*args, **kwargs)

    def counting_train(*args, **kwargs):
        trained = train_model(*args, **kwargs)
        epochs.append(trained.epochs)
        return trained
    monkeypatch.setattr(bench, "evaluate_model", counting_eval)
    monkeypatch.setattr(bench, "train_model", counting_train)
    config = quick_config(folds=2, repeats=2)
    run_cv(graphs, labels, [BASELINE, WL2], config)
    assert len(epochs) == config.folds * (2 + config.repeats)
    assert len(evals) == sum(epochs) + config.folds * config.repeats * 2


def _without_seconds(results):
    return [replace(r, seconds=0.0) for r in results]


def test_run_cv_skips_selection_for_one_spec(monkeypatch):
    # the selection run of a one-spec grid is skipped, and with it the
    # only use of the fold's selection seeds, so the rows do not change
    graphs, labels = separable_dataset(16)
    config = quick_config(folds=2, repeats=2)
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(1)
        return train_model(*args, **kwargs)
    monkeypatch.setattr(bench, "train_model", counting_train)
    one = run_cv(graphs, labels, [WL2], config)
    assert len(calls) == config.folds * config.repeats
    calls.clear()
    two = run_cv(graphs, labels, [WL2, WL2], config)
    assert len(calls) == config.folds * (2 + config.repeats)
    assert _without_seconds(one) == _without_seconds(two)


def test_run_cv_input_validation():
    graphs, labels = separable_dataset(8)
    with pytest.raises(ValueError):
        run_cv(graphs, labels[:-1], [BASELINE], quick_config())
    with pytest.raises(ValueError):
        run_cv(graphs, labels, [], quick_config())
    with pytest.raises(ValueError):
        run_cv(graphs, labels,
               [ModelSpec(layer="baseline", t=1, d=4, r=1, pool="min",
                          act="relu", lr=1e-2)], quick_config())


def test_run_cv_rejects_counts_below_one(monkeypatch):
    # the counts are checked before any unit is prepared
    monkeypatch.setattr(bench, "_unit_cache", None)
    graphs, labels = separable_dataset(8)
    for field in ("epochs", "batch_size", "repeats"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{field} must be at least 1"):
                run_cv(graphs, labels, [BASELINE],
                       quick_config(folds=2, **{field: value}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=3),
       st.integers(0, 14), st.sampled_from([0.1, 0.25, 0.5]))
def test_run_cv_folds_are_feasible_or_rejected_up_front(counts, folds, holdout):
    """Either `run_cv` raises `ValueError` before any fold runs, or every
    outer test fold is non-empty and every inner training split keeps
    every class. Folds are checked by rebuilding their split, not run."""
    labels = np.repeat(np.arange(len(counts)), counts)
    graphs = [constant_graph(1.0)] * len(labels)
    ran = []

    def check_fold(cache, labels, grid, config, dataset, folds, fold):
        test_idx = folds[fold]
        assert len(test_idx) > 0
        train_idx = np.setdiff1d(np.arange(len(labels)), test_idx)
        rng = np.random.default_rng([config.seed, fold])
        inner_idx, _ = stratified_holdout(train_idx, labels, config.holdout,
                                          rng)
        assert set(labels[inner_idx].tolist()) == set(labels.tolist())
        ran.append(fold)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "_run_fold", check_fold)
        try:
            run_cv(graphs, labels, [BASELINE],
                   quick_config(folds=folds, holdout=holdout, repeats=1))
        except ValueError:
            assert not ran
        else:
            assert ran == list(range(folds))


def test_run_cv_rejects_more_folds_than_a_class_has():
    graphs, labels = separable_dataset(8)  # 4 graphs per class
    with pytest.raises(ValueError, match=r"smallest class count \(4\)"):
        run_cv(graphs, labels, [BASELINE], quick_config(folds=10))
    with pytest.raises(ValueError):
        run_cv(graphs, labels, [BASELINE], quick_config(folds=1))


def test_cli_cv_rejects_more_folds_than_a_class_has(tmp_path, capsys):
    graphs, labels = separable_dataset(8)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    code = main(["cv", "--dataset", str(tmp_path / "TOY"), "--folds", "10",
                 "--out", str(tmp_path / "results.csv")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "smallest class count (4)" in err[0]
    assert not (tmp_path / "results.csv").exists()


def test_run_cv_rejects_classes_the_holdout_empties():
    # 2 + 2 graphs in 2 folds: each training fold keeps one graph per
    # class, and the inner holdout takes it
    graphs, labels = separable_dataset(4)
    with pytest.raises(ValueError, match="class 0 has only 2 graphs"):
        run_cv(graphs, labels, [BASELINE], quick_config(folds=2))


def test_cli_cv_rejects_classes_the_holdout_empties(tmp_path, capsys):
    graphs, labels = separable_dataset(4)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    code = main(["cv", "--dataset", str(tmp_path / "TOY"), "--folds", "2",
                 "--out", str(tmp_path / "results.csv")])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "class 0 has only 2 graphs" in err[0]
    assert not (tmp_path / "results.csv").exists()


def with_vertex_width(g, width):
    return Graph(g.n, g.edges, vertex_features=np.ones((g.n, width)))


@pytest.mark.parametrize("layer", ["wl2", "gin", "gnn2", "baseline"])
def test_run_cv_rejects_mixed_feature_widths_before_the_folds(layer,
                                                               monkeypatch):
    graphs, labels = separable_dataset(12)
    graphs[5] = with_vertex_width(graphs[5], 2)
    # the error must come from preparing the units, before any fold runs
    monkeypatch.setattr(bench, "_run_fold", None)
    with pytest.raises(GraphError, match=r"graph 5 has vertex and edge "
                       r"feature widths \(2, 0\), graph 0 has \(1, 0\)"):
        run_cv(graphs, labels, [replace(BASELINE, layer=layer)],
               quick_config(folds=2))


def test_cli_cv_names_the_graph_whose_feature_width_differs(tmp_path, capsys):
    graphs, labels = separable_dataset(12)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    # node attributes one wide, except two wide on graph 3's vertices
    rows = [("1.0, 2.0" if k == 3 else "1.0")
            for k, g in enumerate(graphs) for _ in range(g.n)]
    (tmp_path / "TOY" / "TOY_node_attributes.txt").write_text(
        "\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    code = main(["cv", "--dataset", str(tmp_path / "TOY"), *CLI_BASE["cv"],
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: graph 3 ")
    assert "(2, 0), graph 0 has (1, 0)" in err[0]
    assert not out.exists()


def test_read_results_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_results_csv(bad)


# ------------------------------------------------------------------- deltas

def rows(values, model="m"):
    return [FoldResult(dataset="d", model=model, params=1, fold=f, repeat=0,
                       train_acc=1.0, test_acc=v, epochs=1, seconds=0.1)
            for f, v in enumerate(values)]


def test_foldwise_deltas_means_and_significance():
    rep = foldwise_deltas(rows([0.9, 0.8, 0.85]), rows([0.6, 0.5, 0.55]))
    assert np.allclose(rep.deltas, [0.3, 0.3, 0.3])
    assert rep.mean == pytest.approx(0.3) and rep.std == pytest.approx(0.0)
    assert rep.significant
    noisy = foldwise_deltas(rows([0.7, 0.5]), rows([0.5, 0.7]))
    assert noisy.mean == pytest.approx(0.0)
    assert not noisy.significant


def test_foldwise_deltas_rejects_mismatched_folds():
    with pytest.raises(ValueError):
        foldwise_deltas(rows([0.9, 0.8]), rows([0.6]))


def test_foldwise_deltas_rejects_duplicates():
    dup = rows([0.9]) + rows([0.8])
    with pytest.raises(ValueError):
        foldwise_deltas(dup, dup)


# ------------------------------------------------------------------- timing

def test_random_regular_circulant_degrees():
    rng = np.random.default_rng(4)
    for n, d in ((8, 2), (10, 3), (12, 4), (9, 2)):
        g = _random_regular_circulant(rng, n, d)
        assert g is not None and g.n == n
        assert all(g.degree(v) == d for v in range(n))
    assert _random_regular_circulant(rng, 9, 3) is None  # odd n, odd d
    assert _random_regular_circulant(rng, 4, 4) is None  # d >= n


def test_epoch_timing_rows_and_skips(tmp_path):
    spec = ModelSpec(layer="wl2", t=1, d=4, r=1, pool="mean",
                     act="logistic", lr=1e-3)
    rows, warnings = epoch_timing([8, 9], [2, 3], [1], spec, n_graphs=3,
                                  epochs=2, seed=0)
    assert [(r.n, r.d) for r in rows] == [(8, 2), (8, 3), (9, 2)]
    assert all(r.gamma > 0 and r.epoch_seconds > 0 for r in rows)
    assert len(warnings) == 1 and "n=9 d=3" in warnings[0]
    path = tmp_path / "timing.csv"
    write_timing_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,d,r,gamma,epoch_seconds"
    assert len(lines) == 4


def test_loglog_slope_recovers_exponent():
    x = np.array([4.0, 8.0, 16.0, 32.0])
    assert loglog_slope(x, 3.7 * x ** 2.5) == pytest.approx(2.5, abs=1e-12)
    assert loglog_slope(x, np.full(4, 9.0)) == pytest.approx(0.0, abs=1e-12)


def test_default_radii_cover_corpora():
    assert DEFAULT_RADII["TRIANGLE"] == 2
    assert DEFAULT_RADII["NCI1"] == 8


def test_select_preserves_order():
    units = ["a", "b", "c", "d"]
    assert _select(units, np.array([2, 0])) == ["c", "a"]


# ------------------------------------------------------------ command line

CLI_BASE = {
    "cv": ["--folds", "2", "--repeats", "1", "--epochs", "2"],
    "timing": ["--n-values", "8", "--graphs", "2", "--epochs", "1"],
}


@pytest.mark.parametrize("command,flags,field", [
    ("cv", ["--repeats", "0"], "repeats"),
    ("cv", ["--batch-size", "-1"], "batch_size"),
    ("cv", ["--batch-size", "0"], "batch_size"),
    ("cv", ["--epochs", "0"], "epochs"),
    ("cv", ["--patience", "0"], "patience"),
    ("cv", ["--workers", "0"], "workers"),
    ("cv", ["--workers", "-2"], "workers"),
    ("timing", ["--epochs", "0"], "epochs"),
    ("timing", ["--graphs", "0"], "n_graphs"),
], ids=["cv-repeats-0", "cv-batch-size-neg", "cv-batch-size-0", "cv-epochs-0",
        "cv-patience-0", "cv-workers-0", "cv-workers-neg", "timing-epochs-0",
        "timing-graphs-0"])
def test_cli_rejects_counts_below_one(tmp_path, capsys, command, flags, field):
    graphs, labels = separable_dataset(16)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    out = tmp_path / "out.csv"
    dataset = ["--dataset", str(tmp_path / "TOY")] if command == "cv" else []
    code = main([command, *dataset, *CLI_BASE[command], *flags,
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"{field} must be at least 1" in err[0]
    assert not out.exists()


def test_cli_cv_rejects_radius_zero_over_the_default_radius(tmp_path, capsys):
    # TRIANGLE has a default radius, which an explicit 0 must not fall back to
    graphs, labels = separable_dataset(16)
    save_tu_dataset(graphs, labels, tmp_path / "TRIANGLE", "TRIANGLE")
    out = tmp_path / "out.csv"
    code = main(["cv", "--dataset", str(tmp_path / "TRIANGLE"),
                 *CLI_BASE["cv"], "--radius", "0", "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "t, d and r must be positive" in err[0]
    assert not out.exists()


def test_cli_cv_default_grid_matches_its_spec_listed_twice(tmp_path):
    graphs, labels = separable_dataset(12)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    grid = tmp_path / "grid.txt"
    grid.write_text(f"{DEFAULT_GRID[0]}\n{DEFAULT_GRID[0]}\n")
    tables = []
    for name, flags in (("one", []), ("two", ["--grid-file", str(grid)])):
        out = tmp_path / f"{name}.csv"
        assert main(["cv", "--dataset", str(tmp_path / "TOY"),
                     *CLI_BASE["cv"], *flags, "--out", str(out)]) == 0
        tables.append(_without_seconds(read_results_csv(out)))
    assert len(tables[0]) == 2 and tables[0] == tables[1]


@pytest.mark.parametrize("flags,message", [
    (["--n-values", ","], "n_list is empty"),
    (["--d-values", ","], "d_list is empty"),
    (["--r-values", ","], "r_list is empty"),
    (["--spec", "layer=gin,T=1,d=4,act=relu", "--r-values", "1,2"],
     "family gin ignores the radius"),
], ids=["n-empty", "d-empty", "r-empty", "gin-radii"])
def test_cli_timing_rejects_empty_or_radius_blind_sweeps(tmp_path, capsys,
                                                         flags, message):
    out = tmp_path / "out.csv"
    code = main(["timing", *CLI_BASE["timing"], *flags, "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
    assert not out.exists()


def test_cli_deltas_rejects_empty_results(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv([], a)
    write_results_csv([], b)
    code = main(["deltas", "--a", str(a), "--b", str(b)])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "no (fold, repeat) rows" in err[0]
    assert captured.out == ""


def test_cli_deltas_reports_paired_comparison(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows([0.9, 0.8, 0.85]), a)
    write_results_csv(rows([0.6, 0.5, 0.55]), b)
    assert main(["deltas", "--a", str(a), "--b", str(b)]) == 0
    assert capsys.readouterr().out == ("mean delta +0.3000, std 0.0000 over 3 "
                                       "pairs: significant at two sigma\n")


def test_cli_timing_writes_one_row_per_cell(tmp_path, capsys):
    out = tmp_path / "timing.csv"
    code = main(["timing", "--n-values", "8", "--d-values", "2",
                 "--graphs", "2", "--epochs", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,d,r,gamma,epoch_seconds"
    assert len(lines) == 2 and lines[1].startswith("8,2,1,")
    assert capsys.readouterr().out.endswith(f"1 rows -> {out}\n")


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_script_help_exits_zero(script):
    # imports every name the script takes from the package
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
