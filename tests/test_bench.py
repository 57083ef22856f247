import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from wl2gnn import bench, cli
from wl2gnn.bench import (
    DEFAULT_RADII,
    FoldResult,
    TrainConfig,
    evaluate_model,
    foldwise_deltas,
    loglog_slope,
    read_results_csv,
    run_cv,
    scaling_study,
    stratified_folds,
    stratified_holdout,
    train_model,
    write_results_csv,
    write_timing_csv,
    _random_regular_circulant,
    _select,
)
from wl2gnn.cli import build_parser, main
from wl2gnn.graphs import (Graph, GraphError, TriangleConfig, load_tu_dataset,
                           save_tu_dataset)
from wl2gnn.layers import (ModelSpec, format_model_spec, init_model_params,
                           input_width, parse_model_spec, prepare_units)


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

def test_evaluate_model_chunking_invariant(monkeypatch):
    graphs, labels = separable_dataset(9)
    units = prepare_units(BASELINE, graphs)
    params = init_model_params(BASELINE, input_width(units), 3)
    monkeypatch.setattr(bench, "EVAL_CHUNK", 2)
    a = evaluate_model(BASELINE, params, units, labels)
    monkeypatch.setattr(bench, "EVAL_CHUNK", 256)
    b = evaluate_model(BASELINE, params, units, labels)
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
    # and counts that are not integers, in the config or the spec
    graphs, labels = separable_dataset(8)
    units = prepare_units(BASELINE, graphs)
    cases = [({}, {field: value}, f"{field} must be at least 1")
             for field in ("epochs", "batch_size") for value in (0, -1)]
    cases += [({}, {"epochs": 1.5}, "epochs must be an integer, got 1.5"),
              ({"d": 2.5}, {}, "d must be an integer, got 2.5")]
    for spec_fields, fields, message in cases:
        with pytest.raises(ValueError, match=message):
            train_model(replace(BASELINE, **spec_fields), units, labels,
                        TrainConfig(**fields), seed=0)


_COUNT_WRONG = (2.5, float("nan"), float("inf"), 0, -3, "3", None, True,
                False)
# `folds` is left to `run_cv`, which checks it against the labels
_CONFIG_WRONG = {
    **{field: _COUNT_WRONG
       for field in ("epochs", "patience", "batch_size", "repeats", "workers")},
    "seed": (-1, 1.5, float("nan"), "0", None, True, False),
    "lr_patience": (-1, 0.5, float("inf"), "2", None, True, False),
    "holdout": (0, 1, -0.5, 1.5, float("nan"), float("inf"), "0.1", None,
                True, False),
    "target_acc": (0, -0.5, 1.5, 2.0, float("nan"), float("inf"), "0.9",
                   True, False),
}
_CONFIGS = st.builds(
    TrainConfig, epochs=st.integers(1, 500), patience=st.integers(1, 100),
    batch_size=st.integers(1, 128), seed=st.integers(0, 2 ** 32),
    folds=st.integers(2, 10),
    holdout=st.floats(0, 1, exclude_min=True, exclude_max=True),
    repeats=st.integers(1, 5), workers=st.integers(1, 4),
    target_acc=st.none() | st.floats(0, 1, exclude_min=True),
    lr_patience=st.integers(0, 50))


@settings(max_examples=100, deadline=None)
@given(_CONFIGS, st.data())
def test_a_train_config_that_exists_is_valid(config, data):
    field = data.draw(st.sampled_from(sorted(_CONFIG_WRONG)))
    value = data.draw(st.sampled_from(_CONFIG_WRONG[field]))
    with pytest.raises(ValueError, match=field):
        replace(config, **{field: value})


@pytest.mark.parametrize("cls,fields", [
    (ModelSpec, {"lr": True}),
    (TrainConfig, {"target_acc": True}),
    (TriangleConfig, {"densities": (True,)}),
    (TriangleConfig, {"proportions": ((True, False),)}),
], ids=["lr", "target_acc", "densities", "proportions"])
def test_a_bool_is_no_real_setting(cls, fields):
    # each was taken as the number 1 or 0
    with pytest.raises(ValueError, match=next(iter(fields))):
        cls(**fields)


@pytest.mark.parametrize("fields,message", [
    ({"patience": 0}, "patience must be at least 1, got 0"),
    ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ({"lr_patience": -1}, "lr_patience must be a non-negative integer, "
                          "got -1"),
    ({"target_acc": float("nan")}, r"target_acc must be None or lie in "
                                   r"\(0, 1\], got nan"),
    ({"target_acc": 2.0}, r"target_acc must be None or lie in \(0, 1\], "
                          r"got 2.0"),
    # a bool is no count or seed
    ({"epochs": True}, "epochs must be an integer, got True"),
    ({"seed": False}, "seed must be a non-negative integer, got False"),
])
def test_train_config_rejects_what_training_cannot_use(fields, message):
    # before `train_model` reads it: a patience of 0 stopped after the
    # first epoch that did not improve, a negative lr_patience halved the
    # rate on each, and a target above 1 was never reached
    with pytest.raises(ValueError, match=message):
        TrainConfig(**fields)
    with pytest.raises(ValueError, match=message):
        replace(TrainConfig(), **fields)
    with pytest.raises(FrozenInstanceError):
        TrainConfig().patience = 0


def test_train_model_target_needs_a_validation_set():
    graphs, labels = separable_dataset(8)
    units = prepare_units(BASELINE, graphs)
    with pytest.raises(ValueError, match="target_acc needs a validation set"):
        train_model(BASELINE, units, labels, TrainConfig(target_acc=0.9),
                    seed=0)


def test_evaluate_model_rejects_empty_mislabelled_or_unbatched_units():
    graphs, labels = separable_dataset(6)
    units = prepare_units(BASELINE, graphs)
    params = init_model_params(BASELINE, input_width(units), 0)
    with pytest.raises(ValueError, match="units is empty"):
        evaluate_model(BASELINE, params, [], [])
    with pytest.raises(ValueError, match="3 labels for 6 units"):
        evaluate_model(BASELINE, params, units, labels[:3])


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
    for targets, target in ((1 - val_labels, None), (val_labels, 0.9)):
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


def _fold_blas_threads(cache, labels, grid, config, dataset, fold, split):
    """Stands in for `bench._run_fold` in a pool worker: one row whose
    `epochs` is the worker's OpenBLAS thread count."""
    return [FoldResult(dataset=dataset, model="m", params=0, fold=fold,
                       repeat=0, train_acc=0.0, test_acc=0.0,
                       epochs=bench._openblas_threads()[0](), seconds=0.0)]


def test_run_cv_workers_run_on_one_blas_thread(monkeypatch):
    if bench._openblas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with thread controls here")
    monkeypatch.setattr(bench, "_run_fold", _fold_blas_threads)
    graphs, labels = separable_dataset(12)
    results = run_cv(graphs, labels, [BASELINE],
                     quick_config(folds=3, repeats=1, workers=2))
    assert [r.epochs for r in results] == [1, 1, 1]


def test_run_cv_starts_at_most_one_worker_per_fold(monkeypatch):
    # the pool starts all its workers at its first task, so more workers
    # than folds would start idle processes
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    graphs, labels = separable_dataset(12)
    serial, pooled = (
        run_cv(graphs, labels, [BASELINE],
               quick_config(folds=2, repeats=1, epochs=2, workers=workers))
        for workers in (1, 8))
    assert sizes == [2]
    assert _without_seconds(pooled) == _without_seconds(serial)


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


def test_run_cv_input_validation(monkeypatch):
    # every input is checked before any unit is prepared
    monkeypatch.setattr(bench, "_unit_cache", None)
    graphs, labels = separable_dataset(8)
    with pytest.raises(ValueError):
        run_cv(graphs, labels[:-1], [BASELINE], quick_config())
    with pytest.raises(ValueError):
        run_cv(graphs, labels, [], quick_config())
    with pytest.raises(ValueError):
        run_cv(graphs, labels,
               [ModelSpec(layer="baseline", t=1, d=4, r=1, pool="min",
                          act="relu", lr=1e-2)], quick_config())
    # the loss is a binary cross-entropy, so labels are 0 or 1
    for bad, shown in ((labels * 2, r"\[0 2\]"),
                       (labels * 0.5, r"\[0. +0.5\]")):
        with pytest.raises(ValueError, match=rf"labels must be 0 or 1, "
                                             rf"got {shown}"):
            run_cv(graphs, bad, [BASELINE], quick_config(folds=2))
    for holdout in (np.nan, -1.0, 0.0, 1.0):
        with pytest.raises(ValueError, match=rf"holdout must lie in \(0, 1\), "
                                             rf"got {holdout}"):
            run_cv(graphs, labels, [BASELINE],
                   quick_config(folds=2, holdout=holdout))


def test_run_cv_rejects_counts_below_one(monkeypatch):
    # and counts that are not integers; all are checked before any unit
    # is prepared
    monkeypatch.setattr(bench, "_unit_cache", None)
    graphs, labels = separable_dataset(8)
    cases = [({field: value}, f"{field} must be at least 1")
             for field in ("epochs", "batch_size", "repeats")
             for value in (0, -1)]
    cases.append(({"folds": 2.5}, "folds must be an integer, got 2.5"))
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            run_cv(graphs, labels, [BASELINE],
                   quick_config(**{"folds": 2, **fields}))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=2),
       st.integers(0, 14), st.sampled_from([0.1, 0.25, 0.5]))
def test_run_cv_folds_are_feasible_or_rejected_up_front(counts, folds, holdout):
    """Either `run_cv` rejects the folds with its own message before any
    fold runs, or every split it passes to a fold has a non-empty test
    fold, a training fold that is the rest, and an inner set that keeps
    every class beside the holdout. Folds are checked, not run."""
    labels = np.repeat(np.arange(len(counts)), counts)
    graphs = [constant_graph(1.0)] * len(labels)
    ran = []

    def check_fold(cache, labels, grid, config, dataset, fold, split):
        test_idx, train_idx, inner_idx, held_idx, _ = split
        assert len(test_idx) > 0
        assert np.array_equal(np.sort(np.concatenate([test_idx, train_idx])),
                              np.arange(len(labels)))
        assert np.array_equal(np.sort(np.concatenate([inner_idx, held_idx])),
                              train_idx)
        assert set(labels[inner_idx].tolist()) == set(labels.tolist())
        ran.append(fold)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "_run_fold", check_fold)
        try:
            run_cv(graphs, labels, [BASELINE],
                   quick_config(folds=folds, holdout=holdout, repeats=1))
        except ValueError as exc:
            assert re.match(r"cannot split into \d+ stratified folds: |"
                            r"class \d+ has only \d+ graphs: the holdout of "
                            r"fold \d+ takes all", str(exc)), exc
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
    with pytest.raises(ValueError, match="class 0 has only 2 graphs: the "
                                         "holdout of fold 0 takes all 1 "):
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


def test_cli_cv_names_the_line_whose_attribute_width_differs(tmp_path,
                                                              capsys):
    graphs, labels = separable_dataset(12)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    # node attributes one wide, except two wide on graph 3's vertices,
    # which start on line 3 + 4 + 5 + 1
    rows = [("1.0, 2.0" if k == 3 else "1.0")
            for k, g in enumerate(graphs) for _ in range(g.n)]
    attrs = tmp_path / "TOY" / "TOY_node_attributes.txt"
    attrs.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out.csv"
    code = main(["cv", "--dataset", str(tmp_path / "TOY"), *CLI_BASE["cv"],
                 "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == [f"error: {attrs}:13: expected 1 fields, got 2"]
    assert not out.exists()


def test_read_results_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_results_csv(bad)


def _deltas_on_broken_row(tmp_path, capsys, edit):
    """Runs `wl2gnn deltas` on a good results file against a copy whose
    second data row (line 3) `edit` rewrites; returns the exit code, the
    stderr lines and the copy's path."""
    good, bad = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows([0.9, 0.8, 0.7]), good)
    lines = good.read_text().splitlines()
    lines[2] = edit(lines[2].split(","))
    bad.write_text("\n".join(lines) + "\n")
    code = main(["deltas", "--a", str(good), "--b", str(bad)])
    return code, capsys.readouterr().err.strip().splitlines(), bad


def test_deltas_exits_2_on_a_results_row_with_missing_fields(tmp_path, capsys):
    code, err, bad = _deltas_on_broken_row(
        tmp_path, capsys, lambda fields: ",".join(fields[:5]))
    assert code == 2
    assert err == [f"error: {bad}:3: expected 9 fields, got 5"]


def test_deltas_exits_2_on_a_results_row_with_an_extra_field(tmp_path, capsys):
    code, err, bad = _deltas_on_broken_row(
        tmp_path, capsys, lambda fields: ",".join(fields + ["0.5"]))
    assert code == 2
    assert err == [f"error: {bad}:3: expected 9 fields, got 10"]


def test_deltas_exits_2_on_a_results_value_of_the_wrong_type(tmp_path, capsys):
    code, err, bad = _deltas_on_broken_row(
        tmp_path, capsys, lambda fields: ",".join(fields[:2] + ["x"]
                                                  + fields[3:]))
    assert code == 2
    assert err == [f"error: {bad}:3: params must be int, got 'x'"]


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


def test_scaling_study_rows_csv_and_skips(monkeypatch, tmp_path):
    rows_n, rows_d, _, _ = scaling_study([8, 10], [2, 3], fixed_n=10,
                                         n_graphs=3, epochs=2, seed=0)
    rows = rows_n + rows_d
    assert [(r.n, r.d) for r in rows] == [(8, 2), (10, 2), (10, 2), (10, 3)]
    assert all(r.gamma > 0 and r.epoch_seconds > 0 for r in rows)
    path = tmp_path / "timing.csv"
    write_timing_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,d,r,gamma,epoch_seconds"
    assert len(lines) == 5

    def no_training(*args):
        raise AssertionError("trained before checking the cells")
    monkeypatch.setattr(bench, "_train_step", no_training)
    # an infeasible cell raises before any cell trains, naming it
    with pytest.raises(ValueError, match=r"no d-regular circulant exists for "
                                         r"the sweep cells n=9 d=3$"):
        scaling_study([8, 10], [2, 3], fixed_n=9, n_graphs=3, epochs=2, seed=0)


def test_loglog_slope_recovers_exponent():
    x = np.array([4.0, 8.0, 16.0, 32.0])
    assert loglog_slope(x, 3.7 * x ** 2.5) == pytest.approx(2.5, abs=1e-12)
    assert loglog_slope(x, np.full(4, 9.0)) == pytest.approx(0.0, abs=1e-12)
    # one point, no points, one distinct x, and non-positive x or y
    for xs, ys in (([16.0], [0.5]), ([], []), ([2.0, 2.0], [1.0, 3.0]),
                   ([0.0, 2.0], [1.0, 3.0]), ([1.0, 2.0], [1.0, -3.0]),
                   ([1.0, float("nan")], [1.0, 2.0]),
                   ([1.0, 2.0], [1.0, float("inf")])):
        with pytest.raises(ValueError, match="log-log slope") as err:
            loglog_slope(xs, ys)
        assert f"x={xs}, y={ys}" in str(err.value)


def test_scaling_study_is_its_two_sweeps(monkeypatch):
    # criterion 10's study with the steps stubbed out: every cell takes
    # one warm-up step and then its epochs, and its cells (n, d, r, gamma)
    # are pinned, since how a sweep is timed must not change what it times
    steps = []
    monkeypatch.setattr(bench, "_train_step", lambda *a: steps.append(a))
    rows_n, rows_d, slope_n, slope_d = scaling_study(
        [32, 64, 128, 256, 512], [2, 4, 8, 16], r=1, fixed_n=64, n_graphs=100,
        epochs=7, seed=0)
    assert len(steps) == 5 * (1 + 7) + 4 * (1 + 3)
    assert [(r.n, r.d, r.r, r.gamma) for r in rows_n] == [
        (32, 2, 1, 16000), (64, 2, 1, 32000), (128, 2, 1, 64000),
        (256, 2, 1, 128000), (512, 2, 1, 256000)]
    assert [(r.n, r.d, r.r, r.gamma) for r in rows_d] == [
        (64, 2, 1, 16000), (64, 4, 1, 29376), (64, 8, 1, 61696),
        (64, 16, 1, 186624)]
    # 512 / 10 keeps n = 64 and above in the top decade
    assert slope_n == loglog_slope([r.n for r in rows_n[1:]],
                                   [r.epoch_seconds for r in rows_n[1:]])
    assert slope_d == loglog_slope([r.d for r in rows_d],
                                   [r.gamma for r in rows_d])


def test_scaling_study_times_its_cells_round_robin(monkeypatch):
    # a stub step advances a fake clock by a scripted time per call: the
    # two size cells take their untimed warm-up steps, then alternate,
    # and each row reads the median of its own cell's timed steps
    now, batches = [0.0], []
    script = iter([1000.0, 1000.0, 5.0, 2.0, 1.0, 2.0, 3.0, 9.0, 100.0, 2.0])

    def step(spec, params, tensors, state, batch, y):
        batches.append(batch)
        now[0] += next(script, 1.0)
    monkeypatch.setattr(bench.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(bench, "_train_step", step)
    rows_n, _, _, _ = scaling_study([8, 16], [2, 4], fixed_n=8, n_graphs=2,
                                    epochs=4)
    first, second = batches[:2]
    assert first is not second
    assert all(b is (first, second)[k % 2] for k, b in enumerate(batches[:10]))
    assert [r.epoch_seconds for r in rows_n] == [4.0, 2.0]


def _fake_blas_threads(monkeypatch, count):
    """Stands in a counter for numpy's OpenBLAS thread controls; returns
    the current count (a one-item list) and every count set."""
    now, sets = [count], []

    def set_threads(n):
        sets.append(n)
        now[0] = n
    monkeypatch.setattr(bench, "_openblas_threads",
                        lambda: (lambda: now[0], set_threads))
    return now, sets


def test_set_blas_threads_returns_the_previous_count(monkeypatch):
    now, sets = _fake_blas_threads(monkeypatch, 4)
    assert bench._set_blas_threads(1) == 4
    assert bench._set_blas_threads(3) == 1
    assert sets == [1, 3] and now == [3]
    monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
    assert bench._set_blas_threads(1) is None


def test_scaling_study_sweeps_on_one_blas_thread(monkeypatch):
    now, sets = _fake_blas_threads(monkeypatch, 4)
    during = []
    monkeypatch.setattr(bench, "_train_step", lambda *a: during.append(now[0]))
    scaling_study([8, 16], [2, 4], fixed_n=8, n_graphs=2, epochs=2)
    assert len(during) == 2 * 3 + 2 * 4 and set(during) == {1}
    assert sets == [1, 4] and now == [4]


def test_scaling_study_restores_blas_threads_when_a_sweep_raises(monkeypatch):
    now, sets = _fake_blas_threads(monkeypatch, 3)

    def failing_step(*args):
        raise RuntimeError("step failed")
    monkeypatch.setattr(bench, "_train_step", failing_step)
    with pytest.raises(RuntimeError, match="step failed"):
        scaling_study([8, 16], [2, 4], fixed_n=8, n_graphs=2, epochs=2)
    assert sets == [1, 3] and now == [3]


def test_scaling_study_runs_without_a_bundled_openblas(monkeypatch):
    steps = []
    monkeypatch.setattr(bench, "_openblas_threads", lambda: None)
    monkeypatch.setattr(bench, "_train_step", lambda *a: steps.append(a))
    rows_n, rows_d, _, _ = scaling_study([8, 16], [2, 4], fixed_n=8,
                                         n_graphs=2, epochs=2)
    assert len(rows_n) == len(rows_d) == 2 and len(steps) == 14


def test_openblas_thread_count_round_trips():
    threads = bench._openblas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS with thread controls here")
    get, set_threads = threads
    saved = get()
    assert saved >= 1
    try:
        set_threads(1)
        assert get() == 1
    finally:
        set_threads(saved)
    assert get() == saved


@pytest.mark.parametrize("n_list,d_list,fixed_n", [
    ([1, 2], [2], 8),      # no cell of the size sweep is feasible
    ([8, 16], [8, 9], 8),  # no cell of the degree sweep is feasible
])
def test_scaling_study_rejects_infeasible_sweeps(monkeypatch, n_list, d_list,
                                                 fixed_n):
    def no_training(*args):
        raise AssertionError("trained before checking the sweeps")
    monkeypatch.setattr(bench, "_train_step", no_training)
    # both infeasible cells are named, before either sweep trains
    with pytest.raises(ValueError, match=r"no d-regular circulant exists for "
                                         r"the sweep cells n=\d+ d=\d+, "
                                         r"n=\d+ d=\d+$"):
        scaling_study(n_list, d_list, fixed_n=fixed_n, n_graphs=3, epochs=1)


@pytest.mark.parametrize("n_list,d_list,fixed_n,message", [
    ([16.5, 32], [2, 4], 64, "n_list must be an integer, got 16.5"),
    ([16, 32], [2, 4.5], 64, "d_list must be an integer, got 4.5"),
    ([16, 32], [2, 4], 20.5, "fixed_n must be an integer, got 20.5"),
])
def test_scaling_study_rejects_sizes_that_are_not_integers(
        monkeypatch, n_list, d_list, fixed_n, message):
    def no_training(*args):
        raise AssertionError("trained before checking the sizes")
    monkeypatch.setattr(bench, "_train_step", no_training)
    with pytest.raises(ValueError, match=message):
        scaling_study(n_list, d_list, fixed_n=fixed_n, n_graphs=3, epochs=1)


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
def test_cli_rejects_counts_below_one(tmp_path, capsys, monkeypatch, command,
                                      flags, field):
    # `cv` checks its flags before it loads the dataset
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the dataset before checking the flags")
    monkeypatch.setattr(cli, "load_tu_dataset", no_loading)
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


def test_cli_cv_flags_default_to_train_config():
    fields = ("seed", "epochs", "patience", "batch_size", "folds", "repeats",
              "workers")
    base = ["cv", "--dataset", "D", "--out", "O"]
    args = build_parser().parse_args(base)
    assert TrainConfig(**{f: getattr(args, f) for f in fields}) == TrainConfig()
    assert build_parser().parse_args(base + ["--batch-size", "8"]).batch_size \
        == 8


def test_cli_cv_default_grid_matches_its_spec_listed_twice(tmp_path):
    # TOY has no default radius, so the default spec runs at r=1
    graphs, labels = separable_dataset(12)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    grid = tmp_path / "grid.txt"
    spec = format_model_spec(replace(ModelSpec(), r=1))
    grid.write_text(f"{spec}\n{spec}\n")
    tables = []
    for name, flags in (("one", []), ("two", ["--grid-file", str(grid)])):
        out = tmp_path / f"{name}.csv"
        assert main(["cv", "--dataset", str(tmp_path / "TOY"),
                     *CLI_BASE["cv"], *flags, "--out", str(out)]) == 0
        tables.append(_without_seconds(read_results_csv(out)))
    assert len(tables[0]) == 2 and tables[0] == tables[1]


def test_cli_cv_runs_each_spec_at_the_radius_it_states(tmp_path):
    # DD's default radius is 2: it sets the default spec's r, and no
    # grid line's
    graphs, labels = separable_dataset(12)
    for name in ("DD", "TOY"):
        save_tu_dataset(graphs, labels, tmp_path / name, name)
    grid = tmp_path / "grid.txt"
    lines = [f"layer=wl2,T=1,d=4,r={r},pool=mean,act=relu,lr=0.01"
             for r in (1, 3)]
    grid.write_text("\n".join(lines) + "\n")

    def models(name, *flags):
        out = tmp_path / f"{name}-{len(flags)}.csv"
        assert main(["cv", "--dataset", str(tmp_path / name), *CLI_BASE["cv"],
                     *flags, "--out", str(out)]) == 0
        return {row.model for row in read_results_csv(out)}

    stated = {format_model_spec(parse_model_spec(ln)) for ln in lines}
    assert models("DD", "--grid-file", str(grid)) <= stated
    for name, r in (("DD", 2), ("TOY", 1)):
        assert models(name) == {format_model_spec(replace(ModelSpec(), r=r))}


@pytest.mark.parametrize("command", ["cv", "timing"])
def test_cli_checks_the_out_directory_before_it_runs(tmp_path, capsys,
                                                      monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --out")
    for module, name in ((cli, "load_tu_dataset"), (bench, "train_model"),
                         (bench, "_train_step")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "missing" / "out.csv"
    dataset = ["--dataset", str(tmp_path / "TOY")] if command == "cv" else []
    code = main([command, *dataset, *CLI_BASE[command], "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == [f"error: cannot write {out}: directory {out.parent} does "
                   "not exist"]
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["cv", "timing"])
def test_cli_rejects_an_out_path_that_is_a_directory(tmp_path, capsys,
                                                     monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before checking --out")
    for name in ("train_model", "_train_step"):
        monkeypatch.setattr(bench, name, no_work)
    graphs, labels = separable_dataset(12)
    save_tu_dataset(graphs, labels, tmp_path / "TOY", "TOY")
    out = tmp_path / "adir"
    out.mkdir()
    dataset = ["--dataset", str(tmp_path / "TOY")] if command == "cv" else []
    code = main([command, *dataset, *CLI_BASE[command], "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == [f"error: cannot write {out}: it is a directory"]


def test_cli_gen_triangle_makes_its_directory_before_it_generates(
        tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("generated before making --out-dir")
    monkeypatch.setattr(cli, "generate_triangle_dataset", no_work)
    afile = tmp_path / "afile"
    afile.write_text("")
    code = main(["gen-triangle", "--seed", "7", "--out-dir", str(afile)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"Not a directory: '{afile / 'TRIANGLE'}'" in err[0]


@pytest.mark.parametrize("name", ["", ".", "..", os.path.join("a", "b")],
                         ids=["empty", "dot", "dot-dot", "separator"])
def test_cli_gen_triangle_rejects_a_name_cv_cannot_read(tmp_path, capsys,
                                                        monkeypatch, name):
    # `cv --dataset` reads <dir>/<basename of dir>_A.txt, which none of
    # these names writes
    def no_work(*args, **kwargs):
        raise AssertionError("generated before checking --name")
    monkeypatch.setattr(cli, "generate_triangle_dataset", no_work)
    out_dir = tmp_path / "out"
    code = main(["gen-triangle", "--seed", "7", "--out-dir", str(out_dir),
                 "--name", name])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert err == ["error: --name must name one directory, without a path "
                   f"separator, got {name!r}"]
    assert not out_dir.exists()


def test_cli_cv_names_the_dataset_by_the_directory_it_reads(tmp_path,
                                                             monkeypatch):
    # `.` inside DD reads DD's files, so it names the rows and picks the
    # default radius as `DD` does
    graphs, labels = separable_dataset(12)
    save_tu_dataset(graphs, labels, tmp_path / "DD", "DD")
    monkeypatch.chdir(tmp_path / "DD")
    out = tmp_path / "out.csv"
    assert main(["cv", "--dataset", ".", *CLI_BASE["cv"], "--out",
                 str(out)]) == 0
    results = read_results_csv(out)
    assert {(r.dataset, r.model) for r in results} == {
        ("DD", format_model_spec(replace(ModelSpec(), r=DEFAULT_RADII["DD"])))}


@pytest.mark.parametrize("grid,message", [
    (None, "No such file or directory"),
    ("layer=wl2,T\n", "malformed spec field 'T'"),
    ("# no specs\n\n", "empty model grid"),
    ("layer=wl2,pool=min\n", "min pooling is a demonstration mode"),
    ("layer=wl2,d=x\n", "spec field d must be int, got 'x'"),
    ("layer=wl2,r=0\n", "r must be at least 1, got 0"),
    ("layer=wl2,lr=nan\n", "lr must be positive and finite, got nan"),
    ("layer=wl2,lr=inf\n", "lr must be positive and finite, got inf"),
    ("layer=wl2,d=4,d=8\n", "spec field d is given twice"),
    ("layer=wl2,T=3,t=4\n", "spec field t is given twice"),
], ids=["missing", "malformed", "empty", "min-pool", "bad-value",
        "radius-zero", "lr-nan", "lr-inf", "repeated-field", "t-and-T"])
def test_cli_cv_checks_the_grid_before_the_dataset(tmp_path, capsys,
                                                    monkeypatch, grid,
                                                    message):
    def no_loading(*args, **kwargs):
        raise AssertionError("loaded the dataset before reading the grid")
    monkeypatch.setattr(cli, "load_tu_dataset", no_loading)
    path = tmp_path / "grid.txt"
    if grid is not None:
        path.write_text(grid)
    out = tmp_path / "out.csv"
    # TRIANGLE has a default radius, which a grid's r=0 must not fall back to
    code = main(["cv", "--dataset", str(tmp_path / "TRIANGLE"),
                 "--grid-file", str(path), "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--n-values", ","], "n_list is empty"),
    (["--d-values", ","], "d_list is empty"),
    (["--n-values", "32,512"], "n_list=[32, 512] has fewer than two distinct "
                               "sizes of at least max/10 to fit a slope to"),
    (["--n-values", "64,64"], "n_list=[64, 64] has fewer than two distinct "
                              "sizes of at least max/10"),
    (["--n-values", "8,16", "--d-values", "4"],
     "d_list=[4] has fewer than two distinct degrees to fit a slope to"),
], ids=["n-empty", "d-empty", "n-one-decade-point", "n-repeated", "d-one"])
def test_cli_timing_rejects_empty_or_radius_blind_sweeps(tmp_path, capsys,
                                                         monkeypatch, flags,
                                                         message):
    # either list fails before the size sweep trains a single epoch
    steps = []
    monkeypatch.setattr(bench, "_train_step", lambda *a: steps.append(a))
    out = tmp_path / "out.csv"
    code = main(["timing", *CLI_BASE["timing"], *flags, "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
    assert not out.exists() and not steps


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


TIMING_SMALL = ["--n-values", "8,16", "--d-values", "2,4", "--fixed-n", "8",
                "--graphs", "3", "--epochs", "1"]


def test_cli_timing_writes_one_row_per_cell(tmp_path, capsys):
    out = tmp_path / "timing.csv"
    assert main(["timing", *TIMING_SMALL, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,d,r,gamma,epoch_seconds"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["8", "2", "1"], ["16", "2", "1"], ["8", "2", "1"], ["8", "4", "1"]]
    stdout = capsys.readouterr().out
    assert "\nepoch-time slope over the top decade: " in stdout
    assert "\ngamma slope in d: " in stdout
    assert stdout.endswith(f"4 rows -> {out}\n")


def test_timing_sweep_runs_end_to_end(tmp_path):
    # the scaling study as a shell runs it: a fresh interpreter on an
    # uninstalled checkout, with the slopes on stdout and the CSV on disk
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = tmp_path / "timing.csv"
    proc = subprocess.run([sys.executable, "-m", "wl2gnn.cli", "timing",
                           *TIMING_SMALL, "--out", str(out)],
                          capture_output=True, text=True, timeout=120,
                          env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert "\nepoch-time slope over the top decade: " in proc.stdout
    assert "\ngamma slope in d: " in proc.stdout
    assert len(out.read_text().strip().splitlines()) == 5


@pytest.mark.parametrize("command,flags,message", [
    ("timing", ["--n-values", "16", "--graphs", "3", "--epochs", "1"],
     "n_list=[16] has fewer than two distinct sizes of at least max/10"),
    ("triangle", ["--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
    ("timing", ["--n-values", "8,x"],
     "--n-values takes comma separated integers, got '8,x'"),
    ("timing", ["--d-values", "2.5"],
     "--d-values takes comma separated integers, got '2.5'"),
    ("cv", ["--dataset", "unused", "--seed", "-1", "--out", "unused.csv"],
     "--seed must be a non-negative integer, got -1"),
    ("timing", ["--fixed-n", "0", "--n-values", "8,16", "--d-values", "2,4",
                "--graphs", "3", "--epochs", "1"],
     "no d-regular circulant exists for the sweep cells n=0 d=2, n=0 d=4"),
], ids=["timing-one-point", "triangle-negative-seed", "timing-bad-n-value",
        "timing-bad-d-value", "cv-negative-seed",
        "timing-infeasible-cells"])
def test_cli_experiments_reject_bad_input(capsys, command, flags, message):
    assert main([command, *flags]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]


def _not_an_integer(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# text that `int` refuses, without the list separator
_NOT_INTEGER = st.text(alphabet="5x.e-+ _", max_size=4).filter(_not_an_integer)
_COUNT = st.one_of(_NOT_INTEGER, st.integers(max_value=0).map(str))
_SEED = st.one_of(_NOT_INTEGER, st.integers(max_value=-1).map(str))
# every subcommand flag that takes a value, with wrong values for it:
# paths name an entry of `_argv_files`' directory
_WRONG_VALUES = {
    "cv": {
        "--dataset": st.sampled_from(["missing", "afile"]),
        "--grid-file": st.sampled_from(["missing", "adir"]),
        "--out": st.sampled_from(["missing/out.csv", "adir"]),
        "--seed": _SEED,
        **{flag: _COUNT for flag in ("--epochs", "--patience", "--batch-size",
                                     "--folds", "--repeats", "--workers")}},
    "timing": {
        # no circulant: n below 3 at degree 2, d above 63 at n = 64
        "--n-values": st.one_of(
            st.sampled_from(["", ","]), _NOT_INTEGER.map("8,{}".format),
            st.integers(max_value=2).map("8,16,{}".format)),
        "--d-values": st.one_of(
            st.sampled_from(["", ","]), _NOT_INTEGER.map("2,{}".format),
            st.one_of(st.integers(max_value=0), st.integers(64, 10 ** 6))
            .map("2,{}".format)),
        **{flag: _COUNT for flag in ("--fixed-n", "--graphs", "--epochs",
                                     "--radius")},
        "--seed": _SEED,
        "--out": st.sampled_from(["missing/out.csv", "adir"])},
    "triangle": {"--seed": _SEED},
    "deltas": {"--a": st.sampled_from(["missing", "adir"]),
               "--b": st.sampled_from(["missing", "adir"])},
    "gen-triangle": {
        "--seed": _SEED,
        "--out-dir": st.sampled_from(["afile", "afile/sub"]),
        "--name": st.one_of(st.sampled_from(["", ".", ".."]), st.tuples(
            st.text("ab.", max_size=2), st.text("ab.", max_size=2))
            .map(os.sep.join))},
}
_PATH_FLAGS = {"--dataset", "--grid-file", "--out", "--a", "--b", "--out-dir"}
# the other flags of each run: small, valid, and enough to start work
_VALID_FLAGS = {
    "cv": {"--dataset": "TOY", "--out": "out.csv", "--folds": "2",
           "--repeats": "1", "--epochs": "1"},
    "timing": {"--n-values": "8,16", "--d-values": "2,4", "--fixed-n": "8",
               "--graphs": "3", "--epochs": "1"},
    "triangle": {},
    "deltas": {"--a": "a.csv", "--b": "b.csv"},
    "gen-triangle": {"--seed": "7", "--out-dir": "gen"},
}


@st.composite
def _one_wrong_flag(draw):
    command = draw(st.sampled_from(sorted(_WRONG_VALUES)))
    flag = draw(st.sampled_from(sorted(_WRONG_VALUES[command])))
    return command, flag, draw(_WRONG_VALUES[command][flag])


def _argv_files(tmp):
    """Makes the entries that valid and wrong paths name, once per test."""
    if not (tmp / "TOY").exists():
        graphs, labels = separable_dataset(12)
        save_tu_dataset(graphs, labels, tmp / "TOY", "TOY")
        for name in ("a.csv", "b.csv"):
            write_results_csv(rows([0.9, 0.8]), tmp / name)
        (tmp / "afile").write_text("")
        (tmp / "adir").mkdir()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_one_wrong_flag())
def test_cli_exits_2_on_one_wrong_flag_before_any_work(tmp_path, capsys,
                                                       monkeypatch, case):
    command, flag, wrong = case
    _argv_files(tmp_path)
    flags = {**_VALID_FLAGS[command], flag: wrong}
    argv = [command] + [
        f"{f}={tmp_path / v if f in _PATH_FLAGS else v}"
        for f, v in flags.items()]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{argv} started work")

    def load_for_folds(path):
        # `run_cv` checks --folds against the labels
        if flag != "--folds":
            no_work()
        return load_tu_dataset(path)
    monkeypatch.setattr(cli, "load_tu_dataset", load_for_folds)
    for target in ("wl2gnn.graphs._sample_triangle_graph",
                   "wl2gnn.bench.train_model", "wl2gnn.bench._sweep_rows"):
        monkeypatch.setattr(target, no_work)
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, argv
    assert [ln for ln in err.splitlines() if "error:" in ln] == \
        err.strip().splitlines()[-1:], err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "gen").exists()


def test_readme_command_lines_parse():
    # every `wl2gnn` line of README's code blocks, less its trailing
    # comment, is a command line the parser takes
    root = Path(__file__).resolve().parents[1]
    fenced, commands = False, []
    for line in (root / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("wl2gnn "):
            commands.append(line)
    assert len(commands) >= 5
    parser = build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def _run_block(source, namespace):
    """Runs a code block in `namespace` and returns the value of each of
    its expression statements, in order."""
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    return values


def test_readme_quickstart_gives_the_values_its_comments_state():
    # README's first two python blocks run, and each commented value
    # holds: the refinement verdicts, then min pooling on C6 and on the
    # two triangles (the second block run again with c6 bound to cc)
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md")
                        .read_text(), re.MULTILINE | re.DOTALL)
    namespace = {}
    assert _run_block(blocks[0], namespace) == [False, True]
    for name, value in (("c6", [[4.0]]), ("cc", [[6.0]])):
        pooled = _run_block(blocks[1], {**namespace, "c6": namespace[name]})
        assert pooled[-1].tolist() == value


def _subcommands():
    return sorted(next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("command", _subcommands())
def test_subcommand_help_exits_zero(command):
    # a fresh interpreter imports every name the command line takes from
    # the package, as an uninstalled checkout runs it
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "wl2gnn.cli", command,
                           "--help"], capture_output=True, text=True,
                          timeout=120, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
