"""Benchmark harness: training, cross-validation, timing, comparisons.

Evaluation protocol: stratified outer k-fold CV. Within each training
fold a stratified 90/10 holdout drives grid selection (ties go to the
earliest grid entry); selection runs only for grids of more than one
spec, since a one-spec grid has nothing to choose. The winner is
retrained on the full training fold with early stopping on holdout loss
and the best epoch's weights restored, repeated with distinct seeds.
Test folds are touched exactly once per repeat, after all selection and
training is done; the helpers below never see test indices. Evaluation
runs without an autodiff graph (`tensor.no_graph`).

Training is Adam on binary cross-entropy over logits, minibatched with
a fixed batch size (full-batch when the fold fits in one batch).
"""

from __future__ import annotations

import csv
import ctypes
import glob
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import tensor as T
from .graphs import circulant_graph
from .layers import (ModelSpec, combine_units, format_model_spec,
                     forward_model, init_model_params, input_width,
                     prepare_units, validate_model_spec)

RESULT_COLUMNS = ("dataset", "model", "params", "fold", "repeat",
                  "train_acc", "test_acc", "epochs", "seconds")

# power radii that keep the encodings of the common corpora tractable
DEFAULT_RADII = {"TRIANGLE": 2, "NCI1": 8, "PROTEINS": 5, "DD": 2,
                 "REDDIT-B": 1, "IMDB-B": 4}


@dataclass
class TrainConfig:
    epochs: int = 200
    patience: int = 20
    batch_size: int = 32
    seed: int = 0
    folds: int = 10
    holdout: float = 0.1
    repeats: int = 3
    workers: int = 1
    # stop as soon as validation accuracy reaches this (None: never check)
    target_acc: float | None = None
    # halve the learning rate whenever the validation loss has not
    # improved for lr_patience epochs; 0 disables the schedule
    lr_patience: int = 0


@dataclass
class FoldResult:
    dataset: str
    model: str
    params: int
    fold: int
    repeat: int
    train_acc: float
    test_acc: float
    epochs: int
    seconds: float


@dataclass
class TrainedModel:
    params: object
    epochs: int
    seconds: float
    # validation loss and accuracy of `params`; None without a validation set
    val_loss: float | None = None
    val_acc: float | None = None


def stratified_folds(labels, k, rng):
    """Deals each class round-robin into k folds after a shuffle."""
    labels = np.asarray(labels)
    folds = [[] for _ in range(k)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.asarray(sorted(f), dtype=np.int64) for f in folds]


def stratified_holdout(indices, labels, fraction, rng):
    """Splits indices into (rest, held) keeping at least one held
    example per class."""
    indices = np.asarray(indices)
    labels = np.asarray(labels)
    held = []
    for cls in np.unique(labels[indices]):
        idx = indices[labels[indices] == cls]
        idx = idx.copy()
        rng.shuffle(idx)
        take = max(1, int(round(fraction * len(idx))))
        held.extend(idx[:take].tolist())
    held = np.asarray(sorted(held), dtype=np.int64)
    return np.setdiff1d(indices, held), held


def _require_positive(**counts):
    """Raises `ValueError` naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _select(units, idx):
    return [units[i] for i in idx]


def _require_labelled(units, labels, name):
    """Raises `ValueError` unless there is at least one unit and exactly
    one label per unit."""
    if len(units) == 0:
        raise ValueError(f"{name} is empty")
    if len(labels) != len(units):
        raise ValueError(f"{len(labels)} labels for {len(units)} {name}")


# graphs per evaluation chunk, the default training batch: a larger
# chunk's pair-scatter temporaries set the process's peak memory
EVAL_CHUNK = 32


def evaluate_model(spec, params, units, labels):
    """Full-dataset loss and accuracy, computed in chunks of `EVAL_CHUNK`
    graphs without an autodiff graph."""
    _require_labelled(units, labels, "units")
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    with T.no_graph():
        logits = np.concatenate([
            forward_model(spec, params, combine_units(
                spec, units[lo:lo + EVAL_CHUNK])).data
            for lo in range(0, len(units), EVAL_CHUNK)])
        loss = T.bce(T.constant(logits), labels)
    correct = int(np.sum((logits > 0.0) == (labels > 0.5)))
    return float(loss.data[0, 0]), correct / len(units)


def _train_step(spec, params, tensors, state, batch, y):
    """One Adam step on the batch's binary cross-entropy; returns the
    loss as a float, so that no caller keeps the step's graph alive."""
    T.zero_grads(tensors)
    loss = T.bce(forward_model(spec, params, batch), y)
    T.backward(loss)
    T.adam_step(state, tensors)
    return float(loss.data[0, 0])


def train_model(spec, units, labels, config, seed,
                val_units=None, val_labels=None):
    """Trains one model, scoring it once per epoch on the validation set
    if one is given: stops with the current weights once the accuracy
    reaches `config.target_acc`, else early-stops on the loss and
    restores the best epoch's weights. Returns them with their score.
    A non-finite training or validation loss raises `ValueError`."""
    validate_model_spec(spec)
    _require_positive(epochs=config.epochs, batch_size=config.batch_size)
    _require_labelled(units, labels, "units")
    if val_units is not None:
        _require_labelled(val_units, val_labels, "val_units")
    if config.target_acc is not None and val_units is None:
        raise ValueError("target_acc needs a validation set")
    labels = np.asarray(labels, dtype=np.float64)
    params = init_model_params(spec, input_width(units), seed)
    tensors = params.tensors()
    state = T.AdamState.for_params(tensors, spec.lr)
    rng = np.random.default_rng([seed, 0x5eed])
    start = time.perf_counter()
    # kept: the validation score of the weights to return
    kept, snapshot, bad, ran = (None, None), None, 0, 0
    for epoch in range(1, config.epochs + 1):
        ran = epoch
        order = rng.permutation(len(units))
        for lo in range(0, len(order), config.batch_size):
            sel = order[lo:lo + config.batch_size]
            loss = _train_step(spec, params, tensors, state,
                               combine_units(spec, _select(units, sel)),
                               labels[sel].reshape(-1, 1))
            if not np.isfinite(loss):
                raise ValueError(f"non-finite training loss in epoch {epoch}, "
                                 f"batch {lo // config.batch_size + 1}")
        if val_units is None:
            continue
        score = evaluate_model(spec, params, val_units, val_labels)
        if not np.isfinite(score[0]):
            raise ValueError(f"non-finite validation loss in epoch {epoch}")
        if config.target_acc is not None and score[1] >= config.target_acc:
            kept, snapshot = score, None  # current weights hit the target
            break
        if kept[0] is None or score[0] < kept[0] - 1e-12:
            kept, snapshot, bad = score, [t.data.copy() for t in tensors], 0
        else:
            bad += 1
            if bad >= config.patience:
                break
            if config.lr_patience and bad % config.lr_patience == 0:
                state.lr *= 0.5
    if snapshot is not None:
        for t, saved in zip(tensors, snapshot):
            t.data = saved
    return TrainedModel(params, ran, time.perf_counter() - start, *kept)


def _unit_key(spec):
    """Specs with the same key share their prepared units."""
    return spec.layer, spec.r


def _unit_cache(grid, graphs):
    cache = {}
    for spec in grid:
        if _unit_key(spec) not in cache:
            cache[_unit_key(spec)] = prepare_units(spec, graphs)
    return cache


def _select_spec(cache, labels, grid, config, inner_idx, held_idx, rng):
    """The grid spec with the best holdout accuracy after training on the
    inner split; the earliest wins ties."""
    best_spec, best_acc = None, -1.0
    for spec in grid:
        units = cache[_unit_key(spec)]
        trained = train_model(spec, _select(units, inner_idx),
                              labels[inner_idx], config,
                              seed=int(rng.integers(2 ** 31)),
                              val_units=_select(units, held_idx),
                              val_labels=labels[held_idx])
        if trained.val_acc > best_acc:
            best_spec, best_acc = spec, trained.val_acc
    return best_spec


def _run_fold(cache, labels, grid, config, dataset, fold, split):
    """Selection and repeated retraining for one outer fold's split. Sees
    the test fold only for the single final evaluation per repeat."""
    test_idx, train_idx, inner_idx, held_idx, rng = split
    # a one-spec grid has nothing to select
    best_spec = grid[0] if len(grid) == 1 else _select_spec(
        cache, labels, grid, config, inner_idx, held_idx, rng)
    units = cache[_unit_key(best_spec)]
    train, held, test = (_select(units, idx)
                         for idx in (train_idx, held_idx, test_idx))
    results = []
    for repeat in range(config.repeats):
        repeat_rng = np.random.default_rng([config.seed, fold, repeat])
        trained = train_model(best_spec, train, labels[train_idx], config,
                              seed=int(repeat_rng.integers(2 ** 31)),
                              val_units=held, val_labels=labels[held_idx])
        _, train_acc = evaluate_model(best_spec, trained.params, train,
                                      labels[train_idx])
        _, test_acc = evaluate_model(best_spec, trained.params, test,
                                     labels[test_idx])
        results.append(FoldResult(
            dataset=dataset, model=format_model_spec(best_spec),
            params=trained.params.n_params(), fold=fold, repeat=repeat,
            train_acc=train_acc, test_acc=test_acc,
            epochs=trained.epochs, seconds=trained.seconds))
    return results


def check_grid(grid):
    """The grid's specs, validated; raises `ValueError` for an empty grid
    or a spec with min pooling."""
    grid = [validate_model_spec(s) for s in grid]
    if not grid:
        raise ValueError("empty model grid")
    for spec in grid:
        if spec.pool == "min":
            raise ValueError("min pooling is a demonstration mode, "
                             "not part of the training grid")
    return grid


def run_cv(graphs, labels, grid, config, dataset="dataset", out_path=None):
    """Full cross-validation; returns FoldResults sorted by
    (fold, repeat) regardless of worker count. Every fold's split is
    built and checked before any unit is prepared."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(graphs) != len(labels):
        raise ValueError("graphs and labels differ in length")
    _require_positive(epochs=config.epochs, batch_size=config.batch_size,
                      repeats=config.repeats, patience=config.patience,
                      workers=config.workers)
    grid = check_grid(grid)
    # more folds than a class has graphs leaves test folds without that
    # class, or empty
    smallest = min(np.unique(labels, return_counts=True)[1], default=0)
    if not 2 <= config.folds <= smallest:
        raise ValueError(f"cannot split into {config.folds} stratified folds: "
                         f"need at least 2 and at most the smallest class "
                         f"count ({smallest})")
    # the fold's own generator draws the holdout, even for a one-spec grid
    # (retraining early-stops on it), and then the selection seeds
    splits = []
    for fold, test_idx in enumerate(stratified_folds(
            labels, config.folds, np.random.default_rng(config.seed))):
        train_idx = np.setdiff1d(np.arange(len(labels)), test_idx)
        rng = np.random.default_rng([config.seed, fold])
        inner_idx, held_idx = stratified_holdout(train_idx, labels,
                                                 config.holdout, rng)
        lost = np.setdiff1d(labels[train_idx], labels[inner_idx])
        if lost.size:
            cls = lost[0]
            raise ValueError(
                f"class {cls} has only {np.sum(labels == cls)} graphs: the "
                f"holdout of fold {fold} takes all "
                f"{np.sum(labels[train_idx] == cls)} that its training fold "
                "keeps, leaving none to train on")
        splits.append((test_idx, train_idx, inner_idx, held_idx, rng))
    # units are prepared once and shipped to the workers
    fold_task = partial(_run_fold, _unit_cache(grid, graphs), labels, grid,
                        config, dataset)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_fold = list(pool.map(fold_task, range(config.folds), splits))
    else:
        per_fold = list(map(fold_task, range(config.folds), splits))
    results = sorted((r for rows in per_fold for r in rows),
                     key=lambda r: (r.fold, r.repeat))
    if out_path is not None:
        write_results_csv(results, out_path)
    return results


# ---------------------------------------------------------------------------
# triangle experiment


def triangle_experiment(graphs, labels, seeds, split_seed, train_fraction):
    """Pair convolutions against GIN and a structure-blind baseline.

    One stratified split keeps `train_fraction` of the graphs for
    training and tests on the rest: the comparison is architectural, so
    a large, low-variance test side matters more than training set
    size. Each family is trained once per seed, validated on its
    training set, so the validation accuracy is the training accuracy.
    Returns a dict from family to one (train accuracy, test accuracy,
    TrainedModel) per seed.
    """
    labels = np.asarray(labels)
    test_idx, train_idx = stratified_holdout(
        np.arange(len(graphs)), labels, train_fraction,
        np.random.default_rng(split_seed))
    tr_y, te_y = labels[train_idx], labels[test_idx]
    runs = {}
    # the pair model stops as soon as it fits, the vertex models run
    # their whole epoch budget
    for layer, epochs, target in (("wl2", 400, 0.95), ("gin", 200, None),
                                  ("baseline", 200, None)):
        spec = ModelSpec(layer=layer, t=3, d=32, r=2, pool="mean", act="relu",
                         lr=1e-2)
        units = prepare_units(spec, graphs)
        tr_u, te_u = _select(units, train_idx), _select(units, test_idx)
        config = TrainConfig(epochs=epochs, patience=10 ** 6, batch_size=32,
                             target_acc=target, lr_patience=40)
        runs[layer] = []
        for seed in seeds:
            trained = train_model(spec, tr_u, tr_y, config, seed,
                                  val_units=tr_u, val_labels=tr_y)
            _, te_acc = evaluate_model(spec, trained.params, te_u, te_y)
            runs[layer].append((trained.val_acc, te_acc, trained))
    return runs


# ---------------------------------------------------------------------------
# results interchange


def write_results_csv(results, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in results:
            writer.writerow([r.dataset, r.model, r.params, r.fold, r.repeat,
                             f"{r.train_acc:.6f}", f"{r.test_acc:.6f}",
                             r.epochs, f"{r.seconds:.6f}"])


def read_results_csv(path):
    results = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != RESULT_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        for row in reader:
            results.append(FoldResult(
                dataset=row["dataset"], model=row["model"],
                params=int(row["params"]), fold=int(row["fold"]),
                repeat=int(row["repeat"]),
                train_acc=float(row["train_acc"]),
                test_acc=float(row["test_acc"]),
                epochs=int(row["epochs"]), seconds=float(row["seconds"])))
    return results


@dataclass
class DeltaReport:
    deltas: np.ndarray
    mean: float
    std: float
    significant: bool


def foldwise_deltas(results_a, results_b):
    """Paired test-accuracy deltas (a minus b) matched on (fold, repeat),
    with a two-sigma significance call. Mismatched fold structures are
    rejected."""
    by_key_a = {(r.fold, r.repeat): r for r in results_a}
    by_key_b = {(r.fold, r.repeat): r for r in results_b}
    if len(by_key_a) != len(results_a) or len(by_key_b) != len(results_b):
        raise ValueError("duplicate (fold, repeat) rows")
    if by_key_a.keys() != by_key_b.keys():
        raise ValueError("fold structures do not match")
    if not by_key_a:
        raise ValueError("no (fold, repeat) rows to compare")
    keys = sorted(by_key_a)
    deltas = np.asarray([by_key_a[k].test_acc - by_key_b[k].test_acc
                         for k in keys])
    mean = float(deltas.mean())
    std = float(deltas.std())
    return DeltaReport(deltas=deltas, mean=mean, std=std,
                       significant=abs(mean) > 2 * std)


# ---------------------------------------------------------------------------
# timing harness


@dataclass
class TimingRow:
    n: int
    d: int
    r: int
    gamma: int
    epoch_seconds: float


def _circulant_feasible(n, d):
    """Whether some offset set makes a circulant graph on n vertices
    d-regular: d // 2 offsets below n / 2, and for odd d the antipodal
    offset n / 2, which needs an even n. Draws nothing."""
    return d >= 1 and (n - 1) // 2 >= d // 2 and not (d % 2 and n % 2)


def _random_regular_circulant(rng, n, d):
    """Random circulant graph with every vertex of degree exactly d, or
    None when no offset set can achieve it."""
    if not _circulant_feasible(n, d):
        return None
    offsets = list(rng.choice(np.arange(1, (n - 1) // 2 + 1), size=d // 2,
                              replace=False))
    return circulant_graph(n, offsets + [n // 2] * (d % 2))


def write_timing_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "d", "r", "gamma", "epoch_seconds"))
        for r in rows:
            writer.writerow([r.n, r.d, r.r, r.gamma, f"{r.epoch_seconds:.9f}"])


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x); needs two distinct
    x and positive x and y."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if len(np.unique(x)) < 2 or np.any(x <= 0) or np.any(y <= 0):
        raise ValueError(f"cannot fit a log-log slope to x={x.tolist()}, "
                         f"y={y.tolist()}: it needs two distinct x and "
                         "positive x and y")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _sweep_rows(spec, cells, n_graphs, epochs, seed):
    """Times full-batch training epochs of `spec` on each (n, d) cell's
    `n_graphs` random d-regular circulant graphs. Every cell is prepared
    and warmed up by one untimed step first; then the cells step in turn,
    so that a drift in host speed reaches them alike, and a row reads the
    median of its cell's steps."""
    cells_run = []
    for n, d in cells:
        rng = np.random.default_rng([seed, n, d, spec.r])
        graphs = [_random_regular_circulant(rng, n, d)
                  for _ in range(n_graphs)]
        labels = rng.integers(0, 2, size=n_graphs).astype(np.float64)
        units = prepare_units(spec, graphs)
        batch = combine_units(spec, units)
        params = init_model_params(spec, input_width(units), seed)
        tensors = params.tensors()
        step = partial(_train_step, spec, params, tensors,
                       T.AdamState.for_params(tensors, spec.lr), batch,
                       labels.reshape(-1, 1))
        step()
        cells_run.append((n, d, batch.gamma, step, []))
    for _ in range(epochs):
        for *_, step, seconds in cells_run:
            start = time.perf_counter()
            step()
            seconds.append(time.perf_counter() - start)
    return [TimingRow(n=n, d=d, r=spec.r, gamma=gamma,
                      epoch_seconds=float(np.median(seconds)))
            for n, d, gamma, _, seconds in cells_run]


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles in `numpy.libs/` (`scipy_openblas_*_num_threads`, with or
    without the 64-bit `64_` suffix), or None where that library or
    those symbols are absent, as on another BLAS build."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Runs the block with numpy's bundled OpenBLAS on one thread, so
    that a CPU-bound neighbour slows every cell alike, and restores the
    previous count afterwards, an exception included. A no-op where
    `_openblas_threads` finds no such library."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def scaling_study(n_list, d_list, r=1, fixed_n=64, n_graphs=100, epochs=100,
                  seed=0):
    """The scaling study of a one-layer wl2 model at radius r: epoch time
    against n over `n_list` at degree 2, fitted over the top decade of n
    (about linear), and gamma against d over `d_list` at `fixed_n`
    (bounded by d^{2r}); that sweep needs only gamma, so it runs half the
    graphs, at least 10, for 3 epochs. Returns (size rows, degree rows,
    slope in n, slope in d). Bad counts, empty lists, cells without a
    d-regular circulant and lists that leave a fit fewer than two distinct
    x raise `ValueError` before either sweep runs. Both sweeps run with
    numpy's bundled OpenBLAS on one thread (`_one_blas_thread`)."""
    spec = validate_model_spec(ModelSpec(layer="wl2", t=1, d=8, r=r))
    _require_positive(n_graphs=n_graphs, epochs=epochs)
    for name, values in (("n_list", n_list), ("d_list", d_list)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty")
    size_cells = [(n, 2) for n in n_list]
    degree_cells = [(fixed_n, d) for d in d_list]
    infeasible = [f"n={n} d={d}" for n, d in size_cells + degree_cells
                  if not _circulant_feasible(n, d)]
    if infeasible:
        raise ValueError("no d-regular circulant exists for the sweep cells "
                         + ", ".join(infeasible))
    # the slope in n is fitted over the top decade of sizes
    top_n = [n for n in n_list if n >= max(n_list) / 10]
    for name, values, what, xs in (
            ("n_list", n_list, "sizes of at least max/10", top_n),
            ("d_list", d_list, "degrees", d_list)):
        if len(set(xs)) < 2:
            raise ValueError(f"{name}={list(values)} has fewer than two "
                             f"distinct {what} to fit a slope to")
    with _one_blas_thread():
        rows_n = _sweep_rows(spec, size_cells, n_graphs, epochs, seed)
        rows_d = _sweep_rows(spec, degree_cells, max(10, n_graphs // 2), 3,
                             seed)
    top = [row for row in rows_n if row.n in top_n]
    slope_n = loglog_slope([x.n for x in top], [x.epoch_seconds for x in top])
    slope_d = loglog_slope([x.d for x in rows_d], [x.gamma for x in rows_d])
    return rows_n, rows_d, slope_n, slope_d
