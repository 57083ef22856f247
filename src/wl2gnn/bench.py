"""Benchmark harness: training, cross-validation, timing, comparisons.

Evaluation protocol: stratified outer k-fold CV. Within each training
fold a stratified 90/10 holdout drives grid selection (ties go to the
earliest grid entry); the winner is retrained on the full training fold
with early stopping on holdout loss and the best epoch's weights
restored, repeated with distinct seeds. Test folds are touched exactly
once per repeat, after all selection and training is done; the helpers
below never see test indices.

Training is Adam on binary cross-entropy over logits, minibatched with
a fixed batch size (full-batch when the fold fits in one batch).
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import tensor as T
from .graphs import circulant_graph
from .layers import (FAMILIES, ModelSpec, combine_units, format_model_spec,
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
    rest = np.asarray(sorted(set(indices.tolist()) - set(held.tolist())),
                      dtype=np.int64)
    return rest, held


def _require_positive(**counts):
    """Raises `ValueError` naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _select(units, idx):
    return [units[i] for i in idx]


def evaluate_model(spec, params, units, labels, batch_size=256):
    """Full-dataset loss and accuracy, computed in chunks."""
    labels = np.asarray(labels, dtype=np.float64)
    total_loss, correct = 0.0, 0
    for lo in range(0, len(units), batch_size):
        chunk = units[lo:lo + batch_size]
        y = labels[lo:lo + batch_size].reshape(-1, 1)
        logits = forward_model(spec, params, combine_units(spec, chunk))
        loss = T.bce(logits, y)
        total_loss += float(loss.data[0, 0]) * len(chunk)
        correct += int(np.sum((logits.data > 0.0) == (y > 0.5)))
    return total_loss / len(units), correct / len(units)


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
    if config.target_acc is not None and val_units is None:
        raise ValueError("target_acc needs a validation set")
    labels = np.asarray(labels, dtype=np.float64)
    params = init_model_params(spec, input_width(spec, units), seed)
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
    return spec.layer, spec.r if FAMILIES[spec.layer].uses_radius else 1


def _unit_cache(grid, graphs):
    cache = {}
    for spec in grid:
        if _unit_key(spec) not in cache:
            cache[_unit_key(spec)] = prepare_units(spec, graphs)
    return cache


def _run_fold(cache, labels, grid, config, dataset, folds, fold):
    """Selection and repeated retraining for one outer fold. Sees the
    test fold only for the single final evaluation per repeat."""
    test_idx = folds[fold]
    train_idx = np.asarray(sorted(set(range(len(labels)))
                                  - set(test_idx.tolist())), dtype=np.int64)
    rng = np.random.default_rng([config.seed, fold])
    inner_idx, held_idx = stratified_holdout(train_idx, labels,
                                             config.holdout, rng)
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
    results = []
    units = cache[_unit_key(best_spec)]
    for repeat in range(config.repeats):
        trained = train_model(best_spec, _select(units, train_idx),
                              labels[train_idx], config,
                              seed=int(np.random.default_rng(
                                  [config.seed, fold, repeat]).integers(2 ** 31)),
                              val_units=_select(units, held_idx),
                              val_labels=labels[held_idx])
        _, train_acc = evaluate_model(best_spec, trained.params,
                                      _select(units, train_idx),
                                      labels[train_idx])
        _, test_acc = evaluate_model(best_spec, trained.params,
                                     _select(units, test_idx),
                                     labels[test_idx])
        results.append(FoldResult(
            dataset=dataset, model=format_model_spec(best_spec),
            params=trained.params.n_params(), fold=fold, repeat=repeat,
            train_acc=train_acc, test_acc=test_acc,
            epochs=trained.epochs, seconds=trained.seconds))
    return results


def run_cv(graphs, labels, grid, config, dataset="dataset", out_path=None):
    """Full cross-validation; returns FoldResults sorted by
    (fold, repeat) regardless of worker count."""
    labels = np.asarray(labels, dtype=np.int64)
    if len(graphs) != len(labels):
        raise ValueError("graphs and labels differ in length")
    _require_positive(epochs=config.epochs, batch_size=config.batch_size,
                      repeats=config.repeats)
    grid = [validate_model_spec(s) for s in grid]
    if not grid:
        raise ValueError("empty model grid")
    for spec in grid:
        if spec.pool == "min":
            raise ValueError("min pooling is a demonstration mode, "
                             "not part of the training grid")
    # more folds than a class has graphs leaves test folds without that
    # class, or empty
    classes, counts = np.unique(labels, return_counts=True)
    smallest = min(counts, default=0)
    if not 2 <= config.folds <= smallest:
        raise ValueError(f"cannot split into {config.folds} stratified folds: "
                         f"need at least 2 and at most the smallest class "
                         f"count ({smallest})")
    # a training fold keeps all but ceil(count / folds) graphs of a class,
    # and the inner holdout takes at least one of them
    for cls, count in zip(classes, counts):
        kept = count - -(-count // config.folds)
        held = max(1, int(round(config.holdout * kept)))
        if kept <= held:
            raise ValueError(f"class {cls} has only {count} graphs: with "
                             f"{config.folds} folds a training fold keeps "
                             f"{kept} and the holdout takes {held}, leaving "
                             "none to train on")
    folds = stratified_folds(labels, config.folds, np.random.default_rng(config.seed))
    # units are prepared once and shipped to the workers
    fold_task = partial(_run_fold, _unit_cache(grid, graphs), labels, grid,
                        config, dataset, folds)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            per_fold = list(pool.map(fold_task, range(config.folds)))
    else:
        per_fold = [fold_task(fold) for fold in range(config.folds)]
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


def _random_regular_circulant(rng, n, d):
    """Random circulant graph with every vertex of degree exactly d, or
    None when no offset set can achieve it."""
    if d < 1 or d >= n:
        return None
    half = (n - 1) // 2
    if d % 2 == 0:
        if half < d // 2:
            return None
        offsets = rng.choice(np.arange(1, half + 1), size=d // 2,
                             replace=False)
    else:
        # odd degree needs the antipodal offset, hence an even n
        if n % 2 or (n // 2 - 1) < (d - 1) // 2:
            return None
        offsets = list(rng.choice(np.arange(1, n // 2), size=(d - 1) // 2,
                                  replace=False)) + [n // 2]
    return circulant_graph(n, offsets)


def epoch_timing(n_list, d_list, r_list, spec, n_graphs=100, epochs=100,
                 seed=0):
    """Wall-clock scaling sweep over (n, d, r) combinations.

    For each combination: a dataset of `n_graphs` random d-regular
    circulant graphs of size n is encoded at radius r, then full-batch
    training epochs are timed (forward, loss, backward, update) and the
    mean epoch duration recorded together with the batch gamma.
    Infeasible (n, d) pairs are skipped with a warning; empty lists, or
    radii for a family that ignores them, raise `ValueError`. Strictly
    serial. Returns (rows, warnings).
    """
    validate_model_spec(spec)
    _require_positive(n_graphs=n_graphs, epochs=epochs)
    for name, values in (("n_list", n_list), ("d_list", d_list),
                         ("r_list", r_list)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty")
    if not FAMILIES[spec.layer].uses_radius and len(set(r_list)) > 1:
        raise ValueError(f"family {spec.layer} ignores the radius: sweep one "
                         f"r value, not {sorted(set(r_list))}")
    rows, warnings = [], []
    for n in n_list:
        for d in d_list:
            for r in r_list:
                rng = np.random.default_rng([seed, n, d, r])
                graphs = []
                for _ in range(n_graphs):
                    g = _random_regular_circulant(rng, n, d)
                    if g is None:
                        break
                    graphs.append(g)
                if len(graphs) < n_graphs:
                    warnings.append(f"skipped n={n} d={d} r={r}: no d-regular "
                                    "circulant exists")
                    continue
                run_spec = replace(spec, r=r)
                labels = rng.integers(0, 2, size=n_graphs).astype(np.float64)
                units = prepare_units(run_spec, graphs)
                batch = combine_units(run_spec, units)
                gamma = int(FAMILIES[run_spec.layer].gamma(batch))
                params = init_model_params(run_spec,
                                           input_width(run_spec, units), seed)
                tensors = params.tensors()
                state = T.AdamState.for_params(tensors, run_spec.lr)
                y = labels.reshape(-1, 1)
                # the first step warms up, untimed
                _train_step(run_spec, params, tensors, state, batch, y)
                start = time.perf_counter()
                for _ in range(epochs):
                    _train_step(run_spec, params, tensors, state, batch, y)
                mean_seconds = (time.perf_counter() - start) / epochs
                rows.append(TimingRow(n=n, d=d, r=r, gamma=gamma,
                                      epoch_seconds=mean_seconds))
    return rows, warnings


def write_timing_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "d", "r", "gamma", "epoch_seconds"))
        for r in rows:
            writer.writerow([r.n, r.d, r.r, r.gamma, f"{r.epoch_seconds:.9f}"])


def loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    return float(np.polyfit(lx, ly, 1)[0])
