"""Pins the training path of every family on a small triangle set: the
trained parameters, validation loss and epoch count of one `train_model`
that early-stops and restores its best epoch, and the `run_cv` rows
(without their wall times) of a two-spec grid, so that selection runs.
A refactor of backward, Adam, early stopping, snapshot restore, fold
splitting or selection that claims to change nothing can show it."""

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from wl2gnn.bench import TrainConfig, run_cv, train_model
from wl2gnn.graphs import TriangleConfig, generate_triangle_dataset
from wl2gnn.layers import ModelSpec, prepare_units

SPECS = [ModelSpec(layer="wl2", t=2, d=6, r=2, pool="mean", act="logistic",
                   lr=1e-2),
         ModelSpec(layer="gin", t=2, d=6, pool="sum", act="relu", lr=1e-2),
         ModelSpec(layer="gnn2", t=2, d=6, pool="weighted_mean",
                   act="logistic", lr=1e-2),
         ModelSpec(layer="baseline", t=2, d=6, pool="mean", act="relu",
                   lr=1e-2)]

# sha-256 of what `_train_digest` and `_cv_digest` feed, per family
TRAIN_DIGESTS = {
    "wl2":
        "b41c700d20167c85ad7345db9ffd5b233fedae11709d19051ef173c66ca0f24c",
    "gin":
        "7dc8a3149c640c095c5a3b9bea6269fd760ad7a189e65c29b5bcc762765cf24d",
    "gnn2":
        "edb46254a0e6bfbbc760bb4e09f8a7ea4140369f553b10a267064399440e7444",
    "baseline":
        "9224821d186696ae11fb4ae8bc6ab011d02779cee27a85c41ca34ba2484d3cd6",
}
CV_DIGESTS = {
    "wl2":
        "f0e89ece835a545e1a9876aeca73e6b0198aa5086bee7616b9d5c1ad583a0b9e",
    "gin":
        "c70856841bdc86962ec6642ada446f0d6353cd82759eb5280f2e296801f3b826",
    "gnn2":
        "c42ece635ecfbbed578c9fed1992da53395b1de298dda412e1937b7ea0d63613",
    "baseline":
        "030c2d657676fcc6564b4bb78491b03776aca25e912f87a1ac2761629528f799",
}


def _dataset():
    config = TriangleConfig(vertex_counts=(8, 12), samples_per_cell=3,
                            densities=(0.25,))
    graphs, labels, _ = generate_triangle_dataset(3, config)
    assert len(graphs) == 24
    return graphs, labels


def _feed(h, value):
    """Feeds an array (or a number) to `h` by dtype, shape and bytes."""
    a = np.ascontiguousarray(value)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _train_digest(spec):
    graphs, labels = _dataset()
    units = prepare_units(spec, graphs)
    # flipped validation labels make an early epoch the best one, so
    # patience stops training and that epoch's weights are restored
    config = TrainConfig(epochs=40, patience=3, batch_size=8)
    trained = train_model(spec, units[::2], labels[::2], config, seed=5,
                          val_units=units[1::2], val_labels=1 - labels[1::2])
    assert trained.epochs < config.epochs
    h = hashlib.sha256()
    for t in trained.params.tensors():
        _feed(h, t.data)
    _feed(h, trained.val_loss)
    _feed(h, trained.epochs)
    return h.hexdigest()


def _cv_digest(spec):
    graphs, labels = _dataset()
    grid = [spec, replace(spec, d=4, lr=5e-2)]
    config = TrainConfig(epochs=12, patience=3, batch_size=8, folds=2,
                         holdout=0.25, repeats=2, seed=9)
    rows = run_cv(graphs, labels, grid, config, dataset="pins")
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(astuple(replace(row, seconds=0.0))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.layer)
def test_trained_parameters_are_pinned(spec):
    assert _train_digest(spec) == TRAIN_DIGESTS[spec.layer]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.layer)
def test_cv_rows_are_pinned(spec):
    assert _cv_digest(spec) == CV_DIGESTS[spec.layer]
