"""Pins the contents of every family's batches and seeded logits on a
small triangle set, so that a refactor of batching, row order or the
forward pass that claims to change nothing can show it. The digests
depend only on `prepare_units`, `combine_units`, `init_model_params` and
`forward_model`, and on the arrays that `batch_contents` names, not on
how a batch's fields are declared."""

import hashlib

import numpy as np
import pytest

from wl2gnn.encoding import encode
from wl2gnn.graphs import TriangleConfig, generate_triangle_dataset
from wl2gnn.layers import (ModelSpec, combine_units, forward_model,
                           init_model_params, prepare_units)

SPECS = [ModelSpec(layer="wl2", t=2, d=6, r=2, pool="mean", act="logistic"),
         ModelSpec(layer="gin", t=2, d=6, pool="sum", act="relu"),
         ModelSpec(layer="gnn2", t=2, d=6, pool="weighted_mean",
                   act="logistic"),
         ModelSpec(layer="baseline", t=2, d=6, pool="mean", act="relu")]

# sha-256 of the batch contents and logits that `test_batch_bytes_are_pinned`
# feeds, per family
DIGESTS = {
    "wl2": "6f5f4b5402296d83a40467aeb415f01197d0acd2cc0ba4b67ff894860ad1967f",
    "gin": "14ced05ec7bb2a674e486f3363509b8828b3af0a99c4d0ed9458e01ab9f16d4e",
    "gnn2": "17586921d12b3f9b4b163b5a23338ab5391af753be3765681b34aab47c479b03",
    "baseline": "b2aaf1307457b41bc872f5ec2435616583ee6899d2238e30443a962e71e8951e",
}


def batch_contents(spec, batch):
    """The arrays that make up a batch, in a fixed order: its feature
    rows, its row-pointer columns, the graph of each row, the graph count
    and, for the pair rows of `wl2` and `gnn2`, the graph-local vertex
    pair of each row."""
    if spec.layer == "wl2":
        pointers, rows = (batch.ref_l, batch.ref_g1, batch.ref_g2), batch.rows
    else:
        pointers = (batch.src, batch.dst)
        rows = batch.enc.rows if spec.layer == "gnn2" else None
    out = [batch.z0, *pointers, batch.seg, batch.n_graphs]
    return out if rows is None else out + [rows]


def _feed(h, value):
    """Feeds an array (or a number) to `h` by dtype, shape and bytes."""
    a = np.ascontiguousarray(value)
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())


def _digest(spec):
    config = TriangleConfig(vertex_counts=(8, 12), samples_per_cell=2,
                            densities=(0.25,))
    gs, _, _ = generate_triangle_dataset(3, config)
    assert len(gs) == 16
    units = prepare_units(spec, gs)
    width = (encode(gs[0], 1).width if spec.layer in ("wl2", "gnn2")
             else gs[0].vertex_features.shape[1])
    params = init_model_params(spec, width, seed=4)
    h = hashlib.sha256()
    for idx in (range(len(units)), [9, 0, 3, 14], [15]):
        batch = combine_units(spec, [units[k] for k in idx])
        for value in (*batch_contents(spec, batch),
                      forward_model(spec, params, batch).data):
            _feed(h, value)
    return h.hexdigest()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.layer)
def test_batch_bytes_are_pinned(spec):
    assert _digest(spec) == DIGESTS[spec.layer]
