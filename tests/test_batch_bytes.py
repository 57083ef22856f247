"""Pins the bytes of every family's batches and seeded logits on a small
triangle set, so that a refactor of batching, row order or the forward
pass that claims to change nothing can show it. The digests depend only
on `prepare_units`, `combine_units`, `init_model_params` and
`forward_model`."""

import dataclasses
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

# sha-256 of the batches and logits that `test_batch_bytes_are_pinned`
# feeds, per family
DIGESTS = {
    "wl2": "1d527d9a12e714c904957ffb156f420653a3e87062ac82d5e9cca2ddbadb3b95",
    "gin": "14ced05ec7bb2a674e486f3363509b8828b3af0a99c4d0ed9458e01ab9f16d4e",
    "gnn2": "e860f566f476d2e52bf61de49b2d7885ab972b89c0437660b8928c8d7d0313df",
    "baseline": "b2aaf1307457b41bc872f5ec2435616583ee6899d2238e30443a962e71e8951e",
}


def _feed(h, value):
    """Feeds `value` to `h`: an array by dtype, shape and bytes, a record
    field by field in order, without the field names."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _feed(h, getattr(value, field.name))
    else:
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
        # a gnn2 batch's own rows, segments and graph count are its
        # encoding's, which test_layers checks
        fields = ((batch.enc, batch.src, batch.dst) if spec.layer == "gnn2"
                  else (batch,))
        for value in (*fields, forward_model(spec, params, batch).data):
            _feed(h, value)
    return h.hexdigest()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.layer)
def test_batch_bytes_are_pinned(spec):
    assert _digest(spec) == DIGESTS[spec.layer]
