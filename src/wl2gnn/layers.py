"""Convolution layers, pooling and model assembly.

The central operation is a convolution over the encoded vertex pairs of
a graph power: row e_ij is updated to

    sigma( Z[e_ij] W_L
         + sum_l (Z[e_ij] W_F) * sigma_g((Z[e_il] + Z[e_lj]) W_G) )

with l running over the common neighbors of v_i and v_j in the power
graph (endpoints included). `wl2_conv` evaluates this with gather /
scatter-sum on the encoding's pointer columns and is differentiable;
`wl2_conv_naive` recomputes the same thing with explicit neighborhood
intersections in plain numpy and exists to cross-check the fast path.

Also here: a 1-WL vertex message-passing layer (sum aggregation with a
learnable self-weight, followed by an MLP), the plain edge-multiset
convolution that aggregates over the edge neighborhood graph without
pair information, pooling modes, and the constructive translation of
weighted vertex-sum networks into stacks of pair convolutions.

The four model families (`wl2`, `gin`, `gnn2`, `baseline`) are the
entries of `FAMILIES`, and every family-specific step of model
assembly, training and cross-validation is a lookup there. A new
family provides one `Family` record: how to prepare the cacheable units
of a graph list (one per graph, built in one pass over the list) and
combine units into a batch, a batch's initial feature rows, one conv
layer's parameters and forward step, the graph of each row, the
reference-triple count, and whether the power radius `r` changes its
units.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .encoding import (Wl2Encoding, combine_encodings, edge_neighborhood_pairs,
                       encode_all)
from .graphs import GraphError, check_feature_widths

# not called here since units are prepared a list at a time, but the
# benchmark's tracer still wraps these names on this module
from .encoding import encode  # noqa: F401
from .graphs import edge_neighborhood_graph  # noqa: F401
from .tensor import ACTIVATIONS, Tensor, constant


# ---------------------------------------------------------------------------
# dense building blocks


@dataclass
class Dense:
    w: Tensor
    b: Tensor
    act: str = "identity"

    def apply(self, z):
        return ACTIVATIONS[self.act](T.add(T.matmul(z, self.w), self.b))

    def tensors(self):
        return [self.w, self.b]


@dataclass
class Mlp:
    layers: list

    def apply(self, z):
        for layer in self.layers:
            z = layer.apply(z)
        return z

    def tensors(self):
        return [t for layer in self.layers for t in layer.tensors()]


# ---------------------------------------------------------------------------
# pair convolution


@dataclass
class Wl2LayerParams:
    w_l: Tensor
    w_f: Tensor
    w_g: Tensor
    act: str = "logistic"        # sigma, applied to the full update
    act_gamma: str = "logistic"  # sigma_g, applied to neighbor pair sums

    def tensors(self):
        return [self.w_l, self.w_f, self.w_g]


def wl2_conv(enc, z, params):
    """One pair convolution via the encoding's pointer columns.

    Line order: the three dense products, the activated pairwise sums of
    the neighbor transform scattered back onto the target rows (one
    `pair_scatter` node, so no gamma-row array but its activated sums
    stays alive for the reverse pass), then the gated combination.
    """
    ref_l, ref_g1, ref_g2 = enc.scatter_indices
    z_l = T.matmul(z, params.w_l)
    z_f = T.matmul(z, params.w_f)
    z_g = T.matmul(z, params.w_g)
    z_sum = T.pair_scatter(z_g, ref_g1, ref_g2, ref_l, enc.m,
                           params.act_gamma)
    return ACTIVATIONS[params.act](T.add(z_l, T.hadamard(z_f, z_sum)))


@np.errstate(over="ignore")
def _np_logistic(x):
    """Textbook form, separate from the fast sigmoid that it checks."""
    return 1.0 / (1.0 + np.exp(-x))


_NP_ACT = {
    "identity": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "logistic": _np_logistic,
}


def wl2_conv_naive(power, z, params):
    """Reference convolution from explicit neighborhood intersections.

    `power` is the graph power the rows live on (self-loops first in
    vertex order, then edges lexicographic); `z` is the (m, d) feature
    matrix as a plain array. Slow, not differentiable, used to verify
    `wl2_conv`.
    """
    order = [(v, v) for v in range(power.n)]
    order += sorted(e for e in power.edges if e[0] != e[1])
    if len(order) != z.shape[0]:
        raise GraphError(f"feature rows ({z.shape[0]}) do not match the "
                         f"power graph's pair count ({len(order)})")
    row_of = {e: k for k, e in enumerate(order)}
    sig = _NP_ACT[params.act]
    sig_g = _NP_ACT[params.act_gamma]
    w_l, w_f, w_g = params.w_l.data, params.w_f.data, params.w_g.data
    adj = power.adjacency
    out = np.empty((z.shape[0], w_l.shape[1]))
    for k, (i, j) in enumerate(order):
        gate = z[k] @ w_f
        total = z[k] @ w_l
        for l in sorted(adj[i] & adj[j]):
            a = (min(i, l), max(i, l))
            b = (min(l, j), max(l, j))
            if a not in row_of or b not in row_of:
                raise GraphError(f"corrupt encoding: pair {a if a not in row_of else b} "
                                 "has no feature row")
            total = total + gate * sig_g((z[row_of[a]] + z[row_of[b]]) @ w_g)
        out[k] = sig(total)
    return out


# ---------------------------------------------------------------------------
# vertex message passing (1-WL) and the plain edge convolution


@dataclass
class GinLayerParams:
    eps: float
    mlp: Mlp

    def tensors(self):
        return self.mlp.tensors()


def _neighbor_sum(z, src, dst, n):
    return T.scatter_sum(T.gather(z, src), dst, n)


def gin_layer(batch, z, params):
    """MLP((1 + eps) z[v] + sum of neighbor features) on a `VertexBatch`."""
    agg = T.add(T.scale(z, 1.0 + params.eps),
                _neighbor_sum(z, *batch.neighbor_indices, batch.n))
    return params.mlp.apply(agg)


def _directed_pairs(edges):
    """Both directions of every edge, (i, j) then (j, i), in edge order."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return e.ravel(), e[:, ::-1].ravel()


@dataclass
class Gnn2LayerParams:
    w: Tensor
    w_g: Tensor
    act: str = "logistic"

    def tensors(self):
        return [self.w, self.w_g]


def gnn2_layer(batch, z, params):
    """Edge-multiset convolution on an `EdgeBatch`: every row (the
    2-multisets {v, v} and {v, u}) aggregates the plain sum of its
    neighbors in the edge neighborhood graph, without pair alignment:

        sigma( Z[e] W + (sum of neighbor rows) W_G )

    Rows follow the encoding order at radius 1: loops, then edges.
    """
    agg = _neighbor_sum(z, *batch.neighbor_indices, batch.enc.m)
    return ACTIVATIONS[params.act](T.add(T.matmul(z, params.w),
                                         T.matmul(agg, params.w_g)))


# ---------------------------------------------------------------------------
# pooling


POOL_MODES = ("mean", "weighted_mean", "sum", "min")


def pool_segments(z, mode, seg, n_graphs, scores=None):
    """Pools feature rows into one row per graph.

    weighted_mean weighs rows by a softmax over per-row scores within
    each graph (scores is an (m, 1) tensor, max-subtracted for
    stability before exponentiation). `seg` is an int array or a
    `ScatterIndex`.
    """
    index = T.as_index(seg)
    seg = index.idx
    if mode == "sum":
        return T.scatter_sum(z, index, n_graphs)
    if mode == "mean":
        counts = np.bincount(seg, minlength=n_graphs).astype(np.float64)
        if np.any(counts == 0):
            raise ValueError("cannot mean-pool an empty graph segment")
        inv = constant((1.0 / counts).reshape(-1, 1))
        return T.hadamard(T.scatter_sum(z, index, n_graphs), inv)
    if mode == "min":
        return T.segment_min(z, seg, n_graphs)
    if mode == "weighted_mean":
        if scores is None:
            raise ValueError("weighted_mean pooling needs scores")
        seg_max = np.full(n_graphs, -np.inf)
        np.maximum.at(seg_max, seg, scores.data[:, 0])
        shifted = T.add(scores, constant(-seg_max[seg].reshape(-1, 1)))
        e = T.exp(shifted)
        denom = T.scatter_sum(e, index, n_graphs)
        num = T.scatter_sum(T.hadamard(z, e), index, n_graphs)
        return T.hadamard(num, T.reciprocal(denom))
    raise ValueError(f"unknown pooling mode {mode!r}")


def pool(z, mode, scores=None):
    """Single-graph pooling to a 1 x d row."""
    seg = np.zeros(z.shape[0], dtype=np.int64)
    return pool_segments(z, mode, seg, 1, scores=scores)


# ---------------------------------------------------------------------------
# model specification


@dataclass(frozen=True)
class ModelSpec:
    layer: str = "wl2"        # a key of FAMILIES
    t: int = 3                # conv layers (MLP depth for the baseline)
    d: int = 32               # feature width
    r: int = 1                # power radius, read by families that use it
    pool: str = "mean"
    act: str = "logistic"     # sigma and sigma_g, also head hidden layers
    lr: float = 1e-3
    head: tuple = None        # head MLP hidden widths, default (d,)

    def head_widths(self):
        return tuple(self.head) if self.head is not None else (self.d,)


def validate_model_spec(spec):
    if spec.layer not in FAMILIES:
        raise ValueError(f"unknown layer type {spec.layer!r}")
    if spec.pool not in POOL_MODES:
        raise ValueError(f"unknown pooling mode {spec.pool!r}")
    if spec.act not in ACTIVATIONS:
        raise ValueError(f"unknown activation {spec.act!r}")
    if spec.t < 1 or spec.d < 1 or spec.r < 1:
        raise ValueError("t, d and r must be positive")
    if spec.lr <= 0:
        raise ValueError("learning rate must be positive")
    return spec


def format_model_spec(spec):
    parts = [f"layer={spec.layer}", f"T={spec.t}", f"d={spec.d}",
             f"r={spec.r}", f"pool={spec.pool}", f"act={spec.act}",
             f"lr={spec.lr:g}"]
    if spec.head is not None:
        parts.append("head=" + "-".join(str(h) for h in spec.head))
    return ",".join(parts)


def parse_model_spec(text):
    """Parses the flat key-value form, e.g.
    `layer=wl2,T=3,d=32,r=2,pool=mean,act=relu,lr=0.001`."""
    fields = {}
    for part in text.replace(" ", ",").split(","):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed spec field {part!r}")
        key, value = part.split("=", 1)
        fields[key] = value
    known = {"layer", "T", "t", "d", "r", "pool", "act", "lr", "head"}
    if fields.keys() - known:
        raise ValueError(f"unknown spec fields {sorted(fields.keys() - known)}")
    spec = ModelSpec(
        layer=fields.get("layer", "wl2"),
        t=int(fields.get("T", fields.get("t", 3))),
        d=int(fields.get("d", 32)),
        r=int(fields.get("r", 1)),
        pool=fields.get("pool", "mean"),
        act=fields.get("act", "logistic"),
        lr=float(fields.get("lr", 1e-3)),
        head=tuple(int(x) for x in fields["head"].split("-"))
        if "head" in fields else None,
    )
    return validate_model_spec(spec)


# ---------------------------------------------------------------------------
# batched model inputs


def _neighbor_indices(batch):
    """src and dst as `ScatterIndex`es, whose scatter plans every layer
    run on the batch shares."""
    return T.ScatterIndex(batch.src), T.ScatterIndex(batch.dst)


@dataclass
class VertexBatch:
    vertex_features: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    seg: np.ndarray
    n_graphs: int

    @property
    def n(self):
        return self.vertex_features.shape[0]

    @cached_property
    def neighbor_indices(self):
        return _neighbor_indices(self)

    @cached_property
    def segment_index(self):
        """`seg` as a `ScatterIndex`, for pooling."""
        return T.ScatterIndex(self.seg)


def vertex_batch(graphs):
    graphs = list(graphs)
    x = np.vstack([g.vertex_features for g in graphs])
    sizes = [g.n for g in graphs]
    starts = np.cumsum([0] + sizes[:-1])
    src, dst = _directed_pairs(np.concatenate(
        [np.asarray(g.edges, dtype=np.int64).reshape(-1, 2) + start
         for g, start in zip(graphs, starts)]))
    return VertexBatch(vertex_features=x, src=src, dst=dst,
                       seg=np.repeat(np.arange(len(graphs)), sizes),
                       n_graphs=len(graphs))


@dataclass
class EdgeBatch:
    """Rows of the radius-1 encoding plus the edge neighborhood
    adjacency as directed index pairs."""
    enc: Wl2Encoding
    src: np.ndarray
    dst: np.ndarray

    @cached_property
    def neighbor_indices(self):
        return _neighbor_indices(self)


def edge_batch_units(graphs):
    """One `EdgeBatch` per graph: its radius-1 encoding and the edges of
    its edge neighborhood graph, both built over the whole list."""
    graphs = list(graphs)
    return [EdgeBatch(enc, *_directed_pairs(pairs)) for enc, pairs in
            zip(encode_all(graphs, 1), edge_neighborhood_pairs(graphs))]


def edge_batch_unit(g):
    """`edge_batch_units` on one graph."""
    return edge_batch_units([g])[0]


def combine_edge_batches(units):
    units = list(units)
    enc = combine_encodings(u.enc for u in units)
    starts = enc.graph_offsets[:, 0]
    src = np.concatenate([u.src + s for u, s in zip(units, starts)])
    dst = np.concatenate([u.dst + s for u, s in zip(units, starts)])
    return EdgeBatch(enc=enc, src=src, dst=dst)


# ---------------------------------------------------------------------------
# parameter construction


@dataclass
class ModelParams:
    convs: list
    head: Mlp
    score: Tensor | None = None

    def tensors(self):
        out = []
        for conv in self.convs:
            out.extend(conv.tensors())
        out.extend(self.head.tensors())
        if self.score is not None:
            out.append(self.score)
        return out

    def n_params(self):
        return sum(t.data.size for t in self.tensors())


def _make_mlp(rng, dims, act, final_act="identity"):
    layers = []
    for k in range(len(dims) - 1):
        w = T.glorot_uniform(rng, dims[k], dims[k + 1])
        b = Tensor(np.zeros((1, dims[k + 1])), requires_grad=True)
        layers.append(Dense(w, b, act if k < len(dims) - 2 else final_act))
    return Mlp(layers)


GIN_EPS = 0.1


def _glorot(rng, d_in, d_out, count):
    """`count` weight matrices, drawn in order."""
    return [T.glorot_uniform(rng, d_in, d_out) for _ in range(count)]


# ---------------------------------------------------------------------------
# the model-family table


@dataclass(frozen=True)
class Family:
    """What model assembly, training and cross-validation need from one
    model family. A unit is one graph's cacheable input; the initial
    feature width of a unit is `features(unit).shape[1]`."""
    prepare: Callable     # (spec, graphs) -> one unit per graph, in order
    combine: Callable     # units -> batch
    features: Callable    # unit or batch -> initial feature rows
    init: Callable        # (spec, d_in, d_out, rng) -> one conv's parameters
    conv: Callable        # (batch, rows, conv parameters) -> next rows
    segments: Callable    # batch -> (ScatterIndex of row graphs, n_graphs)
    gamma: Callable       # batch -> reference triples, 0 for vertex models
    uses_radius: bool     # whether spec.r changes the prepared units


# the vertex families read the graphs themselves; the baseline's convs are
# single dense layers, so it never looks at the edges
_VERTEX_INPUTS = dict(prepare=lambda spec, graphs: list(graphs),
                      combine=vertex_batch,
                      features=lambda batch: batch.vertex_features,
                      segments=lambda batch: (batch.segment_index,
                                              batch.n_graphs),
                      gamma=lambda batch: 0, uses_radius=False)

# the lambdas around encode_all, edge_batch_units, combine_encodings and
# wl2_conv look them up at call time, so wrappers installed on this module
# see every call; each prepare call covers a whole graph list
FAMILIES = {
    "wl2": Family(prepare=lambda spec, graphs: encode_all(graphs, spec.r),
                  combine=lambda units: combine_encodings(units),
                  features=lambda enc: enc.z0,
                  init=lambda spec, d_in, d_out, rng: Wl2LayerParams(
                      *_glorot(rng, d_in, d_out, 3), spec.act, spec.act),
                  conv=lambda enc, z, params: wl2_conv(enc, z, params),
                  segments=lambda enc: (enc.segment_index, enc.n_graphs),
                  gamma=lambda enc: enc.gamma, uses_radius=True),
    "gin": Family(init=lambda spec, d_in, d_out, rng: GinLayerParams(
                      GIN_EPS, _make_mlp(rng, [d_in, spec.d, d_out], spec.act,
                                         final_act=spec.act)),
                  conv=gin_layer, **_VERTEX_INPUTS),
    "gnn2": Family(prepare=lambda spec, graphs: edge_batch_units(graphs),
                   combine=combine_edge_batches,
                   features=lambda batch: batch.enc.z0,
                   init=lambda spec, d_in, d_out, rng: Gnn2LayerParams(
                       *_glorot(rng, d_in, d_out, 2), spec.act),
                   conv=gnn2_layer,
                   segments=lambda batch: (batch.enc.segment_index,
                                           batch.enc.n_graphs),
                   gamma=lambda batch: batch.enc.gamma, uses_radius=False),
    "baseline": Family(init=lambda spec, d_in, d_out, rng: _make_mlp(
                           rng, [d_in, d_out], spec.act, final_act=spec.act),
                       conv=lambda batch, z, mlp: mlp.apply(z),
                       **_VERTEX_INPUTS),
}


def prepare_units(spec, graphs):
    """Per-graph precomputation that can be cached across epochs, one
    unit per graph. Raises a GraphError naming the first graph whose
    feature widths differ from the first one's, or that the family
    cannot encode."""
    graphs = list(graphs)
    check_feature_widths(graphs)
    return FAMILIES[spec.layer].prepare(spec, graphs)


def combine_units(spec, units):
    return FAMILIES[spec.layer].combine(units)


def input_width(spec, units):
    """Initial feature width of units from `prepare_units`."""
    return FAMILIES[spec.layer].features(units[0]).shape[1]


def init_model_params(spec, in_dim, seed):
    """Seeded parameter initialization (uniform Glorot, zero biases)."""
    validate_model_spec(spec)
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [spec.d] * spec.t
    init = FAMILIES[spec.layer].init
    convs = [init(spec, dims[k], dims[k + 1], rng) for k in range(spec.t)]
    head = _make_mlp(rng, [spec.d, *spec.head_widths(), 1], spec.act)
    score = None
    if spec.pool == "weighted_mean":
        score = T.glorot_uniform(rng, spec.d, 1)
    return ModelParams(convs=convs, head=head, score=score)


def forward_model(spec, params, batch):
    """Runs the full model on a batch; returns per-graph logits as an
    (n_graphs, 1) tensor wired for the reverse pass."""
    family = FAMILIES[spec.layer]
    z = constant(family.features(batch))
    for conv in params.convs:
        z = family.conv(batch, z, conv)
    seg, n_graphs = family.segments(batch)
    scores = T.matmul(z, params.score) if params.score is not None else None
    pooled = pool_segments(z, spec.pool, seg, n_graphs, scores=scores)
    return params.head.apply(pooled)


# ---------------------------------------------------------------------------
# constructive translation of weighted vertex-sum networks


@dataclass
class VertexSumSpec:
    """A message-passing network whose layer t computes

        Z[v] <- MLP_t( w[v, v] Z[v] + sum_u w[v, u] Z[u] )

    with fixed symmetric pair weights w and bias-free MLPs given as
    matrices, each followed by `activation`. Layer t's matrices are
    `matrices[t]` (possibly empty for a bare sum).
    """
    matrices: list
    activation: str = "identity"


def _block_dims(spec, in_dim):
    dims = [in_dim]
    for mats in spec.matrices:
        d = dims[-1]
        for m in mats:
            if m.shape[0] != d:
                raise ValueError(f"MLP matrix expects {d} inputs, got {m.shape[0]}")
            d = m.shape[1]
        dims.append(d)
    return dims


def vertex_sum_forward(g, x, w_self, w_edge, spec):
    """Plain numpy evaluation; returns the state after every layer."""
    z = np.asarray(x, dtype=np.float64)
    act = _NP_ACT[spec.activation]
    states = []
    for mats in spec.matrices:
        agg = w_self.reshape(-1, 1) * z
        for k, (i, j) in enumerate(g.edges):
            agg[i] = agg[i] + w_edge[k] * z[j]
            agg[j] = agg[j] + w_edge[k] * z[i]
        z = agg
        for m in mats:
            z = act(z @ m)
        states.append(z.copy())
    return states


def simulation_initial_features(g, x, w_self, w_edge):
    """Initial pair rows for the translated stack, aligned with the
    radius-1 encoding: self-loop rows carry (1, x[v], w[v, v]), edge
    rows carry (0, 0, w[v, u])."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[1]
    rows = np.zeros((g.n + g.num_edges, d + 2))
    for v in range(g.n):
        rows[v, 0] = 1.0
        rows[v, 1:d + 1] = x[v]
        rows[v, d + 1] = w_self[v]
    for k in range(g.num_edges):
        rows[g.n + k, d + 1] = w_edge[k]
    return rows


def _sum_step_one(d):
    """(ind, z, w) -> (ind, s, w, a): s collects own features gated by
    pair weights, a mirrors weighted own features for the next step."""
    w_l = np.zeros((d + 2, 2 * d + 2))
    w_l[0, 0] = 1.0
    w_l[d + 1, d + 1] = 1.0
    w_f = np.zeros((d + 2, 2 * d + 2))
    w_f[1:d + 1, 1:d + 1] = 0.5 * np.eye(d)
    w_f[d + 1, d + 2:] = 1.0
    w_g = np.zeros((d + 2, 2 * d + 2))
    w_g[1:d + 1, d + 2:] = np.eye(d)
    w_g[d + 1, 1:d + 1] = 1.0
    return Wl2LayerParams(w_l=constant(w_l), w_f=constant(w_f),
                          w_g=constant(w_g), act="identity",
                          act_gamma="identity")


def _sum_step_two(d):
    """(ind, s, w, a) -> (ind, f, w): f becomes the weighted vertex
    neighborhood sum, the indicator and pair weight survive."""
    w_l = np.zeros((2 * d + 2, d + 2))
    w_l[0, 0] = 1.0
    w_l[1:d + 1, 1:d + 1] = -np.eye(d)
    w_l[d + 1, d + 1] = 1.0
    w_f = np.zeros((2 * d + 2, d + 2))
    w_f[0, 1:d + 1] = 0.5
    w_g = np.zeros((2 * d + 2, d + 2))
    w_g[d + 2:, 1:d + 1] = np.eye(d)
    return Wl2LayerParams(w_l=constant(w_l), w_f=constant(w_f),
                          w_g=constant(w_g), act="identity",
                          act_gamma="identity")


def _mlp_step(m, act):
    d_in, d_out = m.shape
    w_l = np.zeros((d_in + 2, d_out + 2))
    w_l[0, 0] = 1.0
    w_l[1:d_in + 1, 1:d_out + 1] = m
    w_l[d_in + 1, d_out + 1] = 1.0
    zeros = np.zeros((d_in + 2, d_out + 2))
    return Wl2LayerParams(w_l=constant(w_l), w_f=constant(zeros),
                          w_g=constant(zeros), act=act, act_gamma="identity")


def build_simulation_stack(spec, in_dim):
    """Translates a vertex-sum network into pair convolution layers.

    Each network layer becomes two identity-activated sum steps plus one
    layer per MLP matrix. Exactness relies on the activation fixing the
    indicator channel and the (non-negative) pair weight channel, which
    holds for identity and relu; anything else is rejected.
    """
    if spec.activation not in ("identity", "relu"):
        raise ValueError(f"activation {spec.activation!r} breaks the carried "
                         "indicator and weight channels; use identity or relu")
    layers = []
    dims = _block_dims(spec, in_dim)
    for t, mats in enumerate(spec.matrices):
        layers.append(_sum_step_one(dims[t]))
        layers.append(_sum_step_two(dims[t]))
        for m in mats:
            layers.append(_mlp_step(np.asarray(m, dtype=np.float64),
                                    spec.activation))
    return layers


def simulation_block_boundaries(spec):
    """Layer indices at which each translated network layer completes."""
    cuts, pos = [], 0
    for mats in spec.matrices:
        pos += 2 + len(mats)
        cuts.append(pos)
    return cuts
