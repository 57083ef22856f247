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
entries of `FAMILIES`. A unit is one graph's cacheable input and a batch
is units joined in one `stack_units` offset pass. Both carry the fields
`z0` (initial feature rows), `seg` (the graph of each row) and
`n_graphs`: `wl2` batches are encodings, whose `rows` stay graph-local,
and the others `VertexBatch`es that add directed neighbour pairs, over
vertices or (`gnn2`) the radius-1 encoding's rows. A new family provides
a four-field `Family` record: unit preparation for a graph list,
batching, and one conv layer's parameters and forward step.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import tensor as T
from .encoding import (Wl2Encoding, _offsets, _union_edges, combine_encodings,
                       edge_neighborhood_pairs, encode_all, stack_units)
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
    agg = _neighbor_sum(z, *batch.neighbor_indices, batch.n)
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
    act: str = "logistic"     # sigma and sigma_g, also the head's hidden layer
    lr: float = 1e-3


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
    return (f"layer={spec.layer},T={spec.t},d={spec.d},r={spec.r},"
            f"pool={spec.pool},act={spec.act},lr={spec.lr:g}")


def parse_model_spec(text):
    """Parses the flat key-value form, e.g.
    `layer=wl2,T=3,d=32,r=2,pool=mean,act=relu,lr=0.001`. Fields take
    their names, types and defaults from `ModelSpec`; `T` is `t`."""
    given = {}
    for part in text.replace(" ", ",").split(","):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed spec field {part!r}")
        key, value = part.split("=", 1)
        given[key] = value
    unknown = given.keys() - {f.name for f in fields(ModelSpec)} - {"T"}
    if unknown:
        raise ValueError(f"unknown spec fields {sorted(unknown)}")
    default = ModelSpec()
    for key, value in given.items():
        kind = type(getattr(default, key.lower()))  # T is t
        try:
            given[key] = kind(value)
        except ValueError:
            raise ValueError(f"spec field {key} must be {kind.__name__}, "
                             f"got {value!r}") from None
    if "T" in given:
        given["t"] = given.pop("T")
    return validate_model_spec(replace(default, **given))


# ---------------------------------------------------------------------------
# batched model inputs


@dataclass
class VertexBatch:
    """Feature rows, the directed neighbour pairs between them and the
    graph of each row: a `gin` or `baseline` batch over vertices, and as
    `EdgeBatch` a `gnn2` batch. A unit is the batch of one graph."""
    z0: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    seg: np.ndarray
    n_graphs: int

    @property
    def n(self):
        return self.z0.shape[0]

    @cached_property
    def neighbor_indices(self):
        """`src` and `dst` as `ScatterIndex`es, shared by every layer."""
        return T.ScatterIndex(self.src), T.ScatterIndex(self.dst)

    @cached_property
    def segment_index(self):
        """`seg` as a `ScatterIndex`, for pooling."""
        return T.ScatterIndex(self.seg)


@dataclass
class EdgeBatch(VertexBatch):
    """A `VertexBatch` over the rows of the radius-1 encoding `enc`,
    whose neighbour pairs are the edges of the edge neighborhood graph."""
    enc: Wl2Encoding


def vertex_units(graphs):
    """One `VertexBatch` per graph: its vertex features and both
    directions of its edges, in edge order, read in one pass over the
    list. Each unit owns its arrays."""
    graphs = list(graphs)
    voff = _offsets([g.n for g in graphs])
    edges, eoff = _union_edges(graphs, voff)
    src, dst = _directed_pairs(edges)
    cuts, voff = (2 * eoff).tolist(), voff.tolist()
    return [VertexBatch(g.vertex_features.copy(), src[a:b] - v, dst[a:b] - v,
                        np.zeros(g.n, dtype=np.int64), 1)
            for g, v, a, b in zip(graphs, voff, cuts, cuts[1:])]


def edge_batch_units(graphs):
    """One `EdgeBatch` per graph: its radius-1 encoding, whose rows and
    segments it shares, and the edges of its edge neighborhood graph,
    both built over the whole list."""
    graphs = list(graphs)
    return [EdgeBatch(enc.z0, *_directed_pairs(pairs), enc.seg, 1, enc)
            for enc, pairs in zip(encode_all(graphs, 1),
                                  edge_neighborhood_pairs(graphs))]


def combine_vertex_batches(units):
    return VertexBatch(**stack_units(list(units), ("z0", "src", "dst", "seg"),
                                     ("src", "dst")))


def combine_edge_batches(units):
    """The batch's rows, segments and graph count are those of its
    combined encoding, the same arrays."""
    units = list(units)
    enc = combine_encodings(u.enc for u in units)
    return EdgeBatch(z0=enc.z0, seg=enc.seg, n_graphs=enc.n_graphs, enc=enc,
                     **stack_units(units, ("src", "dst"), ("src", "dst")))


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
    model family. Units and batches carry their initial feature rows
    `z0`, the graph of each row `seg` (`segment_index`) and `n_graphs`."""
    prepare: Callable     # (spec, graphs) -> one unit per graph, in order
    combine: Callable     # units -> batch
    init: Callable        # (spec, d_in, d_out, rng) -> one conv's parameters
    conv: Callable        # (batch, rows, conv parameters) -> next rows


# the lambdas around encode_all, edge_batch_units, combine_encodings and
# wl2_conv look them up at call time, so wrappers installed on this module
# see every call; each prepare call covers a whole graph list
FAMILIES = {
    "wl2": Family(prepare=lambda spec, graphs: encode_all(graphs, spec.r),
                  combine=lambda units: combine_encodings(units),
                  init=lambda spec, d_in, d_out, rng: Wl2LayerParams(
                      *_glorot(rng, d_in, d_out, 3), spec.act, spec.act),
                  conv=lambda enc, z, params: wl2_conv(enc, z, params)),
    "gin": Family(prepare=lambda spec, graphs: vertex_units(graphs),
                  combine=combine_vertex_batches,
                  init=lambda spec, d_in, d_out, rng: GinLayerParams(
                      GIN_EPS, _make_mlp(rng, [d_in, spec.d, d_out], spec.act,
                                         final_act=spec.act)),
                  conv=gin_layer),
    "gnn2": Family(prepare=lambda spec, graphs: edge_batch_units(graphs),
                   combine=combine_edge_batches,
                   init=lambda spec, d_in, d_out, rng: Gnn2LayerParams(
                       *_glorot(rng, d_in, d_out, 2), spec.act),
                   conv=gnn2_layer),
    # the baseline's convs are dense layers that never read the pairs
    "baseline": Family(prepare=lambda spec, graphs: vertex_units(graphs),
                       combine=combine_vertex_batches,
                       init=lambda spec, d_in, d_out, rng: _make_mlp(
                           rng, [d_in, d_out], spec.act, final_act=spec.act),
                       conv=lambda batch, z, mlp: mlp.apply(z)),
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


def input_width(units):
    """Initial feature width of units from `prepare_units`."""
    return units[0].z0.shape[1]


def init_model_params(spec, in_dim, seed):
    """Seeded parameter initialization (uniform Glorot, zero biases)."""
    validate_model_spec(spec)
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [spec.d] * spec.t
    init = FAMILIES[spec.layer].init
    convs = [init(spec, dims[k], dims[k + 1], rng) for k in range(spec.t)]
    head = _make_mlp(rng, [spec.d, spec.d, 1], spec.act)
    score = None
    if spec.pool == "weighted_mean":
        score = T.glorot_uniform(rng, spec.d, 1)
    return ModelParams(convs=convs, head=head, score=score)


def forward_model(spec, params, batch):
    """Runs the full model on a batch; returns per-graph logits as an
    (n_graphs, 1) tensor wired for the reverse pass."""
    family = FAMILIES[spec.layer]
    z = constant(batch.z0)
    for conv in params.convs:
        z = family.conv(batch, z, conv)
    scores = T.matmul(z, params.score) if params.score is not None else None
    pooled = pool_segments(z, spec.pool, batch.segment_index, batch.n_graphs,
                           scores=scores)
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
