import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wl2gnn.tensor as T
from wl2gnn.bench import _random_regular_circulant
from wl2gnn.encoding import encode
from wl2gnn.graphs import (
    Graph,
    GraphError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_neighborhood_graph,
    graph_power,
)
from wl2gnn.layers import (
    FAMILIES,
    GinLayerParams,
    Gnn2LayerParams,
    Mlp,
    ModelSpec,
    VertexSumSpec,
    Wl2LayerParams,
    build_simulation_stack,
    combine_units,
    edge_batch_units,
    forward_model,
    format_model_spec,
    gin_layer,
    gnn2_layer,
    init_model_params,
    input_width,
    parse_model_spec,
    pool,
    pool_segments,
    prepare_units,
    simulation_block_boundaries,
    simulation_initial_features,
    validate_model_spec,
    vertex_units,
    vertex_sum_forward,
    wl2_conv,
    wl2_conv_naive,
    _make_mlp,
    _NP_ACT,
)
from wl2gnn.tensor import Tensor, constant
from wl2gnn.wl import distinguishable


# ---------------------------------------------------------------- helpers

def ones_graph(n, edges):
    return Graph(n, edges, vertex_features=np.ones((n, 1)),
                 edge_features=np.ones((len(edges), 1)))


def two_triangles():
    return disjoint_union([cycle_graph(3), cycle_graph(3)])


def relabel(g, perm):
    vf = np.asarray([g.vertex_features[perm.index(v)] for v in range(g.n)])
    return Graph(g.n, tuple((perm[i], perm[j]) for i, j in g.edges),
                 vertex_features=vf)


def fixed_pair_params(width_in, act="identity"):
    """W_L = 0 and all-ones gate/neighbor matrices projecting to one column."""
    return Wl2LayerParams(w_l=constant(np.zeros((width_in, 1))),
                          w_f=constant(np.ones((width_in, 1))),
                          w_g=constant(np.ones((width_in, 1))),
                          act=act, act_gamma=act)


def random_pair_params(rng, d_in, d_out, act="logistic"):
    return Wl2LayerParams(w_l=T.glorot_uniform(rng, d_in, d_out),
                          w_f=T.glorot_uniform(rng, d_in, d_out),
                          w_g=T.glorot_uniform(rng, d_in, d_out),
                          act=act, act_gamma=act)


@st.composite
def random_graph_and_radius(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(p for p, keep in zip(pairs, mask) if keep)
    r = draw(st.integers(min_value=1, max_value=3))
    return ones_graph(n, edges), r


# ---------------------------------------------------- pair convolution

def test_naive_single_vertex_hand_value():
    g = ones_graph(1, ())
    enc = encode(g, 1)
    out = wl2_conv_naive(graph_power(g, 1), enc.z0,
                         fixed_pair_params(enc.width))
    # one row, sole neighbor is the vertex itself: 1 * (1 + 1)
    assert out.shape == (1, 1)
    assert out[0, 0] == 2.0


def test_naive_fixed_weights_on_c6():
    g = cycle_graph(6)
    enc = encode(g, 1)
    out = wl2_conv_naive(graph_power(g, 1), enc.z0,
                         fixed_pair_params(enc.width))
    assert np.all(out[:6] == 6.0)   # self-loop rows
    assert np.all(out[6:] == 4.0)   # edge rows


def test_naive_fixed_weights_on_two_triangles():
    g = two_triangles()
    enc = encode(g, 1)
    out = wl2_conv_naive(graph_power(g, 1), enc.z0,
                         fixed_pair_params(enc.width))
    assert np.all(out == 6.0)


def test_conv_matches_naive_on_fixed_example():
    rng = np.random.default_rng(0)
    g = cycle_graph(6)
    enc = encode(g, 2)
    params = random_pair_params(rng, enc.width, 5)
    fast = wl2_conv(enc, constant(enc.z0), params).data
    slow = wl2_conv_naive(graph_power(g, 2), enc.z0, params)
    assert np.max(np.abs(fast - slow)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(random_graph_and_radius(), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_conv_matches_naive_randomized(gr, seed):
    g, r = gr
    rng = np.random.default_rng(seed)
    enc = encode(g, r)
    act = ("identity", "relu", "logistic")[seed % 3]
    params = random_pair_params(rng, enc.width, 4, act=act)
    fast = wl2_conv(enc, constant(enc.z0), params).data
    slow = wl2_conv_naive(graph_power(g, r), enc.z0, params)
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_conv_zero_gate_reduces_to_dense_layer():
    rng = np.random.default_rng(1)
    enc = encode(cycle_graph(5), 1)
    params = Wl2LayerParams(w_l=T.glorot_uniform(rng, enc.width, 3),
                            w_f=constant(np.zeros((enc.width, 3))),
                            w_g=T.glorot_uniform(rng, enc.width, 3),
                            act="logistic", act_gamma="logistic")
    out = wl2_conv(enc, constant(enc.z0), params).data
    want = 1.0 / (1.0 + np.exp(-(enc.z0 @ params.w_l.data)))
    assert np.max(np.abs(out - want)) <= 1e-12


def test_conv_zero_input_gives_sigma_zero():
    enc = encode(cycle_graph(4), 1)
    rng = np.random.default_rng(2)
    params = random_pair_params(rng, enc.width, 3, act="logistic")
    out = wl2_conv(enc, constant(np.zeros_like(enc.z0)), params).data
    assert np.max(np.abs(out - 0.5)) <= 1e-12


def test_oracle_logistic_is_the_closed_form():
    # the oracle must not share the fast path's sigmoid, or the
    # equivalence checks cannot catch a bug in it
    x = np.random.default_rng(0).normal(scale=4.0, size=1000)
    x = np.concatenate([x, [-800.0, -40.0, -0.0, 0.0, 40.0, 800.0]])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
    assert np.array_equal(_NP_ACT["logistic"](x), want)


def test_naive_rejects_wrong_row_count():
    g = cycle_graph(4)
    enc = encode(g, 1)
    with pytest.raises(GraphError):
        wl2_conv_naive(graph_power(g, 1), enc.z0[:-1],
                       fixed_pair_params(enc.width))


# ------------------------------------------------------------- gin layer

def test_gin_edgeless_identity_mlp_eps_zero():
    g = Graph(3, (), vertex_features=np.arange(6.0).reshape(3, 2))
    params = GinLayerParams(eps=0.0, mlp=Mlp([]))
    out = gin_layer(vertex_units([g])[0], constant(g.vertex_features), params)
    assert np.array_equal(out.data, g.vertex_features)


def test_gin_star_center_differs_from_leaves():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)), vertex_features=np.ones((4, 1)))
    rng = np.random.default_rng(3)
    params = GinLayerParams(eps=0.1, mlp=_make_mlp(rng, [1, 4, 4], "relu",
                                                   final_act="relu"))
    out = gin_layer(vertex_units([g])[0], constant(g.vertex_features),
                    params).data
    assert not np.allclose(out[0], out[1])
    assert np.allclose(out[1], out[2]) and np.allclose(out[2], out[3])


def test_gin_blind_to_c6_vs_two_triangles():
    spec = ModelSpec(layer="gin", t=3, d=8, r=1, pool="mean", act="relu",
                     lr=1e-3)
    for seed in range(5):
        params = init_model_params(spec, 1, seed)
        outs = []
        for g in (cycle_graph(6), two_triangles()):
            batch = combine_units(spec, prepare_units(spec, [g]))
            outs.append(forward_model(spec, params, batch).data[0, 0])
        assert abs(outs[0] - outs[1]) <= 1e-10


# ------------------------------------------------------------ gnn2 layer

def test_gnn2_single_edge_hand_computation():
    g = ones_graph(2, ((0, 1),))
    # rows: loops (1, 0) twice, edge (0, 1); loops touch only the edge,
    # the edge touches both loops
    z0 = encode(g, 1).z0
    params = Gnn2LayerParams(w=constant(np.eye(2)),
                             w_g=constant(np.eye(2)), act="identity")
    out = gnn2_layer(edge_batch_units([g])[0], constant(z0), params).data
    assert out.tolist() == [[1.0, 1.0], [1.0, 1.0], [2.0, 1.0]]


def test_gnn2_blind_to_c6_vs_two_triangles():
    spec = ModelSpec(layer="gnn2", t=2, d=6, r=1, pool="sum", act="logistic",
                     lr=1e-3)
    for seed in range(5):
        params = init_model_params(spec, 2, seed)
        outs = []
        for g in (cycle_graph(6), two_triangles()):
            batch = combine_units(spec, prepare_units(spec, [g]))
            outs.append(forward_model(spec, params, batch).data[0, 0])
        assert abs(outs[0] - outs[1]) <= 1e-10


def test_gnn2_sum_aggregation_conflates_swapped_colorings():
    # two one-hot colorings of a path's rows that swap colors between the
    # endpoint loops: the middle edge sees the same neighbor sum, so its
    # refined row coincides, although the pairings differ
    g = Graph(4, ((0, 1), (1, 2), (2, 3)), vertex_features=np.ones((4, 1)))
    n_rows = 4 + 3
    a = np.zeros((n_rows, 4))
    b = np.zeros((n_rows, 4))
    colors = {"A": 0, "B": 1, "C": 2, "D": 3}
    # rows: loops 0..3, then edges (0,1)=4, (1,2)=5, (2,3)=6
    for row, ca, cb in ((1, "A", "B"), (2, "B", "A"), (0, "C", "C"),
                        (3, "C", "C"), (4, "C", "C"), (6, "C", "C"),
                        (5, "D", "D")):
        a[row, colors[ca]] = 1.0
        b[row, colors[cb]] = 1.0
    rng = np.random.default_rng(4)
    params = Gnn2LayerParams(w=T.glorot_uniform(rng, 4, 5),
                             w_g=T.glorot_uniform(rng, 4, 5), act="logistic")
    batch = edge_batch_units([g])[0]
    out_a = gnn2_layer(batch, constant(a), params).data
    out_b = gnn2_layer(batch, constant(b), params).data
    assert np.allclose(out_a[5], out_b[5], atol=1e-12)
    assert not np.allclose(out_a[1], out_b[1])


# ---------------------------------------------------------------- pooling

def test_mean_of_identical_rows_is_that_row():
    z = constant(np.tile([2.0, -1.0], (5, 1)))
    assert np.allclose(pool(z, "mean").data, [[2.0, -1.0]])


def test_weighted_mean_with_equal_scores_equals_mean():
    rng = np.random.default_rng(5)
    z = constant(rng.normal(size=(6, 3)))
    scores = constant(np.full((6, 1), 3.7))
    want = z.data.mean(axis=0, keepdims=True)
    got = pool(z, "weighted_mean", scores=scores).data
    assert np.allclose(got, want, atol=1e-12)


def test_weighted_mean_stable_under_huge_scores():
    z = constant(np.array([[1.0], [2.0]]))
    scores = constant(np.array([[1000.0], [1000.0]]))
    got = pool(z, "weighted_mean", scores=scores).data
    assert np.allclose(got, [[1.5]])


def test_sum_and_min_pooling():
    z = constant(np.array([[1.0, 5.0], [3.0, 2.0]]))
    assert pool(z, "sum").data.tolist() == [[4.0, 7.0]]
    assert pool(z, "min").data.tolist() == [[1.0, 2.0]]


def test_pool_segments_keeps_graphs_apart():
    rng = np.random.default_rng(6)
    z = constant(rng.normal(size=(7, 2)))
    seg = np.array([0, 0, 0, 1, 1, 2, 2])
    got = pool_segments(z, "mean", seg, 3).data
    for gid in range(3):
        want = z.data[seg == gid].mean(axis=0)
        assert np.allclose(got[gid], want)


def test_mean_pool_rejects_empty_segment():
    z = constant(np.ones((2, 2)))
    with pytest.raises(ValueError):
        pool_segments(z, "mean", np.array([0, 2]), 3)


def test_min_pool_separates_prop_4_5_values():
    outs = {}
    for name, g in (("c6", cycle_graph(6)), ("tri", two_triangles())):
        enc = encode(g, 1)
        z = wl2_conv(enc, constant(enc.z0), fixed_pair_params(enc.width))
        outs[name] = pool(z, "min").data[0, 0]
    assert outs["c6"] == 4.0
    assert outs["tri"] == 6.0


# ------------------------------------------------------------- model spec

def test_model_spec_round_trip():
    spec = ModelSpec(layer="wl2", t=3, d=32, r=2, pool="mean", act="relu",
                     lr=1e-3)
    assert parse_model_spec(format_model_spec(spec)) == spec


def test_model_spec_validation_errors():
    bad = [
        ModelSpec(layer="wl2", t=0, d=4, r=1, pool="mean", act="relu", lr=1e-3),
        ModelSpec(layer="wl2", t=1, d=4, r=0, pool="mean", act="relu", lr=1e-3),
        ModelSpec(layer="gin", t=1, d=4, r=1, pool="nope", act="relu", lr=1e-3),
        ModelSpec(layer="what", t=1, d=4, r=1, pool="mean", act="relu", lr=1e-3),
        ModelSpec(layer="wl2", t=1, d=4, r=1, pool="mean", act="tanh", lr=1e-3),
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            validate_model_spec(spec)


def test_parse_model_spec_takes_model_spec_defaults():
    assert parse_model_spec("") == ModelSpec()
    assert parse_model_spec("d=8,t=2,T=5") == ModelSpec(t=5, d=8)


@pytest.mark.parametrize("text,message", [
    ("d=x", "spec field d must be int, got 'x'"),
    ("T=2.5", "spec field T must be int, got '2.5'"),
    ("lr=fast", "spec field lr must be float, got 'fast'"),
    ("r=", "spec field r must be int, got ''"),
])
def test_parse_model_spec_names_the_field_it_cannot_read(text, message):
    with pytest.raises(ValueError) as err:
        parse_model_spec(f"layer=wl2,{text}")
    assert str(err.value) == message


def test_parse_model_spec_rejects_unknown_key():
    # the head always has one hidden layer of width d, so head= is unknown
    for field in ("x=1", "head=8-4"):
        with pytest.raises(ValueError, match="unknown spec fields"):
            parse_model_spec("layer=wl2,T=1,d=4,r=1,pool=mean,act=relu,"
                             f"lr=1e-3,{field}")


# ------------------------------------------------------------ full models

# one spec per family, cycling through the trainable pooling modes and
# the activations so that every mode meets more than one family
_POOLS = ("mean", "sum", "weighted_mean")
ALL_SPECS = [ModelSpec(layer=name, t=2, d=6, r=2, pool=_POOLS[k % 3],
                       act=("logistic", "relu")[k % 2], lr=1e-3)
             for k, name in enumerate(FAMILIES)]


def featured(n, edges, seed):
    rng = np.random.default_rng(seed)
    return Graph(n, edges, vertex_features=rng.normal(size=(n, 2)))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.layer)
def test_forward_model_permutation_invariant(spec):
    g = featured(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6),
                     (1, 4)), seed=7)
    perm = [3, 0, 6, 2, 5, 1, 4]
    h = relabel(g, perm)
    params = init_model_params(spec, input_width(prepare_units(spec, [g])),
                               seed=11)
    logits = []
    for graph in (g, h):
        batch = combine_units(spec, prepare_units(spec, [graph]))
        logits.append(forward_model(spec, params, batch).data[0, 0])
    assert abs(logits[0] - logits[1]) <= 1e-10


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.layer)
def test_forward_model_without_graph_matches_recorded_pass(spec, monkeypatch):
    gs = [featured(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2)), seed=3),
          featured(4, ((0, 1), (1, 2), (2, 3)), seed=4)]
    units = prepare_units(spec, gs)
    params = init_model_params(spec, input_width(units), seed=5)
    batch = combine_units(spec, units)
    targets = np.array([[1.0], [0.0]])
    recorded = forward_model(spec, params, batch)
    recorded_loss = T.bce(recorded, targets)
    assert recorded_loss.requires_grad
    built, node = [], T._node

    def recording_node(*args):
        built.append(node(*args))
        return built[-1]
    monkeypatch.setattr(T, "_node", recording_node)
    with T.no_graph():
        logits = forward_model(spec, params, batch)
        loss = T.bce(logits, targets)
    assert built
    assert all(not t.requires_grad and t._parents == () and t._backward is None
               for t in built)
    assert np.array_equal(logits.data.view(np.int64),
                          recorded.data.view(np.int64))
    assert np.array_equal(loss.data.view(np.int64),
                          recorded_loss.data.view(np.int64))


def cayley_z4z4(steps):
    """Cayley graph on Z4 x Z4: vertex (a, b) is 4a + b, joined to
    (a + s, b + t) for each step (s, t)."""
    edges = {tuple(sorted((4 * a + b, 4 * ((a + s) % 4) + (b + t) % 4)))
             for a in range(4) for b in range(4) for s, t in steps}
    return ones_graph(16, tuple(sorted(edges)))


# both SRG(16, 6, 2, 2): 2-WL cannot tell them apart, yet they are not
# isomorphic (the rook's graph has K4s, Shrikhande's has none)
ROOK_4X4 = cayley_z4z4([(1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)])
SHRIKHANDE = cayley_z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])


@st.composite
def wl2_equivalent_pairs(draw):
    """A random graph and a relabelled copy; the SRG pair; or the SRG
    pair with the same random graph joined to each side."""
    kind = draw(st.sampled_from(["relabelled", "srg", "srg+random"]))
    if kind == "srg":
        return ROOK_4X4, SHRIKHANDE
    g, _ = draw(random_graph_and_radius(max_n=8))
    if kind == "srg+random":
        return disjoint_union([ROOK_4X4, g]), disjoint_union([SHRIKHANDE, g])
    perm = draw(st.permutations(range(g.n)))
    return g, ones_graph(g.n, tuple((perm[i], perm[j]) for i, j in g.edges))


@settings(max_examples=50, deadline=None)
@given(wl2_equivalent_pairs(), st.integers(0, 2 ** 31 - 1),
       st.sampled_from(["relu", "logistic"]))
def test_wl2_outputs_are_bounded_by_2wl(pair, seed, act):
    """The paper's upper bound: graphs that 2-WL refinement cannot
    separate get the same logits from any seeded wl2 model, at every
    radius and under every trainable pooling, up to summation order."""
    g, h = pair
    assert distinguishable(g, h, 2) is False
    for r in (1, 2, 3):
        for pool_mode in ("mean", "weighted_mean", "sum"):
            spec = ModelSpec(layer="wl2", t=2, d=6, r=r, pool=pool_mode,
                             act=act)
            units = prepare_units(spec, [g, h])
            params = init_model_params(spec, input_width(units), seed)
            a, b = forward_model(spec, params,
                                 combine_units(spec, units)).data[:, 0]
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (r, pool_mode)


@st.composite
def wl1_equivalent_pairs(draw):
    """A random graph and a relabelled copy, or two random regular
    circulants of the same size and degree; either kind may get the same
    random graph joined to each side. Every feature is one, as 1-WL's
    initial colours are uniform."""
    if draw(st.booleans()):
        g, _ = draw(random_graph_and_radius(max_n=8))
        perm = draw(st.permutations(range(g.n)))
        h = ones_graph(g.n, tuple((perm[i], perm[j]) for i, j in g.edges))
    else:
        n = draw(st.integers(4, 12))
        d = draw(st.integers(2, n - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
        g = _random_regular_circulant(rng, n, d)
        assume(g is not None)
        h = _random_regular_circulant(rng, n, d)
    if draw(st.booleans()):
        shared, _ = draw(random_graph_and_radius(max_n=6))
        g, h = disjoint_union([g, shared]), disjoint_union([h, shared])
    return g, h


@settings(max_examples=50, deadline=None)
@given(wl1_equivalent_pairs(), st.integers(0, 2 ** 31 - 1),
       st.sampled_from(["relu", "logistic"]))
def test_gin_outputs_are_bounded_by_1wl(pair, seed, act):
    """Graphs that 1-WL refinement cannot separate get the same logits
    from any seeded gin model under every trainable pooling, up to
    summation order."""
    g, h = pair
    assert distinguishable(g, h, 1) is False
    for pool_mode in ("mean", "sum", "weighted_mean"):
        spec = ModelSpec(layer="gin", t=2, d=6, r=1, pool=pool_mode, act=act)
        units = prepare_units(spec, [g, h])
        params = init_model_params(spec, input_width(units), seed)
        a, b = forward_model(spec, params,
                             combine_units(spec, units)).data[:, 0]
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), pool_mode


@settings(max_examples=50, deadline=None)
@given(wl1_equivalent_pairs(), st.integers(0, 2 ** 31 - 1),
       st.sampled_from(["relu", "logistic"]))
def test_gnn2_outputs_are_bounded_by_1wl(pair, seed, act):
    """1-WL-equivalent graphs have edge neighborhood graphs that 1-WL
    cannot separate either, and any seeded gnn2 model, which sums over
    those graphs, gives them the same logits under every trainable
    pooling, up to summation order."""
    g, h = pair
    assert distinguishable(edge_neighborhood_graph(g),
                           edge_neighborhood_graph(h), 1) is False
    for pool_mode in ("mean", "sum", "weighted_mean"):
        spec = ModelSpec(layer="gnn2", t=2, d=6, pool=pool_mode, act=act)
        units = prepare_units(spec, [g, h])
        params = init_model_params(spec, input_width(units), seed)
        a, b = forward_model(spec, params,
                             combine_units(spec, units)).data[:, 0]
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), pool_mode


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.layer)
def test_forward_model_batch_matches_single(spec):
    gs = [featured(5, ((0, 1), (1, 2), (2, 3), (3, 4)), seed=8),
          featured(4, ((0, 1), (1, 2), (0, 2), (2, 3)), seed=9),
          featured(3, (), seed=10)]
    units = prepare_units(spec, gs)
    params = init_model_params(spec, input_width(units), seed=12)
    batch = combine_units(spec, units)
    batched = forward_model(spec, params, batch).data
    assert batched.shape == (3, 1)
    for k, g in enumerate(gs):
        single = combine_units(spec, prepare_units(spec, [g]))
        logit = forward_model(spec, params, single).data[0, 0]
        assert abs(batched[k, 0] - logit) <= 1e-10


@pytest.mark.parametrize("layer,n,edges,message", [
    ("wl2", 0, (), "graph 2 is empty"),
    ("gnn2", 0, (), "graph 2 is empty"),
    ("gnn2", 3, ((0, 1), (2, 2)), "graph 2 has a self-loop at vertex 2"),
], ids=["wl2-empty", "gnn2-empty", "gnn2-self-loop"])
def test_prepare_units_names_the_graph_it_cannot_encode(layer, n, edges,
                                                        message):
    gs = [featured(4, ((0, 1), (1, 2)), seed=s) for s in range(4)]
    gs[2] = Graph(n, edges, vertex_features=np.ones((n, 2)))
    with pytest.raises(GraphError, match=message):
        prepare_units(ModelSpec(layer=layer, r=2), gs)


@pytest.mark.parametrize("layer", ["wl2", "gin", "gnn2"])
def test_batch_builds_each_scatter_plan_once(layer, monkeypatch):
    built, original = [], T._rank_slots

    def counting(idx):
        built.append(idx)
        return original(idx)
    monkeypatch.setattr(T, "_rank_slots", counting)
    spec = ModelSpec(layer=layer, t=3, d=4, r=2, pool="mean", act="relu")
    gs = [featured(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)),
                   seed=s) for s in range(3)]
    units = prepare_units(spec, gs)
    params = init_model_params(spec, input_width(units), seed=1)
    batch = combine_units(spec, units)
    T.backward(T.sum_all(forward_model(spec, params, batch)))
    indices = (batch.scatter_indices if layer == "wl2"
               else batch.neighbor_indices)
    # every layer, forward and backward, and the pooling sum through the
    # batch's plans
    for index in (*indices, batch.segment_index):
        assert sum(idx is index.idx for idx in built) == 1


def test_wl2_graph_keeps_no_gamma_row_tensor():
    # the pair-message path is one node that keeps only its activated
    # sums, so no tensor in the graph (inputs, outputs, parameters) has
    # one row per reference triple
    spec = ModelSpec(layer="wl2", t=3, d=4, r=2, pool="weighted_mean",
                     act="logistic")
    gs = [featured(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)),
                   seed=s) for s in range(3)]
    units = prepare_units(spec, gs)
    params = init_model_params(spec, input_width(units), seed=1)
    batch = combine_units(spec, units)
    assert batch.gamma not in (batch.m, batch.n_graphs, batch.width, spec.d)
    loss = T.bce(forward_model(spec, params, batch),
                 np.array([[1.0], [0.0], [1.0]]))
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert node.shape[0] != batch.gamma
            stack.extend(node._parents)
    assert len(seen) > 3 * spec.t


def _traced_peak(fn):
    """Bytes that fn() held at its peak beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_wl2_step_peak_memory_in_gamma_row_arrays():
    # Peaks in units of the batch's gamma-row array (gamma x d floats).
    # Two K_32 at r=1 have gamma = 32 m, so an m-row array is 1/32 of one.
    # A step holds at most T + 1 gamma-row arrays: one activated array
    # per layer until its reverse pass consumes it, plus the adjoint rows
    # of the layer being reversed (or, in the forward, the gathered sum
    # and its second gather). Beside them, at most 7T + 10 m-row arrays:
    # 7 values per layer (three products, the pair sum, the gated
    # product, the sum, its activation), 7 gradients of the last layer
    # and its input, and 3 rows inside the two gather-adjoint sums. A
    # no-graph forward keeps nothing across layers: 2 gamma-row arrays
    # (the gathered sum and its second gather) beside 4 m-row arrays (the
    # layer's input and its three products). Each bound adds half an
    # m-row array for parameter gradients, pooled rows and Python objects.
    spec = ModelSpec(layer="wl2", t=3, d=16, r=1, pool="mean",
                     act="logistic")
    units = prepare_units(spec, [complete_graph(32), complete_graph(32)])
    params = init_model_params(spec, input_width(units), seed=0)
    batch = combine_units(spec, units)
    m_row = batch.m / batch.gamma  # an m-row array, in gamma-row arrays
    assert m_row == 1 / 32

    def step():
        T.backward(T.bce(forward_model(spec, params, batch),
                         np.array([[0.0], [1.0]])))

    def evaluate():
        with T.no_graph():
            forward_model(spec, params, batch)
    step()  # builds the batch's scatter plans, which later steps reuse
    T.zero_grads(params.tensors())
    array = batch.gamma * spec.d * 8
    trained = _traced_peak(step) / array
    assert trained <= spec.t + 1 + (7 * spec.t + 10.5) * m_row, trained
    evaluated = _traced_peak(evaluate) / array
    assert evaluated <= 2 + 4.5 * m_row, evaluated


# --------------------------------------------------------- batch contents

def _mixed_graphs():
    return [featured(5, ((0, 1), (1, 2), (2, 3), (3, 4)), seed=8),
            featured(3, (), seed=10),
            featured(4, ((0, 1), (1, 2), (0, 2), (2, 3)), seed=9)]


@pytest.mark.parametrize("layer", ["gin", "baseline"])
def test_vertex_batch_reads_off_the_disjoint_union(layer):
    spec = ModelSpec(layer=layer)
    gs = _mixed_graphs()
    batch = combine_units(spec, prepare_units(spec, gs))
    union = disjoint_union(gs)
    assert np.array_equal(batch.z0, union.vertex_features)
    assert batch.src.tolist() == [v for i, j in union.edges for v in (i, j)]
    assert batch.dst.tolist() == [v for i, j in union.edges for v in (j, i)]
    assert batch.seg.tolist() == [k for k, g in enumerate(gs)
                                  for _ in range(g.n)]
    assert batch.n_graphs == len(gs)


def test_gnn2_batch_reads_off_its_encoding():
    spec = ModelSpec(layer="gnn2")
    gs = _mixed_graphs()
    batch = combine_units(spec, prepare_units(spec, gs))
    enc = batch.enc
    assert batch.z0 is enc.z0 and batch.seg is enc.seg
    assert batch.seg.tolist() == [k for k, g in enumerate(gs)
                                  for _ in range(g.n + g.num_edges)]
    assert batch.n_graphs == enc.n_graphs == len(gs)
    # the edges of each edge neighborhood graph, on the batch's rows
    offsets = np.searchsorted(batch.seg, np.arange(len(gs))).tolist()
    edges = [(i + off, j + off) for g, off in zip(gs, offsets)
             for i, j in edge_neighborhood_graph(g).edges]
    assert batch.src.tolist() == [v for i, j in edges for v in (i, j)]
    assert batch.dst.tolist() == [v for i, j in edges for v in (j, i)]


def test_end_to_end_gradients_wl2():
    g1, g2 = cycle_graph(5), complete_graph(4)
    spec = ModelSpec(layer="wl2", t=2, d=3, r=2, pool="weighted_mean",
                     act="logistic", lr=1e-3)
    units = prepare_units(spec, [g1, g2])
    params = init_model_params(spec, input_width(units), seed=13)
    batch = combine_units(spec, units)
    y = np.array([[1.0], [0.0]])
    report = T.grad_check(
        lambda: T.bce(forward_model(spec, params, batch), y),
        params.tensors())
    assert report.passed, report


# --------------------------------------------------------------- simulation

def random_vertex_sum_instance(seed, act="identity", depth=2, width=2):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 8)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if rng.random() < 0.5)
    g = Graph(n, edges, vertex_features=np.ones((n, 1)))
    x = rng.normal(size=(n, width))
    w_self = rng.random(n) + 0.5        # simulation carries w in a relu
    w_edge = rng.random(len(edges)) + 0.5  # channel, so keep it positive
    mats = [[rng.normal(size=(width, width))] for _ in range(depth)]
    spec = VertexSumSpec(matrices=mats, activation=act)
    return g, x, w_self, w_edge, spec


def run_simulation(g, x, w_self, w_edge, spec):
    enc = encode(g, 1)
    z = simulation_initial_features(g, x, w_self, w_edge)
    states = []
    stack = build_simulation_stack(spec, x.shape[1])
    cuts = set(simulation_block_boundaries(spec))
    zt = constant(z)
    for k, layer in enumerate(stack, start=1):
        zt = wl2_conv(enc, zt, layer)
        if k in cuts:
            states.append(zt.data.copy())
    return states


@pytest.mark.parametrize("act", ["identity", "relu"])
def test_simulation_matches_direct_evaluation(act):
    for seed in range(6):
        g, x, w_self, w_edge, spec = random_vertex_sum_instance(seed, act)
        want = vertex_sum_forward(g, x, w_self, w_edge, spec)
        got = run_simulation(g, x, w_self, w_edge, spec)
        for step, (w, state) in enumerate(zip(want, got)):
            d = w.shape[1]
            # indicator channel, simulated features, carried weights
            assert np.allclose(state[:g.n, 0], 1.0, atol=1e-12)
            assert np.allclose(state[g.n:, 0], 0.0, atol=1e-12)
            assert np.max(np.abs(state[:g.n, 1:d + 1] - w)) <= 1e-8, step
            assert np.allclose(state[:g.n, d + 1], w_self, atol=1e-8)
            assert np.allclose(state[g.n:, d + 1], w_edge, atol=1e-8)


def test_simulation_rejects_logistic():
    spec = VertexSumSpec(matrices=[[np.eye(2)]], activation="logistic")
    with pytest.raises(ValueError):
        build_simulation_stack(spec, 2)


def test_simulation_on_edgeless_graph_is_per_vertex_mlp():
    g = Graph(3, (), vertex_features=np.ones((3, 1)))
    rng = np.random.default_rng(20)
    x = rng.normal(size=(3, 2))
    m = rng.normal(size=(2, 2))
    spec = VertexSumSpec(matrices=[[m]], activation="relu")
    w_self = np.ones(3)
    got = run_simulation(g, x, w_self, np.empty(0), spec)[0]
    want = np.maximum((x * w_self[:, None]) @ m, 0.0)
    assert np.max(np.abs(got[:, 1:3] - want)) <= 1e-12


def test_simulation_linear_gin_on_path():
    # one linear layer, all pair weights 1: the sum step must equal
    # (1 + eps) z[v] + neighbor sum with eps = 0
    g = Graph(3, ((0, 1), (1, 2)), vertex_features=np.ones((3, 1)))
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    spec = VertexSumSpec(matrices=[[np.eye(2)]], activation="identity")
    got = run_simulation(g, x, np.ones(3), np.ones(2), spec)[0]
    want = np.array([x[0] + x[1], x[0] + x[1] + x[2], x[1] + x[2]])
    assert np.max(np.abs(got[:3, 1:3] - want)) <= 1e-12
