from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wl2gnn.encoding as encoding
from wl2gnn.encoding import (
    Wl2Encoding,
    combine_encodings,
    encode,
    encode_all,
)
from wl2gnn.graphs import (Graph, GraphError, complete_graph, cycle_graph,
                           edge_neighborhood_graph, graph_power)
from wl2gnn.layers import ModelSpec, prepare_units


# ---------------------------------------------------------------- oracles

def neighborhood_intersections(g, r):
    """Brute-force gamma and per-edge common-neighbor sets over G^r."""
    p = graph_power(g, r)
    per_edge = {}
    for i, j in p.edges:
        per_edge[(i, j)] = sorted(p.adjacency[i] & p.adjacency[j])
    return per_edge


@st.composite
def featured_graphs(draw, max_n=8, with_edge_features=False, dv=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(p for p, keep in zip(pairs, mask) if keep)
    if dv is None:
        dv = draw(st.integers(min_value=1, max_value=3))
    vf = np.arange(n * dv, dtype=np.float64).reshape(n, dv) + 1.0
    ef = None
    if with_edge_features:
        ef = np.arange(len(edges), dtype=np.float64).reshape(-1, 1) + 0.5
    return Graph(n, edges, vertex_features=vf, edge_features=ef)


def k3_example_graph():
    # scalar features 1.0 on vertices and edges: loop rows concatenate to
    # (1, 0), edge rows to (0, 1)
    return Graph(3, ((0, 1), (0, 2), (1, 2)),
                 vertex_features=np.ones((3, 1)),
                 edge_features=np.ones((3, 1)))


def single_edge_example_graph():
    return Graph(2, ((0, 1),),
                 vertex_features=np.ones((2, 1)),
                 edge_features=np.ones((1, 1)))


# hand-worked goldens for the two graphs above, batched; written
# 1-indexed the way one reads them off the row table, converted on use
K3_TRIPLES = [
    (1, 1, 1), (1, 4, 4), (1, 5, 5),
    (2, 2, 2), (2, 4, 4), (2, 6, 6),
    (3, 3, 3), (3, 5, 5), (3, 6, 6),
    (4, 1, 4), (4, 4, 2), (4, 5, 6),
    (5, 1, 5), (5, 5, 3), (5, 4, 6),
    (6, 2, 6), (6, 6, 3), (6, 4, 5),
]
P2_TRIPLES = [
    (7, 7, 7), (7, 9, 9),
    (8, 8, 8), (8, 9, 9),
    (9, 7, 9), (9, 9, 8),
]


def zero_indexed(triples):
    return [(a - 1, b - 1, c - 1) for a, b, c in triples]


# ------------------------------------------------------------ golden case

def test_k3_encoding_matches_worked_example():
    enc = encode(k3_example_graph(), 1)
    assert enc.m == 6
    assert enc.gamma == 18
    want_z0 = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
    assert np.array_equal(enc.z0, want_z0)
    assert enc.triples() == zero_indexed(K3_TRIPLES)


def test_batched_encoding_matches_worked_example():
    graphs = (k3_example_graph(), single_edge_example_graph())
    enc = combine_encodings([encode(g, 1) for g in graphs])
    assert enc.m == 9
    assert enc.gamma == 24
    want_z0 = np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3
                       + [[1.0, 0.0]] * 2 + [[0.0, 1.0]])
    assert np.array_equal(enc.z0, want_z0)
    assert enc.triples() == zero_indexed(K3_TRIPLES + P2_TRIPLES)


def test_single_vertex():
    g = Graph(1, (), vertex_features=np.array([[2.0]]))
    enc = encode(g, 1)
    assert enc.m == 1 and enc.gamma == 1
    assert enc.triples() == [(0, 0, 0)]


# ------------------------------------------------------------- row layout

def test_rows_are_loops_then_sorted_edges():
    enc = encode(cycle_graph(4), 1)
    rows = [tuple(r) for r in enc.rows.tolist()]
    loops = rows[:4]
    edges = rows[4:]
    assert loops == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert edges == sorted(edges)
    assert all(i < j for i, j in edges)


def test_vertex_block_zero_on_edge_rows():
    g = Graph(2, ((0, 1),), vertex_features=np.array([[3.0], [4.0]]),
              edge_features=np.array([[7.0]]))
    enc = encode(g, 1)
    assert enc.z0[0].tolist() == [3.0, 0.0]
    assert enc.z0[1].tolist() == [4.0, 0.0]
    assert enc.z0[2].tolist() == [0.0, 7.0]


def test_synthetic_channel_when_no_edge_features():
    # C4 squared: diagonals exist in the power but not the base graph
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)),
              vertex_features=np.ones((4, 1)))
    enc = encode(g, 2)
    rows = [tuple(r) for r in enc.rows.tolist()]
    chan = enc.z0[:, 1]
    for k, (i, j) in enumerate(rows):
        if i == j or g.has_edge(i, j):
            assert chan[k] == 1.0
        else:
            assert chan[k] == 0.0  # power-only pair
    assert chan[rows.index((0, 2))] == 0.0


def test_radius_must_be_positive():
    with pytest.raises(GraphError):
        encode(cycle_graph(3), 0)


def test_radius_must_be_an_integer():
    with pytest.raises(GraphError, match="radius must be an integer, got 1.5"):
        encode(cycle_graph(3), 1.5)
    # True was stored as the encoding's radius
    with pytest.raises(GraphError, match="radius must be an integer, got True"):
        encode(cycle_graph(3), True)


# ---------------------------------------------------------------- batching

def test_singleton_batch_equals_plain_encoding():
    g = cycle_graph(5)
    assert_same_encoding(combine_encodings([encode(g, 2)]), encode(g, 2))


def test_batch_slicing_reproduces_parts():
    gs = [cycle_graph(4), complete_graph(3), cycle_graph(6)]
    batch = combine_encodings([encode(g, 2) for g in gs])
    assert batch.n_graphs == len(gs)
    # the parts tile the batch's rows and triples, in order, and keep
    # their graph-local vertex pairs
    rs, ts = 0, 0
    for k, g in enumerate(gs):
        single = encode(g, 2)
        rc, tc = single.m, single.gamma
        assert batch.seg[rs:rs + rc].tolist() == [k] * rc
        assert np.array_equal(batch.z0[rs:rs + rc], single.z0)
        assert np.array_equal(batch.rows[rs:rs + rc], single.rows)
        shifted = [(a - rs, b - rs, c - rs)
                   for a, b, c in batch.triples()[ts:ts + tc]]
        assert shifted == single.triples()
        rs, ts = rs + rc, ts + tc
    assert (rs, ts) == (batch.m, batch.gamma)


def test_batch_rejects_mixed_widths():
    a = Graph(2, ((0, 1),), vertex_features=np.ones((2, 1)))
    b = Graph(2, ((0, 1),), vertex_features=np.ones((2, 2)))
    with pytest.raises(ValueError):
        combine_encodings([encode(a, 1), encode(b, 1)])


def test_batch_rejects_mixed_radii():
    with pytest.raises(ValueError):
        combine_encodings([encode(cycle_graph(4), 1),
                           encode(cycle_graph(4), 2)])


# ------------------------------------------------------------- invariants

@settings(max_examples=50, deadline=None)
@given(featured_graphs(), st.integers(min_value=1, max_value=3))
def test_gamma_matches_intersection_oracle(g, r):
    enc = encode(g, r)
    per_edge = neighborhood_intersections(g, r)
    assert enc.gamma == sum(len(v) for v in per_edge.values())
    assert enc.m == len(per_edge)
    # per-target counts
    counts = np.bincount(enc.ref_l, minlength=enc.m)
    rows = [tuple(r_) for r_ in enc.rows.tolist()]
    for k, e in enumerate(rows):
        assert counts[k] == len(per_edge[e])


@settings(max_examples=50, deadline=None)
@given(featured_graphs(), st.integers(min_value=1, max_value=2))
def test_pointers_in_range_and_consistent(g, r):
    enc = encode(g, r)
    for col in (enc.ref_l, enc.ref_g1, enc.ref_g2):
        assert col.min() >= 0 and col.max() < enc.m
    rows = [tuple(r_) for r_ in enc.rows.tolist()]
    p = graph_power(g, r)
    for t, g1, g2 in enc.triples():
        i, j = rows[t]
        il = rows[g1]
        lj = rows[g2]
        # e_il touches i, e_lj touches j, both share the same l
        l_from_g1 = (set(il) - {i}) or {i}
        l_from_g2 = (set(lj) - {j}) or {j}
        assert l_from_g1 == l_from_g2
        (l,) = l_from_g1
        assert l in p.adjacency[i] and l in p.adjacency[j]


@settings(max_examples=30, deadline=None)
@given(featured_graphs(max_n=6), st.integers(min_value=1, max_value=2),
       st.randoms(use_true_random=False))
def test_encoding_invariant_under_relabeling_up_to_row_order(g, r, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph(g.n, tuple((perm[i], perm[j]) for i, j in g.edges),
              vertex_features=np.asarray(
                  [g.vertex_features[perm.index(v)] for v in range(g.n)]))
    # strip edge features: relabeling reorders edge rows
    g = Graph(g.n, g.edges, vertex_features=g.vertex_features)
    a, b = encode(g, r), encode(h, r)
    assert a.m == b.m and a.gamma == b.gamma
    key = lambda e: sorted(map(tuple, e.z0.tolist()))
    assert key(a) == key(b)


def test_determinism():
    g = cycle_graph(6)
    a, b = encode(g, 2), encode(g, 2)
    assert np.array_equal(a.z0, b.z0)
    assert a.triples() == b.triples()


@settings(max_examples=40, deadline=None)
@given(featured_graphs(with_edge_features=True),
       st.integers(min_value=1, max_value=2))
def test_edge_features_survive_with_oracle_gamma(g, r):
    enc = encode(g, r)
    per_edge = neighborhood_intersections(g, r)
    assert enc.gamma == sum(len(v) for v in per_edge.values())
    rows = [tuple(r_) for r_ in enc.rows.tolist()]
    dv = g.vertex_features.shape[1]
    for k, (i, j) in enumerate(rows):
        if i != j and g.has_edge(i, j):
            assert np.array_equal(enc.z0[k, dv:],
                                  g.edge_features[g.edge_id(i, j)])


def test_random_graph_gamma_oracle_r2():
    rng = np.random.default_rng(8)
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges = tuple(p for p in pairs if rng.random() < 0.4)
    g = Graph(8, edges, vertex_features=np.ones((8, 1)))
    enc = encode(g, 2)
    per_edge = neighborhood_intersections(g, 2)
    assert enc.gamma == sum(len(v) for v in per_edge.values())


def encode_loop_form(g, r):
    """`encode` written per row and per triple with Python sets, the
    reference for the array form."""
    power = graph_power(g, r)
    order = [(v, v) for v in range(power.n)]
    order += sorted(e for e in power.edges if e[0] != e[1])
    row_of = {e: k for k, e in enumerate(order)}
    m = len(order)
    dv = g.vertex_features.shape[1]
    de = g.edge_features.shape[1]
    z0 = np.zeros((m, dv + (de if de else 1)))
    for k, (i, j) in enumerate(order):
        if i == j:
            z0[k, :dv] = g.vertex_features[i]
        is_base_edge = i != j and g.has_edge(i, j)
        if de:
            if is_base_edge:
                z0[k, dv:] = g.edge_features[g.edge_id(i, j)]
        else:
            z0[k, dv] = 1.0 if (i == j or is_base_edge) else 0.0
    adj = power.adjacency
    ref_l, ref_g1, ref_g2 = [], [], []
    for k, (i, j) in enumerate(order):
        common = adj[i] & adj[j]
        ordered = [i] + ([j] if j != i else []) + sorted(common - {i, j})
        for l in ordered:
            ref_l.append(k)
            ref_g1.append(row_of[(min(i, l), max(i, l))])
            ref_g2.append(row_of[(min(l, j), max(l, j))])
    return Wl2Encoding(z0=z0,
                       ref_l=np.asarray(ref_l, dtype=np.int64),
                       ref_g1=np.asarray(ref_g1, dtype=np.int64),
                       ref_g2=np.asarray(ref_g2, dtype=np.int64),
                       rows=np.asarray(order, dtype=np.int64).reshape(m, 2),
                       seg=np.zeros(m, dtype=np.int64), n_graphs=1, radius=r)


ENCODING_FIELDS = ("z0", "ref_l", "ref_g1", "ref_g2", "rows", "seg")


@st.composite
def looped_graphs(draw, graphs=None):
    """Featured graphs (by default some with edge features), some with
    self-loops."""
    if graphs is None:
        graphs = featured_graphs(with_edge_features=draw(st.booleans()))
    g = draw(graphs)
    loops = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=2))
    if not loops:
        return g
    edges = g.edges + tuple((v, v) for v in loops)
    ef = None
    if g.edge_features.shape[1]:
        ef = np.vstack([g.edge_features, -np.ones((len(loops), 1))])
    return Graph(g.n, edges, vertex_features=g.vertex_features,
                 edge_features=ef)


@settings(max_examples=80, deadline=None)
@given(looped_graphs(), st.integers(min_value=1, max_value=3))
def test_encode_matches_loop_form_bytewise(g, r):
    assert_same_encoding(encode(g, r), encode_loop_form(g, r))


@settings(max_examples=40, deadline=None)
@given(looped_graphs(), st.integers(min_value=1, max_value=3))
def test_rows_follow_graph_power_order(g, r):
    # the order that wl2_conv_naive and the benchmark's oracle check
    # rebuild from graph_power: its loops in vertex order, then its
    # proper edges, which it keeps sorted
    power = graph_power(g, r)
    want = [(v, v) for v in range(g.n)]
    want += [e for e in power.edges if e[0] != e[1]]
    assert want[g.n:] == sorted(want[g.n:])
    (enc,) = prepare_units(ModelSpec(layer="wl2", r=r), [g])
    assert [tuple(row) for row in enc.rows.tolist()] == want


@st.composite
def graph_lists(draw, loops=True):
    """1-6 featured graphs sharing their feature widths, with or without
    edge features and, with `loops`, some with base self-loops."""
    dv = draw(st.integers(min_value=1, max_value=3))
    with_ef = draw(st.booleans())
    strategy = featured_graphs(dv=dv, with_edge_features=with_ef)
    if loops:
        strategy = looped_graphs(strategy)
    return draw(st.lists(strategy, min_size=1, max_size=6))


def assert_same_encoding(fast, slow):
    for field in ENCODING_FIELDS:
        a, b = getattr(fast, field), getattr(slow, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert (fast.n_graphs, fast.radius) == (slow.n_graphs, slow.radius)


def test_power_stops_expanding_once_complete(monkeypatch):
    # one gather per frontier step that reaches a new pair, one for the
    # step that reaches none, and one for the triples: C6 has diameter 3
    g = cycle_graph(6)
    full = encode(g, g.n - 1)
    calls = []
    gather = encoding._csr_gather

    def counted(ptr, keys):
        calls.append(len(keys))
        return gather(ptr, keys)
    monkeypatch.setattr(encoding, "_csr_gather", counted)
    for r in (5, 10 ** 6):
        calls.clear()
        assert_same_encoding(encode(g, r), replace(full, radius=r))
        assert len(calls) <= 3 + 1


@settings(max_examples=60, deadline=None)
@given(graph_lists(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=2000))
def test_prepared_wl2_units_match_loop_form_bytewise(gs, r, budget):
    units = prepare_units(ModelSpec(layer="wl2", r=r), gs)
    assert len(units) == len(gs)
    for g, unit in zip(gs, units):
        assert_same_encoding(unit, encode_loop_form(g, r))
    # a run budget below the list's summed n^3 splits it into several runs
    with mock.patch.object(encoding, "_RUN_CUBES", budget):
        for unit, again in zip(units, encode_all(gs, r)):
            assert_same_encoding(again, unit)


@settings(max_examples=40, deadline=None)
@given(graph_lists(loops=False))
def test_prepared_gnn2_units_match_edge_neighborhood_graph(gs):
    units = prepare_units(ModelSpec(layer="gnn2"), gs)
    assert len(units) == len(gs)
    for g, unit in zip(gs, units):
        assert_same_encoding(unit.enc, encode_loop_form(g, 1))
        pairs = np.asarray(edge_neighborhood_graph(g).edges,
                           dtype=np.int64).reshape(-1, 2)
        for got, want in ((unit.src, pairs.ravel()),
                          (unit.dst, pairs[:, ::-1].ravel())):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
