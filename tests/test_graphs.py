import collections
import hashlib
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wl2gnn.graphs import (
    Graph,
    GraphError,
    TriangleConfig,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_neighborhood_graph,
    generate_triangle_dataset,
    graph_power,
    load_tu_dataset,
    save_tu_dataset,
    _monochromatic_triangles,
    _pair_tables,
    _sample_triangle_graph,
)


# ---------------------------------------------------------------- oracles

def bfs_all_pairs(g):
    """Reference all-pairs hop distances, None when unreachable."""
    dist = [[None] * g.n for _ in range(g.n)]
    for s in range(g.n):
        dist[s][s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in g.adjacency[v]:
                    if dist[s][u] is None:
                        dist[s][u] = d
                        nxt.append(u)
            frontier = nxt
    return dist


def count_unicolored_triangles(g):
    """Exhaustive triple enumeration against vertex_labels."""
    total = 0
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.vertex_labels[a] == g.vertex_labels[b] == g.vertex_labels[c] \
                and g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            total += 1
    return total


def degree_counts(g):
    return collections.Counter(g.degree(v) for v in range(g.n))


@st.composite
def simple_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(p for p, keep in zip(pairs, mask) if keep)
    return Graph(n, edges)


# ----------------------------------------------------- construction rules

def test_edges_are_canonicalized():
    g = Graph(4, ((3, 1), (0, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        Graph(3, ((0, 1), (1, 0)))


def test_out_of_range_vertex_rejected():
    with pytest.raises(GraphError):
        Graph(3, ((0, 3),))


def test_edge_features_follow_canonical_order():
    g = Graph(3, ((2, 1), (1, 0)), edge_features=np.array([[5.0], [7.0]]))
    assert g.edges == ((0, 1), (1, 2))
    assert g.edge_features[0, 0] == 7.0
    assert g.edge_features[1, 0] == 5.0


def test_feature_matrices_need_one_row_per_vertex_or_edge():
    with pytest.raises(GraphError, match=r"edge_features must be a \(2, d\) "
                       r"matrix, got shape \(3, 1\)"):
        Graph(3, ((2, 1), (1, 0)), edge_features=np.zeros((3, 1)))
    with pytest.raises(GraphError, match=r"vertex_features must be a \(3, d\) "
                       r"matrix, got shape \(2, 1\)"):
        Graph(3, ((0, 1),), vertex_features=np.zeros((2, 1)))


def test_vertex_labels_length_checked():
    with pytest.raises(GraphError):
        Graph(3, (), vertex_labels=(0, 1))


def test_degree_ignores_self_loop():
    g = Graph(2, ((0, 0), (0, 1)))
    assert g.degree(0) == 1
    assert g.has_self_loops()


# ------------------------------------------------------------- generators

def test_cycle_graph_basics():
    g = cycle_graph(6)
    assert g.n == 6 and g.num_edges == 6
    assert degree_counts(g) == {2: 6}


def test_complete_graph_k5():
    g = complete_graph(5)
    assert g.num_edges == 10
    assert degree_counts(g) == {4: 5}


def test_circulant_8_12_is_4_regular():
    g = circulant_graph(8, {1, 2})
    assert degree_counts(g) == {4: 8}


def test_circulant_antipodal_offset_drops_one_degree():
    g = circulant_graph(6, {1, 3})
    assert degree_counts(g) == {3: 6}


def test_circulant_rejects_bad_offset():
    with pytest.raises(GraphError):
        circulant_graph(6, {4})


def test_disjoint_union_two_triangles():
    h = disjoint_union([cycle_graph(3), cycle_graph(3)])
    assert h.n == 6 and h.num_edges == 6
    assert degree_counts(h) == {2: 6}


def test_disjoint_union_preserves_counts_and_degrees():
    parts = [cycle_graph(4), complete_graph(3), circulant_graph(7, {2})]
    u = disjoint_union(parts)
    assert u.n == sum(p.n for p in parts)
    assert u.num_edges == sum(p.num_edges for p in parts)
    want = collections.Counter()
    for p in parts:
        want.update(degree_counts(p))
    assert degree_counts(u) == want


def test_disjoint_union_stacks_features():
    a = Graph(2, ((0, 1),), vertex_features=np.array([[1.0], [2.0]]),
              edge_features=np.array([[9.0]]))
    b = Graph(1, (), vertex_features=np.array([[3.0]]),
              edge_features=np.zeros((0, 1)))
    u = disjoint_union([a, b])
    assert u.vertex_features[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert u.edge_features[:, 0].tolist() == [9.0]


# ------------------------------------------------------------ graph power

def test_c6_power_2_edge_count():
    # 6 loops + 6 distance-1 + 6 distance-2 pairs
    p = graph_power(cycle_graph(6), 2)
    assert p.num_edges == 18


def test_c6_power_3_edge_count():
    # adds the 3 antipodal pairs
    p = graph_power(cycle_graph(6), 3)
    assert p.num_edges == 21


def test_power_keeps_base_edge_features_and_zeroes_new_rows():
    g = Graph(3, ((0, 1),), edge_features=np.array([[4.0]]))
    p = graph_power(g, 1)
    assert p.edge_features[p.edge_id(0, 1), 0] == 4.0
    assert p.edge_features[p.edge_id(0, 0), 0] == 0.0


def test_power_rejects_nonpositive_radius():
    with pytest.raises(GraphError):
        graph_power(cycle_graph(3), 0)


@settings(max_examples=60, deadline=None)
@given(simple_graphs(), st.integers(min_value=1, max_value=4))
def test_power_matches_distance_oracle(g, r):
    p = graph_power(g, r)
    dist = bfs_all_pairs(g)
    for i in range(g.n):
        for j in range(i, g.n):
            want = dist[i][j] is not None and dist[i][j] <= r
            assert p.has_edge(i, j) == want


@settings(max_examples=40, deadline=None)
@given(simple_graphs(), st.integers(min_value=1, max_value=3))
def test_power_monotone_in_radius(g, r):
    assert set(graph_power(g, r).edges) <= set(graph_power(g, r + 1).edges)


@settings(max_examples=30, deadline=None)
@given(simple_graphs(max_n=6))
def test_power_at_diameter_is_complete_with_loops(g):
    dist = bfs_all_pairs(g)
    finite = [d for row in dist for d in row if d is not None]
    if any(d is None for row in dist for d in row):
        return  # disconnected, no diameter
    p = graph_power(g, max(max(finite), 1))
    assert p.num_edges == g.n * (g.n + 1) // 2


# ------------------------------------------------- edge neighborhood graph

def edge_neighborhood_oracle(g):
    """Adjacency by literal 2-multiset intersection size."""
    nodes = [frozenset_multiset((v, v)) for v in range(g.n)]
    nodes += [frozenset_multiset(e) for e in sorted(g.edges)]
    adj = set()
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if multiset_intersection_size(nodes[a], nodes[b]) == 1:
                adj.add((a, b))
    return len(nodes), adj


def frozenset_multiset(pair):
    return collections.Counter(pair)


def multiset_intersection_size(a, b):
    return sum((a & b).values())


def test_edge_neighborhood_c3():
    h = edge_neighborhood_graph(cycle_graph(3))
    assert h.n == 6
    # each loop meets 2 incident edges; edges pairwise share 1 endpoint
    assert degree_counts(h) == {2: 3, 4: 3}


def test_edge_neighborhood_labels_mark_loops_and_edges():
    g = cycle_graph(4)
    h = edge_neighborhood_graph(g)
    assert h.vertex_labels == (0,) * 4 + (1,) * 4


def test_edge_neighborhood_rejects_self_loops():
    with pytest.raises(GraphError):
        edge_neighborhood_graph(Graph(2, ((0, 0),)))


@settings(max_examples=60, deadline=None)
@given(simple_graphs())
def test_edge_neighborhood_matches_multiset_oracle(g):
    h = edge_neighborhood_graph(g)
    want_n, want_adj = edge_neighborhood_oracle(g)
    assert h.n == want_n == g.n + g.num_edges
    assert set(h.edges) == want_adj


# -------------------------------------------------------- triangle dataset

SMALL = TriangleConfig(vertex_counts=(6, 8, 10), samples_per_cell=2,
                       max_attempts_per_cell=4000)


def test_triangle_dataset_is_reproducible():
    g1, y1, w1 = generate_triangle_dataset(11, SMALL)
    g2, y2, w2 = generate_triangle_dataset(11, SMALL)
    assert len(g1) == len(g2) and w1 == w2
    assert np.array_equal(y1, y2)
    for a, b in zip(g1, g2):
        assert a.edges == b.edges
        assert a.vertex_labels == b.vertex_labels


def triangle_dataset_digest(graphs, labels, warnings):
    h = hashlib.sha256()
    for g in graphs:
        h.update(np.int64(g.n).tobytes())
        h.update(np.asarray(g.edges, dtype=np.int64).tobytes())
        h.update(np.asarray(g.vertex_labels, dtype=np.int64).tobytes())
        h.update(g.vertex_features.tobytes())
    h.update(np.asarray(labels, dtype=np.int64).tobytes())
    h.update("\n".join(warnings).encode())
    return h.hexdigest()


def test_triangle_dataset_bytes_are_pinned():
    # the digest pins the generator's whole random stream: the sampler's
    # draws, the stop at max_attempts_per_cell and the dropped siblings
    config = TriangleConfig(vertex_counts=(8, 10), samples_per_cell=6,
                            max_attempts_per_cell=2000)
    graphs, labels, warnings = generate_triangle_dataset(7, config)
    assert len(graphs) == 48
    assert "skipped n=10 prop=0.75/0.25 density=0.5 class=A: 0/6 samples " \
           "after 2000 attempts" in warnings
    assert "skipped n=10 prop=0.25/0.75 density=0.5 class=B: 1/6 samples " \
           "after 2000 attempts" in warnings
    assert "dropped n=10 prop=0.25/0.75 density=0.25 class=B: sibling " \
           "class cell failed" in warnings
    assert triangle_dataset_digest(graphs, labels, warnings) == (
        "56385a32b4abe86a1d007e1fb0b9d52c181899f5fdae4f9fb9699cd8da82c436")


def test_triangle_dataset_postconditions():
    graphs, labels, _ = generate_triangle_dataset(11, SMALL)
    assert len(graphs) > 0
    for g, y in zip(graphs, labels):
        assert count_unicolored_triangles(g) == 1
        tri_color = unique_triangle_color(g)
        assert tri_color == y
        # one-hot colors in feature column order (A, B)
        for v in range(g.n):
            want = [1.0, 0.0] if g.vertex_labels[v] == 0 else [0.0, 1.0]
            assert g.vertex_features[v].tolist() == want


def unique_triangle_color(g):
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.vertex_labels[a] == g.vertex_labels[b] == g.vertex_labels[c] \
                and g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            return g.vertex_labels[a]
    raise AssertionError("no unicolored triangle")


def test_triangle_dataset_classes_balanced():
    # paired cells guarantee exact balance
    _, labels, _ = generate_triangle_dataset(11, SMALL)
    counts = np.bincount(labels, minlength=2)
    assert counts[0] == counts[1]


def test_triangle_dataset_drops_orphan_cells():
    # n=6 at 75/25 leaves only 2 minority vertices, so the minority class
    # cell fails and its filled majority sibling is dropped with it
    config = TriangleConfig(vertex_counts=(6,), samples_per_cell=2,
                            max_attempts_per_cell=4000)
    _, _, warnings = generate_triangle_dataset(11, config)
    assert any("fewer than 3 vertices" in w for w in warnings)
    assert any(w.startswith("dropped n=6 prop=0.75/0.25") and
               w.endswith("sibling class cell failed") for w in warnings)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=9).flatmap(lambda n: st.tuples(
    st.lists(st.booleans(), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.integers(0, 1), min_size=n, max_size=n))))
def test_monochromatic_triangle_count_matches_enumeration(case):
    mask, colors = case
    n = len(colors)
    # combinations yield the pairs in pair-code order
    edges = {p for p, keep in
             zip(itertools.combinations(range(n), 2), mask) if keep}
    present = np.zeros(len(mask) + 1, dtype=bool)
    present[:-1] = mask
    brute = sum(1 for a, b, c in itertools.combinations(range(n), 3)
                if colors[a] == colors[b] == colors[c]
                and {(a, b), (b, c), (a, c)} <= edges)
    _, _, pair_code = _pair_tables(n)
    assert _monochromatic_triangles(present, pair_code,
                                    np.asarray(colors)) == brute


def loop_triangle_sample(rng, n, n_a, m_target, planted, pair_i, pair_j):
    """The triangle sampler in loop form, drawing the same random numbers
    in the same order: the reference for the sampler's RNG stream."""
    colors = np.ones(n, dtype=np.int64)
    colors[rng.choice(n, size=n_a, replace=False)] = 0
    tri = rng.choice(np.flatnonzero(colors == planted), size=3, replace=False)
    pick = rng.choice(len(pair_i), size=m_target, replace=False)
    edges = {(int(pair_i[k]), int(pair_j[k])) for k in pick}
    tri_pairs = [tuple(sorted((int(a), int(b)))) for a, b in
                 ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))]
    missing = [p for p in tri_pairs if p not in edges]
    if missing:
        others = [(int(a), int(b)) for a, b in zip(pair_i[pick], pair_j[pick])
                  if (a, b) not in tri_pairs]
        if len(others) < len(missing):
            return None
        edges |= set(missing)
        for k in rng.choice(len(others), size=len(missing), replace=False):
            edges.discard(others[k])
    mono = sum(1 for a, b, c in itertools.combinations(range(n), 3)
               if colors[a] == colors[b] == colors[c]
               and {(a, b), (b, c), (a, c)} <= edges)
    return (tuple(sorted(edges)), tuple(colors.tolist())) if mono == 1 else None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(6, 32),
       st.sampled_from([0.25, 0.5, 0.75]), st.sampled_from([0.25, 0.5]),
       st.integers(0, 1))
def test_triangle_sampler_matches_loop_form(seed, n, prop, density, planted):
    n_a = int(round(prop * n))
    if min(n_a, n - n_a) < 3:
        return
    m_target = int(round(density * n * n / 2))
    pair_i, pair_j, pair_code = _pair_tables(n)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        g = _sample_triangle_graph(rng, n, n_a, m_target, planted,
                                   pair_i, pair_j, pair_code)
        want = loop_triangle_sample(ref_rng, n, n_a, m_target, planted,
                                    pair_i, pair_j)
        assert (None if g is None else (g.edges, g.vertex_labels)) == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_triangle_dataset_edge_budget_follows_density():
    # undirected edge count is the rounded half of density * n^2
    graphs, _, _ = generate_triangle_dataset(11, SMALL)
    for g in graphs:
        targets = {round(d * g.n ** 2 / 2) for d in SMALL.densities}
        assert g.num_edges in targets


# ------------------------------------------------------------- TU format

def test_tu_round_trip(tmp_path):
    graphs, labels, _ = generate_triangle_dataset(3, TriangleConfig(
        vertex_counts=(6, 8), samples_per_cell=1, max_attempts_per_cell=4000))
    save_tu_dataset(graphs, labels, tmp_path / "TRI", "TRI")
    back_graphs, back_labels = load_tu_dataset(tmp_path / "TRI")
    assert len(back_graphs) == len(graphs)
    assert np.array_equal(back_labels, labels)
    for a, b in zip(graphs, back_graphs):
        assert a.n == b.n and a.edges == b.edges



@pytest.mark.parametrize("sizes,n_labels,error,message", [
    ((2, 0, 3), 3, GraphError, "graph 1 has no vertices"),
    ((2, 2, 3), 2, ValueError, "2 labels for 3 graphs"),
])
def test_tu_writer_rejects_what_its_loader_rejects(tmp_path, sizes, n_labels,
                                                   error, message):
    # the loader would reject either directory, so the writer refuses the
    # dataset before it makes a directory or a file
    graphs = [Graph(n, ()) for n in sizes]
    with pytest.raises(error, match=message):
        save_tu_dataset(graphs, [0, 1, 1][:n_labels], tmp_path / "BAD", "BAD")
    assert not (tmp_path / "BAD").exists()


@st.composite
def labelled_datasets(draw):
    """2-5 graphs with vertex labels, and graph labels of two classes."""
    graphs = [Graph(g.n, g.edges, vertex_labels=draw(st.lists(
                  st.integers(-3, 9), min_size=g.n, max_size=g.n)))
              for g in draw(st.lists(simple_graphs(max_n=6), min_size=2,
                                     max_size=5))]
    values = draw(st.lists(st.integers(-2, 7), min_size=2, max_size=2,
                           unique=True))
    classes = draw(st.permutations([0, 1] + draw(st.lists(
        st.integers(0, 1), min_size=len(graphs) - 2,
        max_size=len(graphs) - 2))))
    return graphs, [values[c] for c in classes]


@settings(max_examples=60, deadline=None)
@given(labelled_datasets())
def test_tu_round_trip_keeps_structure_labels_and_one_hot(dataset):
    graphs, raw_labels = dataset
    with tempfile.TemporaryDirectory() as root:
        save_tu_dataset(graphs, raw_labels, Path(root) / "RT", "RT")
        back, labels = load_tu_dataset(Path(root) / "RT")
    values = sorted({x for g in graphs for x in g.vertex_labels})
    assert len(back) == len(graphs)
    for a, b in zip(graphs, back):
        assert (b.n, b.edges, b.vertex_labels) == (a.n, a.edges, a.vertex_labels)
        onehot = np.zeros((a.n, len(values)))
        onehot[np.arange(a.n), [values.index(x) for x in a.vertex_labels]] = 1
        np.testing.assert_array_equal(b.vertex_features, onehot)
    assert labels.dtype == np.int64
    assert labels.tolist() == [int(y == max(raw_labels)) for y in raw_labels]

def write_toy_tu(root, name="TOY"):
    d = root / name
    d.mkdir()
    (d / f"{name}_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n4, 5\n5, 4\n")
    (d / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    (d / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    return d


def test_tu_toy_fixture(tmp_path):
    graphs, labels = load_tu_dataset(write_toy_tu(tmp_path))
    assert len(graphs) == 2
    assert graphs[0].edges == ((0, 1), (1, 2))
    assert graphs[1].edges == ((0, 1),)
    assert set(labels.tolist()) == {0, 1}


def test_tu_node_labels_one_hot(tmp_path):
    d = write_toy_tu(tmp_path)
    (d / "TOY_node_labels.txt").write_text("0\n1\n0\n1\n1\n")
    graphs, _ = load_tu_dataset(d)
    assert graphs[0].vertex_features.shape == (3, 2)
    assert graphs[0].vertex_features[1].tolist() == [0.0, 1.0]


def test_tu_rejects_cross_graph_edge(tmp_path):
    d = write_toy_tu(tmp_path)
    (d / "TOY_A.txt").write_text("1, 4\n4, 1\n")
    with pytest.raises(GraphError) as err:
        load_tu_dataset(d)
    assert "TOY_A.txt" in str(err.value)


@pytest.mark.parametrize("edges", ["", "1, 3\n3, 1\n"],
                         ids=["no-edges", "edge-1-3"])
def test_tu_rejects_interleaved_graph_indicator(tmp_path, edges):
    # vertices 1 and 3 belong to graph 1, 2 and 4 to graph 2; local ids
    # would pair graph 1 with labels (5, 6) instead of (5, 7)
    d = tmp_path / "MIX"
    d.mkdir()
    (d / "MIX_A.txt").write_text(edges)
    (d / "MIX_graph_indicator.txt").write_text("1\n2\n1\n2\n")
    (d / "MIX_graph_labels.txt").write_text("0\n1\n")
    (d / "MIX_node_labels.txt").write_text("5\n6\n7\n8\n")
    with pytest.raises(GraphError) as err:
        load_tu_dataset(d)
    assert "MIX_graph_indicator.txt:3: " in str(err.value)
    assert "consecutive" in str(err.value)


def test_tu_edges_are_python_ints(tmp_path):
    graphs, _ = load_tu_dataset(write_toy_tu(tmp_path))
    assert all(type(x) is int for g in graphs for e in g.edges for x in e)


def test_tu_rejects_malformed_line(tmp_path):
    d = write_toy_tu(tmp_path)
    (d / "TOY_A.txt").write_text("1, 2\nbogus\n")
    with pytest.raises(GraphError) as err:
        load_tu_dataset(d)
    assert "_A.txt:2" in str(err.value)


def test_tu_rejects_non_finite_attribute(tmp_path):
    d = write_toy_tu(tmp_path)
    (d / "TOY_node_attributes.txt").write_text("0.5\n1.0\nnan\n2.0\n-1.0\n")
    with pytest.raises(GraphError) as err:
        load_tu_dataset(d)
    assert "TOY_node_attributes.txt:3" in str(err.value)


@pytest.mark.parametrize("kind,text,line,widths", [
    ("node", "0.5, 1\n1.0, 2\n3.0\n2.0, 1\n-1.0, 0\n", 3, (2, 1)),
    ("edge", "1\n1\n1\n1, 2\n1\n1\n", 4, (1, 2)),
], ids=["node", "edge"])
def test_tu_rejects_ragged_attribute_rows(tmp_path, kind, text, line, widths):
    # the short or long row sits inside one graph, where numpy would
    # otherwise fail on an inhomogeneous shape that names no file
    d = write_toy_tu(tmp_path)
    path = d / f"TOY_{kind}_attributes.txt"
    path.write_text(text)
    with pytest.raises(GraphError) as err:
        load_tu_dataset(d)
    assert str(err.value) == (f"{path}:{line}: expected {widths[0]} fields, "
                              f"got {widths[1]}")


def test_tu_accepts_any_two_label_values(tmp_path):
    d = write_toy_tu(tmp_path)
    (d / "TOY_graph_labels.txt").write_text("7\n3\n")
    _, labels = load_tu_dataset(d)
    assert set(labels.tolist()) == {0, 1}


def test_tu_rejects_three_classes(tmp_path):
    d = write_toy_tu(tmp_path)
    (d / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n3\n")
    (d / "TOY_graph_labels.txt").write_text("1\n2\n3\n")
    (d / "TOY_A.txt").write_text("1, 2\n2, 1\n2, 3\n3, 2\n")
    with pytest.raises(GraphError):
        load_tu_dataset(d)


def write_full_tu(root, name="FULL"):
    """A TU directory with every optional file: node labels with gaps,
    two-wide node and edge attributes, edges listed once or twice (the
    second line with other values, out of graph order), an edgeless
    graph and graph labels -1 and 1."""
    d = root / name
    d.mkdir()
    files = {
        "graph_indicator": "1\n1\n1\n2\n2\n3\n3\n3\n",
        "graph_labels": "-1\n1\n-1\n",
        "A": "8, 6\n1, 2\n3, 2\n2, 1\n7, 8\n6, 8\n",
        "edge_attributes": "0.5, 6.0\n1.0, 2.0\n3.0, 4.0\n9.0, 9.0\n"
                           "7.0, 8.0\n-1.0, -1.0\n",
        "node_labels": "5\n2\n9\n9\n5\n2\n2\n9\n",
        "node_attributes": "".join(f"0.{k}, {k}.0\n" for k in range(1, 9)),
    }
    for kind, text in files.items():
        (d / f"{name}_{kind}.txt").write_text(text)
    return d


def test_tu_loader_pins_every_optional_file(tmp_path):
    graphs, labels = load_tu_dataset(write_full_tu(tmp_path))
    # one-hot over the sorted label values (2, 5, 9), then the attributes;
    # an edge keeps the attributes of the first line that lists it
    want = [
        (3, ((0, 1), (1, 2)), (5, 2, 9),
         [[0, 1, 0, 0.1, 1], [1, 0, 0, 0.2, 2], [0, 0, 1, 0.3, 3]],
         [[1, 2], [3, 4]]),
        (2, (), (9, 5),
         [[0, 0, 1, 0.4, 4], [0, 1, 0, 0.5, 5]],
         np.zeros((0, 2))),
        (3, ((0, 2), (1, 2)), (2, 2, 9),
         [[1, 0, 0, 0.6, 6], [1, 0, 0, 0.7, 7], [0, 0, 1, 0.8, 8]],
         [[0.5, 6], [7, 8]]),
    ]
    assert len(graphs) == len(want)
    for g, (n, edges, vertex_labels, vf, ef) in zip(graphs, want):
        assert (g.n, g.edges, g.vertex_labels) == (n, edges, vertex_labels)
        np.testing.assert_array_equal(g.vertex_features, np.asarray(vf, float))
        assert g.edge_features.shape == np.shape(ef)
        np.testing.assert_array_equal(g.edge_features, np.asarray(ef, float))
    assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 0]


@pytest.mark.parametrize("files,file,message", [
    ({"graph_indicator": "1\n1\n1\n3\n3\n"}, "graph_indicator",
     ": graph ids not contiguous"),
    ({"graph_labels": "1\n-1\n1\n"}, "graph_labels", ": 3 labels for 2 graphs"),
    ({"graph_indicator": "1\n1\n1\n2\n3\n", "graph_labels": "1\n2\n3\n"},
     "graph_labels", ": need exactly 2 classes, found [1, 2, 3]"),
    ({"A": "1, 2\n2, 6\n"}, "A", ":2: vertex id out of range"),
    ({"A": "1, 2\n0, 1\n"}, "A", ":2: vertex id out of range"),
    ({"A": "1, 2\n3, 3\n"}, "A", ":2: self-loop on vertex 3"),
    ({"A": "1, 2\n\n5, 2\n"}, "A", ":3: edge crosses graphs 2 and 1"),
    ({"A": "1, 2\n3, 3\n1, 9\n"}, "A", ":2: self-loop on vertex 3"),
    ({"A": "1, 2\n4, 0\n"}, "A", ":2: vertex id out of range"),
    ({"A": "1, 2\n9, 9\n"}, "A", ":2: vertex id out of range"),
    ({"A": "1, 2\n3, 3\n", "edge_attributes": "1\n"}, "edge_attributes",
     ": 1 rows for 2 edges"),
    ({"edge_attributes": "1\n1\n"}, "edge_attributes", ": 2 rows for 6 edges"),
    ({"node_labels": "0\n1\n0\n1\n"}, "node_labels",
     ": 4 labels for 5 vertices"),
    ({"node_attributes": "0.5\n1.0\n"}, "node_attributes",
     ": 2 rows for 5 vertices"),
], ids=["ids-not-contiguous", "label-count", "three-classes", "id-too-large",
        "id-zero", "self-loop", "cross-graph", "first-bad-line-wins",
        "range-before-cross", "range-before-self-loop",
        "edge-attr-count-before-edges", "edge-attr-count", "node-label-count",
        "node-attr-count"])
def test_tu_names_each_malformed_file(tmp_path, files, file, message):
    d = write_toy_tu(tmp_path)
    for kind, text in files.items():
        (d / f"TOY_{kind}.txt").write_text(text)
    with pytest.raises(GraphError) as err:
        load_tu_dataset(d)
    assert str(err.value) == f"{d / f'TOY_{file}.txt'}{message}"
