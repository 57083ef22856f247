import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wl2gnn.graphs import (
    Graph,
    TriangleConfig,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_neighborhood_graph,
    generate_triangle_dataset,
)
from wl2gnn.wl import (
    Palette,
    color_histogram,
    distinguishable,
    initial_coloring,
    refine_wl1,
    refine_wl2,
    run_wl,
    run_wl_pair,
)


# ---------------------------------------------------------------- oracles

def isomorphic_brute_force(g, h):
    """Permutation search; only sane for n <= 8."""
    if g.n != h.n or g.num_edges != h.num_edges:
        return False
    la = g.vertex_labels or (0,) * g.n
    lb = h.vertex_labels or (0,) * h.n
    eb = set(h.edges)
    for perm in itertools.permutations(range(g.n)):
        if any(la[v] != lb[perm[v]] for v in range(g.n)):
            continue
        mapped = {(min(perm[i], perm[j]), max(perm[i], perm[j]))
                  for i, j in g.edges}
        if mapped == eb:
            return True
    return False


def partition_of(coloring):
    groups = {}
    for tup, c in coloring.items():
        groups.setdefault(c, set()).add(tup)
    return frozenset(frozenset(s) for s in groups.values())


def refines(fine, coarse):
    """Every fine block sits inside some coarse block."""
    return all(any(f <= c for c in coarse) for f in fine)


@st.composite
def simple_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(p for p, keep in zip(pairs, mask) if keep))


def two_triangles():
    return disjoint_union([cycle_graph(3), cycle_graph(3)])


# ------------------------------------------------------- initial coloring

def test_initial_k1_constant_on_unlabeled():
    c = initial_coloring(cycle_graph(6), 1, Palette())
    assert len(set(c.values())) == 1 and len(c) == 6


def test_initial_k1_follows_labels():
    g = Graph(4, (), vertex_labels=(0, 1, 1, 0))
    c = initial_coloring(g, 1, Palette())
    hist = Counter(c.values())
    assert sorted(hist.values()) == [2, 2]
    assert c[(0,)] == c[(3,)] and c[(1,)] == c[(2,)]
    assert c[(0,)] != c[(1,)]


def test_initial_k2_c6_three_types():
    c = initial_coloring(cycle_graph(6), 2, Palette())
    hist = Counter(c.values())
    assert sorted(hist.values()) == [6, 12, 18]  # self, edge, non-edge


def test_initial_k2_symmetric_in_pair_order():
    g = Graph(3, ((0, 1),), vertex_labels=(0, 1, 0))
    c = initial_coloring(g, 2, Palette())
    for i in range(3):
        for j in range(3):
            assert c[(i, j)] == c[(j, i)]


def test_initial_rejects_bad_k():
    with pytest.raises(ValueError):
        initial_coloring(cycle_graph(3), 3, Palette())


def test_triangle_graphs_start_with_two_colors():
    cfg = TriangleConfig(vertex_counts=(8,), samples_per_cell=1,
                         max_attempts_per_cell=4000)
    graphs, _, _ = generate_triangle_dataset(5, cfg)
    for g in graphs:
        c = initial_coloring(g, 1, Palette())
        hist = Counter(c.values())
        assert sorted(hist.values()) == sorted(Counter(g.vertex_labels).values())


# ------------------------------------------------------------- refinement

def test_refine_wl1_regular_graph_stays_constant():
    g = cycle_graph(5)
    p = Palette()
    c = refine_wl1(g, initial_coloring(g, 1, p), p)
    assert len(set(c.values())) == 1


def test_refine_wl1_star():
    g = Graph(4, ((0, 1), (0, 2), (0, 3)))
    p = Palette()
    c = refine_wl1(g, initial_coloring(g, 1, p), p)
    hist = Counter(c.values())
    assert sorted(hist.values()) == [1, 3]


def test_wl1_c6_vs_triangles_equal_histograms_every_iteration():
    g, h = cycle_graph(6), two_triangles()
    p = Palette()
    cg, ch = initial_coloring(g, 1, p), initial_coloring(h, 1, p)
    for _ in range(6):
        assert color_histogram(cg) == color_histogram(ch)
        cg, ch = refine_wl1(g, cg, p), refine_wl1(h, ch, p)


def test_refine_wl2_single_vertex_stable():
    g = Graph(1, ())
    p = Palette()
    c0 = initial_coloring(g, 2, p)
    c1 = refine_wl2(g, c0, p)
    assert partition_of(c0) == partition_of(c1)


def test_wl2_separates_c6_from_triangles_in_one_step():
    g, h = cycle_graph(6), two_triangles()
    p = Palette()
    cg, ch = initial_coloring(g, 2, p), initial_coloring(h, 2, p)
    assert color_histogram(cg) == color_histogram(ch)
    cg, ch = refine_wl2(g, cg, p), refine_wl2(h, ch, p)
    assert color_histogram(cg) != color_histogram(ch)


def test_wl2_c4_keeps_edges_and_diagonals_apart():
    g = cycle_graph(4)
    p = Palette()
    c = initial_coloring(g, 2, p)
    for _ in range(4):
        c = refine_wl2(g, c, p)
    assert c[(0, 1)] != c[(0, 2)]  # edge vs diagonal non-edge


# ------------------------------------------------------------ convergence

def test_run_wl_complete_graph_one_iteration():
    c, iters = run_wl(complete_graph(5), 1)
    assert iters == 1
    assert len(set(c.values())) == 1


def test_run_wl_p4_two_classes():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    c, _ = run_wl(g, 1)
    hist = Counter(c.values())
    assert sorted(hist.values()) == [2, 2]
    assert c[(0,)] == c[(3,)] and c[(1,)] == c[(2,)]


def test_run_wl_edge_neighborhood_of_regular_graph_one_iteration():
    for g in (cycle_graph(6), complete_graph(5), two_triangles()):
        h = edge_neighborhood_graph(g)
        c, iters = run_wl(h, 1)
        assert iters == 1
        hist = sorted(color_histogram(c).values())
        d = g.degree(0)
        assert hist == sorted((g.n, g.n * d // 2))


@settings(max_examples=40, deadline=None)
@given(simple_graphs(), st.integers(min_value=1, max_value=2))
def test_run_wl_iteration_bound(g, k):
    _, iters = run_wl(g, k)
    assert 1 <= iters <= g.n ** k


# -------------------------------------------------------- refinement laws

@settings(max_examples=40, deadline=None)
@given(simple_graphs(), st.integers(min_value=1, max_value=2))
def test_refinement_never_merges_classes(g, k):
    p = Palette()
    c = initial_coloring(g, k, p)
    step = refine_wl1 if k == 1 else refine_wl2
    for _ in range(3):
        nxt = step(g, c, p)
        assert refines(partition_of(nxt), partition_of(c))
        c = nxt


@settings(max_examples=30, deadline=None)
@given(simple_graphs(max_n=6), st.integers(min_value=1, max_value=2),
       st.randoms(use_true_random=False))
def test_histogram_invariant_under_vertex_permutation(g, k, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph(g.n, tuple((perm[i], perm[j]) for i, j in g.edges))
    cg, ch = run_wl_pair(g, h, k)
    assert color_histogram(cg) == color_histogram(ch)


def reference_refinement(graphs, k, palette):
    """The stop rule by partitions: steps every graph in lockstep until
    the partition over all their tuples stops changing; returns
    (colorings, rounds)."""
    step = refine_wl1 if k == 1 else refine_wl2
    colorings = [initial_coloring(g, k, palette) for g in graphs]

    def tagged(colorings):
        return partition_of({(gi,) + t: c for gi, coloring in
                             enumerate(colorings) for t, c in coloring.items()})

    rounds = 0
    while True:
        rounds += 1
        new = [step(g, c, palette) for g, c in zip(graphs, colorings)]
        if tagged(new) == tagged(colorings):
            return new, rounds
        colorings = new


@settings(max_examples=60, deadline=None)
@given(simple_graphs(), simple_graphs(), st.integers(min_value=1, max_value=2))
def test_color_count_stop_rule_matches_partition_stop_rule(g, h, k):
    (want,), rounds = reference_refinement([g], k, Palette())
    assert run_wl(g, k) == (want, rounds)
    want_g, want_h = reference_refinement([g, h], k, Palette())[0]
    assert run_wl_pair(g, h, k) == (want_g, want_h)


def test_palette_determinism():
    g = cycle_graph(7)
    a, _ = run_wl(g, 2)
    b, _ = run_wl(g, 2)
    assert a == b


# -------------------------------------------------------- distinguishable

def test_c6_vs_triangles_k1_false_k2_true():
    g, h = cycle_graph(6), two_triangles()
    assert distinguishable(g, h, 1) is False
    assert distinguishable(g, h, 2) is True


def test_self_comparison_never_distinguishable():
    g = cycle_graph(5)
    assert distinguishable(g, g, 1) is False
    assert distinguishable(g, g, 2) is False


def test_labeled_graphs_compare_by_label():
    a = Graph(2, ((0, 1),), vertex_labels=(0, 0))
    b = Graph(2, ((0, 1),), vertex_labels=(0, 1))
    assert distinguishable(a, b, 1) is True


@settings(max_examples=40, deadline=None)
@given(simple_graphs(max_n=6), simple_graphs(max_n=6),
       st.integers(min_value=1, max_value=2))
def test_distinguishable_implies_non_isomorphic(g, h, k):
    if distinguishable(g, h, k):
        assert not isomorphic_brute_force(g, h)


@settings(max_examples=40, deadline=None)
@given(simple_graphs(max_n=6), simple_graphs(max_n=6))
def test_wl2_at_least_as_strong_as_wl1(g, h):
    if distinguishable(g, h, 1):
        assert distinguishable(g, h, 2)


# ------------------------------------------------------------- histograms

def test_histogram_counts_sum_to_tuple_count():
    g = cycle_graph(5)
    for k in (1, 2):
        c, _ = run_wl(g, k)
        assert sum(color_histogram(c).values()) == g.n ** k
