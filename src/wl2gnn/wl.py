"""Color refinement on vertex tuples (1- and 2-dimensional variants).

Colors are non-negative integers handed out by a `Palette`, which maps
canonical refinement keys to fresh integers in first-encounter order.
Runs that should be comparable (two graphs, permuted copies) must share
one palette; refinement then assigns equal colors to equal keys across
graphs, so final histograms can be compared directly.

The 2-dimensional variant refines ordered vertex pairs: the new color
of (v_i, v_j) hashes the old color together with the multiset, over all
vertices u, of the color pairs (color(u, v_j), color(v_i, u)).
Convergence is detected on partition equivalence, never on equality of
the integer color values, which change every round.
"""

from __future__ import annotations

from collections import Counter


class Palette:
    """Injective map from refinement keys to fresh integer colors."""

    def __init__(self):
        self._colors = {}

    def color(self, key):
        if key not in self._colors:
            self._colors[key] = len(self._colors)
        return self._colors[key]

    def __len__(self):
        return len(self._colors)


def initial_coloring(g, k, palette):
    """Colors vertex k-tuples by their local type.

    k=1 colors a vertex by its label (constant if unlabeled). k=2 colors
    an ordered pair by the unordered endpoint labels plus a self-loop /
    edge / non-edge indicator, so (i, j) and (j, i) start equal.
    """
    if k not in (1, 2):
        raise ValueError(f"refinement order must be 1 or 2, got {k}")
    labels = g.vertex_labels or (0,) * g.n
    if k == 1:
        return {(v,): palette.color(("v", labels[v])) for v in range(g.n)}
    coloring = {}
    for i in range(g.n):
        for j in range(g.n):
            if i == j:
                kind, lab = 2, (labels[i],)
            else:
                kind = 1 if g.has_edge(i, j) else 0
                lab = tuple(sorted((labels[i], labels[j])))
            coloring[(i, j)] = palette.color(("p", lab, kind))
    return coloring


def refine_wl1(g, coloring, palette):
    new = {}
    for v in sorted(coloring):
        ms = tuple(sorted(coloring[(u,)] for u in g.adjacency[v[0]]))
        new[v] = palette.color((coloring[v], ms))
    return new


def refine_wl2(g, coloring, palette):
    new = {}
    for s in sorted(coloring):
        i, j = s
        ms = tuple(sorted((coloring[(u, j)], coloring[(i, u)])
                          for u in range(g.n)))
        new[s] = palette.color((coloring[s], ms))
    return new


def _partition(coloring):
    classes = {}
    for t, c in coloring.items():
        classes.setdefault(c, set()).add(t)
    return frozenset(frozenset(s) for s in classes.values())


def same_partition(a, b):
    return _partition(a) == _partition(b)


def _refiner(k):
    return refine_wl1 if k == 1 else refine_wl2


def run_wl(g, k, palette=None):
    """Refines to a stable coloring; returns (coloring, iterations).

    The count includes the final round that exhibited stability, so a
    coloring that is stable from the start reports one iteration. At
    most |V|^k rounds can run since each unstable round splits a class.
    """
    palette = palette if palette is not None else Palette()
    refine = _refiner(k)
    coloring = initial_coloring(g, k, palette)
    bound = max(1, g.n ** k)
    for iterations in range(1, bound + 1):
        new = refine(g, coloring, palette)
        if same_partition(coloring, new):
            return new, iterations
        coloring = new
    raise AssertionError("refinement failed to stabilize within |V|^k rounds")


def run_wl_pair(g, h, k):
    """Lockstep refinement of two graphs against one shared palette.

    Stops when the combined partition over both tuple sets is stable,
    which makes the two final colorings directly comparable. Returns
    (coloring_g, coloring_h).
    """
    palette = Palette()
    cg = initial_coloring(g, k, palette)
    ch = initial_coloring(h, k, palette)
    refine = _refiner(k)

    def combined(a, b):
        both = {("g",) + t: c for t, c in a.items()}
        both.update({("h",) + t: c for t, c in b.items()})
        return both

    bound = max(1, g.n ** k + h.n ** k)
    for _ in range(bound):
        ng = refine(g, cg, palette)
        nh = refine(h, ch, palette)
        if same_partition(combined(cg, ch), combined(ng, nh)):
            return ng, nh
        cg, ch = ng, nh
    raise AssertionError("refinement failed to stabilize within the tuple bound")


def color_histogram(coloring):
    return dict(Counter(coloring.values()))


def distinguishable(g, h, k):
    """True iff stable refinement separates the two graphs.

    Both graphs are refined against a shared palette; they count as
    indistinguishable iff the final color histograms agree exactly.
    """
    cg, ch = run_wl_pair(g, h, k)
    return color_histogram(cg) != color_histogram(ch)
