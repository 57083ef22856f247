"""Color refinement on vertex tuples (1- and 2-dimensional variants).

Colors are non-negative integers handed out by a `Palette`, which maps
canonical refinement keys to fresh integers in first-encounter order.
Runs that should be comparable (two graphs, permuted copies) must share
one palette; refinement then assigns equal colors to equal keys across
graphs, so final histograms can be compared directly.

The 2-dimensional variant refines ordered vertex pairs: the new color
of (v_i, v_j) hashes the old color together with the multiset, over all
vertices u, of the color pairs (color(u, v_j), color(v_i, u)).

Both refinements key a new color on the old one, so a round can only
split classes, never merge them. A round is therefore stable exactly
when the number of distinct colors over all refined graphs did not
grow, and that count is the stopping rule; the integer color values
themselves change every round.
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


def _refine_together(graphs, k, palette):
    """Refines the graphs in lockstep against one palette until a round
    splits no class; returns (colorings, rounds).

    Each round refines the graphs in list order, after initial colorings
    drawn in that order. The round count includes the round that
    exhibited stability. At most the total tuple count of rounds can run,
    since each unstable round adds a class.
    """
    refine = refine_wl1 if k == 1 else refine_wl2
    colorings = [initial_coloring(g, k, palette) for g in graphs]
    classes = len({c for coloring in colorings for c in coloring.values()})
    bound = max(1, sum(g.n ** k for g in graphs))
    for rounds in range(1, bound + 1):
        colorings = [refine(g, coloring, palette)
                     for g, coloring in zip(graphs, colorings)]
        grown = len({c for coloring in colorings for c in coloring.values()})
        if grown == classes:
            return colorings, rounds
        classes = grown
    raise AssertionError("refinement failed to stabilize within the tuple "
                         "count")


def run_wl(g, k, palette=None):
    """Refines to a stable coloring; returns (coloring, iterations).

    The count includes the final round that exhibited stability, so a
    coloring that is stable from the start reports one iteration. At
    most |V|^k rounds can run since each unstable round splits a class.
    """
    palette = palette if palette is not None else Palette()
    (coloring,), iterations = _refine_together([g], k, palette)
    return coloring, iterations


def run_wl_pair(g, h, k):
    """Lockstep refinement of two graphs against one shared palette.

    Stops when a round splits no class over both tuple sets, which makes
    the two final colorings directly comparable. Returns
    (coloring_g, coloring_h).
    """
    (cg, ch), _ = _refine_together([g, h], k, Palette())
    return cg, ch


def color_histogram(coloring):
    return dict(Counter(coloring.values()))


def distinguishable(g, h, k):
    """True iff stable refinement separates the two graphs.

    Both graphs are refined against a shared palette; they count as
    indistinguishable iff the final color histograms agree exactly.
    """
    cg, ch = run_wl_pair(g, h, k)
    return color_histogram(cg) != color_histogram(ch)
