"""Undirected graphs, structural transforms and dataset construction.

Graphs are immutable: vertex set 0..n-1, a canonical tuple of undirected
edges (i, j) with i <= j, float feature matrices for vertices and edges,
and optional integer vertex labels. Base graphs built by the generators
carry no self-loops; `graph_power` introduces one per vertex because a
vertex has distance zero to itself.

The triangle dataset is drawn attempt by attempt from one seeded
generator, so each attempt's random draws fix every later cell's graphs.
An attempt makes three or four `rng.choice` calls; the rest is a few
array operations on a boolean edge vector indexed by pair code, with
per-n lookup tables built once per vertex count, and a `Graph` only for
an accepted draw.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from numbers import Real

import numpy as np


class GraphError(ValueError):
    """Raised for structurally invalid graphs or malformed dataset files."""


def is_integer(value):
    """Whether `value` is a Python or numpy integer; a bool is neither."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value):
    """Whether `value` is a real number; a bool is none."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_counts(**counts):
    """Raises `ValueError` naming the first count that is not an integer
    or is below 1."""
    for name, value in counts.items():
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def check_radius(r):
    """Raises `GraphError` unless `r` is an integer of at least 1."""
    if not is_integer(r):
        raise GraphError(f"radius must be an integer, got {r!r}")
    if r < 1:
        raise GraphError(f"radius must be >= 1, got {r}")


def _as_features(arr, rows, what):
    if arr is None:
        return np.zeros((rows, 0), dtype=np.float64)
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != rows:
        raise GraphError(f"{what} must be a ({rows}, d) matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True, eq=False)
class Graph:
    n: int
    edges: tuple
    vertex_features: np.ndarray = None
    edge_features: np.ndarray = None
    vertex_labels: tuple | None = None

    def __post_init__(self):
        if not is_integer(self.n):
            raise GraphError(f"vertex count must be an integer, got {self.n!r}")
        if self.n < 0:
            raise GraphError(f"vertex count must be non-negative, got {self.n}")
        canon = []
        seen = set()
        for e in self.edges:
            i, j = e
            if not (is_integer(i) and is_integer(j)
                    and 0 <= i < self.n and 0 <= j < self.n):
                raise GraphError(f"edge {e} references a vertex outside 0..{self.n - 1}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(key)
            canon.append(key)
        order = sorted(range(len(canon)), key=lambda k: canon[k])
        object.__setattr__(self, "edges", tuple(canon[k] for k in order))
        vf = _as_features(self.vertex_features, self.n, "vertex_features")
        ef = _as_features(self.edge_features, len(canon), "edge_features")
        # edge features follow the canonical edge order
        object.__setattr__(self, "vertex_features", vf)
        object.__setattr__(self, "edge_features", ef[order] if ef.shape[0] else ef)
        if self.vertex_labels is not None:
            labels = tuple(self.vertex_labels)
            for v, x in enumerate(labels):
                if not is_integer(x):
                    raise GraphError(f"vertex {v} has label {x!r}, which is "
                                     "not an integer")
            labels = tuple(map(int, labels))
            if len(labels) != self.n:
                raise GraphError("vertex_labels length does not match vertex count")
            object.__setattr__(self, "vertex_labels", labels)

    @property
    def num_edges(self):
        return len(self.edges)

    @cached_property
    def adjacency(self):
        """Neighbor sets; a self-loop (v, v) puts v into its own set."""
        adj = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def edge_index(self):
        """Canonical edge (i <= j) to position in `edges`."""
        return {e: k for k, e in enumerate(self.edges)}

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edge_index

    def edge_id(self, i, j):
        return self.edge_index[(min(i, j), max(i, j))]

    def degree(self, v):
        """Neighbor count, self excluded."""
        return len(self.adjacency[v] - {v})

    def has_self_loops(self):
        return any(i == j for i, j in self.edges)


def check_feature_widths(graphs):
    """Raises a GraphError naming the first graph whose vertex or edge
    feature width differs from the first graph's."""
    widths = [(g.vertex_features.shape[1], g.edge_features.shape[1])
              for g in graphs]
    for k, own in enumerate(widths):
        if own != widths[0]:
            raise GraphError(f"graph {k} has vertex and edge feature widths "
                             f"{own}, graph 0 has {widths[0]}")


def cycle_graph(n):
    """The n-cycle, n >= 3: the circulant with offset 1."""
    if is_integer(n) and n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return circulant_graph(n, [1])


def complete_graph(n):
    """K_n, n >= 1: the circulant with every offset."""
    # a count that is no integer fails in `circulant_graph`
    offsets = range(1, n // 2 + 1) if is_integer(n) else ()
    return circulant_graph(n, offsets)


def circulant_graph(n, offsets):
    """Vertices 0..n-1 (n >= 1), i adjacent to (i +/- s) mod n for each
    offset s in 1..n//2, every vertex and edge feature 1.

    Degree is 2 * len(offsets), minus one for the antipodal offset n/2.
    """
    if not (is_integer(n) and n >= 1):
        raise GraphError(f"vertex count must be an integer of at least 1, "
                         f"got {n!r}")
    offsets = list(offsets)
    for s in offsets:
        if not (is_integer(s) and 1 <= s <= n // 2):
            raise GraphError(f"offset {s} outside 1..{n // 2}")
    edges = {tuple(sorted((i, (i + int(s)) % n)))
             for s in offsets for i in range(n)}
    return Graph(n, tuple(edges),
                 vertex_features=np.ones((n, 1)),
                 edge_features=np.ones((len(edges), 1)))


def _offsets(counts):
    """[0, c0, c0 + c1, ...] as int64."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _union_edges(graphs, voff):
    """The base edges of the disjoint union, as an (E, 2) int64 array of
    union vertex ids in graph order, and the edge offset of each graph;
    `voff` is `_offsets` of the vertex counts."""
    counts = [len(g.edges) for g in graphs]
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(
        g.edges for g in graphs)), dtype=np.int64, count=2 * sum(counts))
    base = flat.reshape(-1, 2)
    base += np.repeat(voff[:-1], counts)[:, None]
    return base, _offsets(counts)


def disjoint_union(graphs):
    """Relabels vertices with cumulative offsets; features are stacked."""
    graphs = list(graphs)
    if not graphs:
        raise GraphError("disjoint union of zero graphs")
    check_feature_widths(graphs)
    voff = _offsets([g.n for g in graphs])
    edges, _ = _union_edges(graphs, voff)
    vf = np.vstack([g.vertex_features for g in graphs])
    ef = np.vstack([g.edge_features for g in graphs])
    labels = None
    if all(g.vertex_labels is not None for g in graphs):
        labels = tuple(chain.from_iterable(g.vertex_labels for g in graphs))
    return Graph(int(voff[-1]), tuple(map(tuple, edges.tolist())),
                 vertex_features=vf, edge_features=ef, vertex_labels=labels)


def _bfs_within(adj, source, radius):
    """Vertices at shortest-path distance <= radius from source."""
    seen = {source: 0}
    frontier = deque([source])
    while frontier:
        v = frontier.popleft()
        if seen[v] == radius:
            continue
        for u in adj[v]:
            if u not in seen:
                seen[u] = seen[v] + 1
                frontier.append(u)
    return seen


def graph_power(g, r):
    """Graph on the same vertices with edges between all pairs at
    shortest-path distance <= r, plus a self-loop at every vertex.

    Edge features of surviving original edges are kept; new edges and
    self-loops get zero rows (when the graph carries edge features).
    """
    if g.n == 0:
        raise GraphError("graph power undefined on the empty graph")
    check_radius(r)
    base_adj = [g.adjacency[v] - {v} for v in range(g.n)]
    edges = []
    for v in range(g.n):
        reach = _bfs_within(base_adj, v, r)
        edges.append((v, v))
        edges.extend((v, u) for u in reach if u > v)
    edges = tuple(sorted(edges))
    de = g.edge_features.shape[1]
    ef = np.zeros((len(edges), de))
    if de:
        for k, e in enumerate(edges):
            if e in g.edge_index:
                ef[k] = g.edge_features[g.edge_index[e]]
    return Graph(g.n, edges, vertex_features=g.vertex_features.copy(),
                 edge_features=ef, vertex_labels=g.vertex_labels)


def edge_neighborhood_graph(g):
    """Graph whose vertices are the 2-multisets {v, v} and {v, u} of
    vertices and edges of g, adjacent iff their multiset intersection
    has exactly one element.

    Vertex order: the n loop multisets in vertex order, then the edges
    in canonical order. Vertex labels mark the two kinds (0 = loop,
    1 = edge) since they are distinct objects, not an artifact of the
    embedding.
    """
    if g.n == 0:
        raise GraphError("edge neighborhood graph undefined on the empty graph")
    if g.has_self_loops():
        raise GraphError("edge neighborhood graph expects a loop-free base graph")
    m = g.num_edges
    edges = []
    # loop {v, v} meets edge {i, j} in exactly {v} iff v is an endpoint
    for k, (i, j) in enumerate(g.edges):
        edges.append((i, g.n + k))
        edges.append((j, g.n + k))
    # two distinct edges meet in exactly one shared endpoint
    for a in range(m):
        ia, ja = g.edges[a]
        for b in range(a + 1, m):
            ib, jb = g.edges[b]
            if len({ia, ja} & {ib, jb}) == 1:
                edges.append((g.n + a, g.n + b))
    total = g.n + m
    labels = (0,) * g.n + (1,) * m
    return Graph(total, tuple(edges),
                 vertex_features=np.ones((total, 1)),
                 edge_features=np.ones((len(edges), 1)),
                 vertex_labels=labels)


# ---------------------------------------------------------------------------
# triangle detection benchmark


@dataclass(frozen=True)
class TriangleConfig:
    """Parameter grid for the synthetic triangle dataset.

    Every cell is (vertex count, color proportion, density, planted class)
    and asks for `samples_per_cell` graphs containing exactly one
    unicolored triangle, whose color is the class. Density is the edge
    count over n^2 with edges counted in both directions, so the
    undirected edge target is round(density * n^2 / 2). Cells that are
    structurally infeasible or exhaust `max_attempts_per_cell` draws are
    skipped with a warning. Construction raises `ValueError` naming the
    first field that no cell could use: a grid field that is not a
    non-empty tuple or list, a count that is not an integer of at
    least 1, a density that is not a finite number, or a proportion
    that is not a pair in [0, 1] summing to 1.
    """

    vertex_counts: tuple = tuple(range(6, 33))
    proportions: tuple = ((0.5, 0.5), (0.75, 0.25), (0.25, 0.75))
    densities: tuple = (0.25, 0.5)
    samples_per_cell: int = 3
    max_attempts_per_cell: int = 10_000

    def __post_init__(self):
        for name in ("vertex_counts", "proportions", "densities"):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list)) and value):
                raise ValueError(f"{name} must be a non-empty tuple or "
                                 f"list, got {value!r}")
        check_counts(samples_per_cell=self.samples_per_cell,
                     max_attempts_per_cell=self.max_attempts_per_cell)
        for n in self.vertex_counts:
            check_counts(vertex_counts=n)
        for density in self.densities:
            if not (is_real(density) and math.isfinite(density)):
                raise ValueError(f"densities must be finite, got {density!r}")
        for prop in self.proportions:
            if not (isinstance(prop, (tuple, list)) and len(prop) == 2
                    and all(is_real(p) and 0 <= p <= 1 for p in prop)
                    and math.isclose(sum(prop), 1)):
                raise ValueError("proportions must be pairs in [0, 1] that "
                                 f"sum to 1, got {prop!r}")


def _pair_tables(n):
    """The sampler's tables for n vertices: the pairs i < j in row-major
    order, whose positions are their pair codes, and an (n, n) table of
    the code of (a, b) in either order. The diagonal gets code
    n(n-1)/2, one past the last pair, so an edge vector with a spare
    False slot reads it as absent."""
    pair_i, pair_j = np.triu_indices(n, 1)
    pair_code = np.full((n, n), len(pair_i), dtype=np.intp)
    codes = np.arange(len(pair_i))
    pair_code[pair_i, pair_j] = codes
    pair_code[pair_j, pair_i] = codes
    return pair_i, pair_j, pair_code


def _monochromatic_triangles(present, pair_code, colors):
    """Triangles whose three vertices share a color: trace(M^3) / 6 on
    the adjacency M restricted to same-colored pairs. `present` marks
    the edges by pair code and holds False at the diagonal's code."""
    same = present[pair_code] & (colors[:, None] == colors)
    m = same.astype(np.float64)
    # 0/1 products sum to exact integers in float64
    return int(np.vdot(m @ m, m)) // 6


def _sample_triangle_graph(rng, n, n_a, m_target, planted, pair_i, pair_j,
                           pair_code):
    """One attempt at a graph with exactly one unicolored triangle, of
    color `planted`; None when the draw has another one.

    The random draws are, in order: the n_a vertices of color 0, three
    vertices of the planted color, m_target pair codes and, when the
    triangle lacks some of its pairs, as many of the other picked pairs
    to drop so the edge count stays m_target.
    """
    colors = np.ones(n, dtype=np.int64)
    colors[rng.choice(n, size=n_a, replace=False)] = 0
    planted_pool = np.nonzero(colors == planted)[0]
    tri = rng.choice(planted_pool, size=3, replace=False)
    pick = rng.choice(len(pair_i), size=m_target, replace=False)
    present = np.zeros(len(pair_i) + 1, dtype=bool)
    present[pick] = True
    tri_codes = pair_code[tri, tri[[1, 2, 0]]]
    n_missing = 3 - np.count_nonzero(present[tri_codes])
    if n_missing:
        # plant, then drop as many of the other picked pairs, in pick
        # order, to keep the count
        present[tri_codes] = False
        others = pick[present[pick]]
        present[tri_codes] = True
        drop = rng.choice(len(others), size=n_missing, replace=False)
        present[others[drop]] = False
    if _monochromatic_triangles(present, pair_code, colors) != 1:
        return None
    codes = np.flatnonzero(present)
    edges = zip(pair_i[codes].tolist(), pair_j[codes].tolist())
    features = np.zeros((n, 2))
    features[np.arange(n), colors] = 1.0
    return Graph(n, tuple(edges), vertex_features=features,
                 vertex_labels=tuple(colors.tolist()))


def generate_triangle_dataset(seed, config=None):
    """Builds the triangle dataset; returns (graphs, labels, warnings).

    Labels are 0/1 for classes A/B (the color of the unique unicolored
    triangle). Vertex features are the one-hot colors; there are no
    edge features. Fully deterministic in the seed.

    Both class cells of a (vertex count, proportion, density)
    combination must fill up or the combination is dropped entirely.
    Without the pairing, combinations where only one class is feasible
    would make labels predictable from color counts alone.

    A seed that is not a non-negative integer raises `ValueError`.
    """
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    config = config or TriangleConfig()
    rng = np.random.default_rng(seed)
    graphs, labels, warnings = [], [], []
    for n in config.vertex_counts:
        pair_i, pair_j, pair_code = _pair_tables(n)
        for prop in config.proportions:
            n_a = int(round(prop[0] * n))
            n_b = n - n_a
            for density in config.densities:
                m_target = int(round(density * n * n / 2))
                # each class cell's graphs; a cell that fails has a warning
                filled = {}
                for planted in (0, 1):
                    cell = (f"n={n} prop={prop[0]:g}/{prop[1]:g} "
                            f"density={density:g} class={'AB'[planted]}")
                    if (planted == 0 and n_a < 3) or (planted == 1 and n_b < 3):
                        warnings.append(f"skipped {cell}: fewer than 3 vertices "
                                        "of the planted color")
                        continue
                    if not 3 <= m_target <= len(pair_i):
                        warnings.append(f"skipped {cell}: edge target {m_target} "
                                        "out of range")
                        continue
                    cell_graphs, attempts = [], 0
                    while len(cell_graphs) < config.samples_per_cell \
                            and attempts < config.max_attempts_per_cell:
                        attempts += 1
                        g = _sample_triangle_graph(rng, n, n_a, m_target,
                                                   planted, pair_i, pair_j,
                                                   pair_code)
                        if g is not None:
                            cell_graphs.append(g)
                    if len(cell_graphs) < config.samples_per_cell:
                        warnings.append(f"skipped {cell}: {len(cell_graphs)}/"
                                        f"{config.samples_per_cell} samples after "
                                        f"{attempts} attempts")
                        continue
                    filled[planted] = cell_graphs
                if len(filled) < 2:
                    dropped = "".join("AB"[c] for c, kept in filled.items()
                                      if kept)
                    if dropped:
                        warnings.append(
                            f"dropped n={n} prop={prop[0]:g}/{prop[1]:g} "
                            f"density={density:g} class={dropped}: "
                            "sibling class cell failed")
                    continue
                for planted, cell_graphs in filled.items():
                    graphs.extend(cell_graphs)
                    labels.extend([planted] * len(cell_graphs))
    return graphs, np.asarray(labels, dtype=np.int64), warnings


# ---------------------------------------------------------------------------
# TU-format dataset interchange


def _parse_table(path, kind, width=None):
    """Line numbers of the non-blank lines of a comma or space separated
    file of `kind` (int or float) values, and a (rows, width) array of
    them; `width` defaults to the first row's."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    linenos, values = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = [kind(x) for x in line.replace(",", " ").split()]
        except ValueError:
            raise GraphError(f"{path}:{lineno}: expected "
                             f"{'integers' if kind is int else 'floats'}, "
                             f"got {line!r}") from None
        if kind is float and not all(map(math.isfinite, row)):
            raise GraphError(f"{path}:{lineno}: non-finite value in {line!r}")
        width = len(row) if width is None else width
        if len(row) != width:
            raise GraphError(f"{path}:{lineno}: expected {width} fields, "
                             f"got {len(row)}")
        linenos.append(lineno)
        values.extend(row)
    try:
        table = np.array(values, dtype=np.int64 if kind is int else np.float64)
    except OverflowError:
        k = next(k for k, x in enumerate(values) if not -2**63 <= x < 2**63)
        raise GraphError(f"{path}:{linenos[k // width]}: integer outside "
                         "the int64 range") from None
    return linenos, table.reshape(len(linenos), width or 0)


def load_tu_dataset(path):
    """Loads a dataset in the TU text format from a directory.

    Expects <name>_A.txt, <name>_graph_indicator.txt and
    <name>_graph_labels.txt, with vertex ids 1-indexed; optional
    node labels (one-hot encoded), node attributes and edge attributes.
    Each graph's vertices must be consecutive lines of the indicator
    file, in graph order. An edge listed more than once takes the
    attributes of its first line. Returns (graphs, labels) with labels
    remapped to {0, 1}.
    """
    path = os.path.abspath(path)
    name = os.path.basename(path.rstrip("/"))
    prefix = os.path.join(path, name)

    indicator_lines, indicator = _parse_table(
        f"{prefix}_graph_indicator.txt", int, 1)
    graph_of = indicator[:, 0] - 1
    n_total = len(graph_of)
    n_graphs = int(graph_of.max()) + 1 if n_total else 0
    if n_total and not np.array_equal(np.unique(graph_of), np.arange(n_graphs)):
        raise GraphError(f"{prefix}_graph_indicator.txt: graph ids not contiguous")
    # local vertex ids below are offsets into each graph's block of
    # vertices, which holds only while the blocks come in graph order
    back = np.flatnonzero(np.diff(graph_of) < 0)
    if back.size:
        k = int(back[0]) + 1
        raise GraphError(f"{prefix}_graph_indicator.txt:{indicator_lines[k]}: "
                         f"vertex of graph {graph_of[k] + 1} after one of "
                         f"graph {graph_of[k - 1] + 1}; each graph's vertices "
                         "must be consecutive and in graph order")

    _, raw_labels = _parse_table(f"{prefix}_graph_labels.txt", int, 1)
    if len(raw_labels) != n_graphs:
        raise GraphError(f"{prefix}_graph_labels.txt: {len(raw_labels)} labels "
                         f"for {n_graphs} graphs")
    distinct, labels = np.unique(raw_labels[:, 0], return_inverse=True)
    if len(distinct) != 2:
        raise GraphError(f"{prefix}_graph_labels.txt: need exactly 2 classes, "
                         f"found {distinct.tolist()}")

    edge_lines, uv = _parse_table(f"{prefix}_A.txt", int, 2)
    attr_path = f"{prefix}_edge_attributes.txt"
    edge_attrs = None
    if os.path.exists(attr_path):
        _, edge_attrs = _parse_table(attr_path, float)
        if len(edge_attrs) != len(uv):
            raise GraphError(f"{attr_path}: {len(edge_attrs)} rows for "
                             f"{len(uv)} edges")
    # the first bad line wins; on it, a vertex id out of range comes
    # before a cross-graph edge, which comes before a self-loop
    in_range = ((uv >= 1) & (uv <= n_total)).all(axis=1)
    ends = np.where(in_range[:, None], uv - 1, 0)
    graph_uv = graph_of[ends]
    crosses = graph_uv[:, 0] != graph_uv[:, 1]
    bad = np.flatnonzero(~in_range | crosses | (ends[:, 0] == ends[:, 1]))
    if bad.size:
        k = bad[0]
        where = f"{prefix}_A.txt:{edge_lines[k]}"
        if not in_range[k]:
            raise GraphError(f"{where}: vertex id out of range")
        if crosses[k]:
            raise GraphError(f"{where}: edge crosses graphs "
                             f"{graph_uv[k, 0] + 1} and {graph_uv[k, 1] + 1}")
        raise GraphError(f"{where}: self-loop on vertex {uv[k, 0]}")
    # each undirected edge once, in (graph, i, j) order, with the index
    # of the first line that lists it
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    _, first = np.unique(lo * n_total + hi, return_index=True)
    lo, hi = lo[first], hi[first]

    blocks, vertex_labels = [], None
    node_label_path = f"{prefix}_node_labels.txt"
    if os.path.exists(node_label_path):
        _, node_labels = _parse_table(node_label_path, int, 1)
        if len(node_labels) != n_total:
            raise GraphError(f"{node_label_path}: {len(node_labels)} labels "
                             f"for {n_total} vertices")
        _, column = np.unique(node_labels[:, 0], return_inverse=True)
        blocks.append(np.eye(column.max() + 1)[column])
        vertex_labels = node_labels[:, 0].tolist()
    node_attr_path = f"{prefix}_node_attributes.txt"
    if os.path.exists(node_attr_path):
        _, node_attrs = _parse_table(node_attr_path, float)
        if len(node_attrs) != n_total:
            raise GraphError(f"{node_attr_path}: {len(node_attrs)} rows for "
                             f"{n_total} vertices")
        blocks.append(node_attrs)
    features = np.hstack(blocks) if blocks else np.ones((n_total, 1))

    # graph g owns vertices vb[g]:vb[g + 1] and edges eb[g]:eb[g + 1]
    vb = np.searchsorted(graph_of, np.arange(n_graphs + 1))
    edge_graph = graph_of[lo]
    eb = np.searchsorted(edge_graph, np.arange(n_graphs + 1)).tolist()
    edge_i = (lo - vb[edge_graph]).tolist()
    edge_j = (hi - vb[edge_graph]).tolist()
    vb = vb.tolist()
    graphs = []
    for g in range(n_graphs):
        v0, v1, e0, e1 = vb[g], vb[g + 1], eb[g], eb[g + 1]
        ef = None if edge_attrs is None else edge_attrs[first[e0:e1]]
        vl = None if vertex_labels is None else vertex_labels[v0:v1]
        graphs.append(Graph(v1 - v0, tuple(zip(edge_i[e0:e1], edge_j[e0:e1])),
                            vertex_features=features[v0:v1].copy(),
                            edge_features=ef, vertex_labels=vl))
    return graphs, labels


def _write_table(path, rows):
    """Writes a matrix one comma separated line per row, each value in
    the shortest form that reads back exactly."""
    with open(path, "w") as fh:
        for row in rows.tolist():
            fh.write(", ".join(map(repr, row)) + "\n")


def save_tu_dataset(graphs, labels, path, name):
    """Writes graphs in the TU text format (edges in both directions).

    When every graph carries vertex labels they are written, and the
    loader reads back their one-hot columns in place of the vertex
    features; otherwise vertex features of width above 0 are written as
    node attributes. Edge features of width above 0 are written as edge
    attributes, one row per line of `_A.txt`.

    A graph with no vertices, which the format cannot hold, a non-finite
    feature to write, which the loader rejects, or feature widths that
    differ between graphs raise `GraphError`; a label count other than
    the graph count, a label that is not an integer, or labels of other
    than two distinct values raise `ValueError`; all before any
    directory or file is made."""
    labelled = all(g.vertex_labels is not None for g in graphs)
    for k, g in enumerate(graphs):
        if g.n == 0:
            raise GraphError(f"graph {k} has no vertices: the TU format "
                             "cannot hold it")
        if not (np.isfinite(g.edge_features).all() and (
                labelled or np.isfinite(g.vertex_features).all())):
            raise GraphError(f"graph {k} has a non-finite feature, which "
                             "the TU loader rejects")
    check_feature_widths(graphs)
    if len(labels) != len(graphs):
        raise ValueError(f"{len(labels)} labels for {len(graphs)} graphs")
    for k, y in enumerate(labels):
        if not is_integer(y):
            raise ValueError(f"graph label {k} is {y!r}, which is not an "
                             "integer")
    labels = np.asarray(labels, dtype=np.int64)
    distinct = np.unique(labels)
    if len(distinct) != 2:
        raise ValueError("graph labels need exactly 2 classes, found "
                         f"{distinct.tolist()}")
    voff = _offsets([g.n for g in graphs])
    edges, _ = _union_edges(graphs, voff)
    tables = {
        "A": np.hstack([edges, edges[:, ::-1]]).reshape(-1, 2) + 1,
        "graph_indicator": np.repeat(np.arange(1, len(graphs) + 1),
                                     np.diff(voff))[:, None],
        "graph_labels": labels[:, None]}
    if labelled:
        tables["node_labels"] = np.fromiter(
            chain.from_iterable(g.vertex_labels for g in graphs),
            dtype=np.int64, count=int(voff[-1]))[:, None]
    elif graphs[0].vertex_features.shape[1]:
        tables["node_attributes"] = np.vstack(
            [g.vertex_features for g in graphs])
    if graphs[0].edge_features.shape[1]:
        tables["edge_attributes"] = np.vstack(
            [g.edge_features for g in graphs]).repeat(2, axis=0)
    os.makedirs(path, exist_ok=True)
    for suffix, rows in tables.items():
        _write_table(os.path.join(path, f"{name}_{suffix}.txt"), rows)
