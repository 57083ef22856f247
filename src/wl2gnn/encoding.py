"""Sparse feature encoding for 2-WL convolutions.

A graph is encoded against its r-th power. Every undirected vertex pair
(i, j) with an edge in the power graph gets one feature row: self-loops
first in vertex order, then proper edges in lexicographic order. The
initial feature of row (i, j) is the vertex feature block (x[v_i] when
i = j, zero otherwise) followed by the edge feature block (x[e_ij] when
the pair is an edge of the base graph, zero otherwise). Graphs without
edge features get one synthetic channel instead: 1.0 on self-loops and
base edges, 0.0 on pairs only connected in the power graph.

Aggregation is described by three pointer columns of equal length: for
every row t = (i, j) and every common neighbor l of v_i and v_j in the
power graph (both endpoints included, thanks to the self-loops), one
triple holds the target row of e_ij and the rows of e_il and e_lj. For
a self-loop target the two neighbor pointers name the same undirected
row twice. Triples are grouped by target row; within a group the common
neighbors are ordered endpoints first (i, then j), then the remaining
vertices ascending.

`encode_all` builds the encodings of a graph list run by run, with
array operations over the disjoint union of consecutive graphs: flat
tables over each graph's n x n vertex pairs hold the power adjacency and
the row of each power pair, and the candidates for l in row (i, j) are
the power neighbors of i. A run's graphs have summed n^3 at most
`_RUN_CUBES` unless it is one larger graph, and n^3 bounds both a
graph's candidates and its table entries, so transient memory does not
grow with the list. `encode` is `encode_all` on one graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .graphs import GraphError, check_feature_widths
# not called here: `graph_power` is the oracle of the row order, and the
# benchmark's tracer still wraps this name on this module
from .graphs import graph_power  # noqa: F401
from .tensor import ScatterIndex


@dataclass
class Wl2Encoding:
    z0: np.ndarray          # (m, width) float64 initial features
    ref_l: np.ndarray       # (gamma,) int64, target row of each triple
    ref_g1: np.ndarray      # (gamma,) int64, row of e_il
    ref_g2: np.ndarray      # (gamma,) int64, row of e_lj
    rows: np.ndarray        # (m, 2) int64, graph-local pair per row, i <= j
    seg: np.ndarray         # (m,) int64, graph of each row
    n_graphs: int
    radius: int

    @property
    def m(self):
        return self.z0.shape[0]

    @property
    def gamma(self):
        return self.ref_l.shape[0]

    @property
    def width(self):
        return self.z0.shape[1]

    @cached_property
    def scatter_indices(self):
        """ref_l, ref_g1 and ref_g2 as `ScatterIndex`es: every layer run
        on this encoding shares their scatter plans, which go with it."""
        return (ScatterIndex(self.ref_l), ScatterIndex(self.ref_g1),
                ScatterIndex(self.ref_g2))

    @cached_property
    def segment_index(self):
        """`seg` as a `ScatterIndex`, for pooling."""
        return ScatterIndex(self.seg)

    def triples(self):
        return list(zip(self.ref_l.tolist(), self.ref_g1.tolist(),
                        self.ref_g2.tolist()))


# n^3 bounds both the candidate triples of an n-vertex graph and its
# pair-table entries, of which a run holds a few arrays each
_RUN_CUBES = 1 << 20


def encode(g, r):
    """Encodes one graph against its r-th power."""
    return encode_all([g], r)[0]


def encode_all(graphs, r):
    """Encodes every graph of a list against its r-th power; returns one
    `Wl2Encoding` per graph, equal to what `encode` gives for it."""
    graphs = list(graphs)
    if r < 1:
        raise GraphError(f"radius must be >= 1, got {r}")
    check_feature_widths(graphs)
    for k, g in enumerate(graphs):
        if g.n == 0:
            raise GraphError(f"graph {k} is empty: its graph power is "
                             "undefined")
    out = []
    lo, cubes = 0, 0
    for k, g in enumerate(graphs):
        if k > lo and cubes + g.n ** 3 > _RUN_CUBES:
            out.extend(_encode_run(graphs[lo:k], r))
            lo, cubes = k, 0
        cubes += g.n ** 3
    if lo < len(graphs):
        out.extend(_encode_run(graphs[lo:], r))
    return out


def _offsets(counts):
    """[0, c0, c0 + c1, ...] as int64."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _union_edges(graphs, voff):
    """The base edges of the disjoint union, as an (E, 2) int64 array of
    union vertex ids in graph order, and the edge offset of each graph."""
    counts = [len(g.edges) for g in graphs]
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(
        g.edges for g in graphs)), dtype=np.int64, count=2 * sum(counts))
    base = flat.reshape(-1, 2)
    base += np.repeat(voff[:-1], counts)[:, None]
    return base, _offsets(counts)


def _csr_gather(ptr, keys):
    """Every position ptr[k] .. ptr[k + 1] - 1 for each k in `keys`, in
    order; returns (index into `keys`, position) per gathered entry."""
    counts = ptr[keys + 1] - ptr[keys]
    owner = np.repeat(np.arange(len(keys)), counts)
    shift = np.repeat(ptr[keys] - (np.cumsum(counts) - counts), counts)
    return owner, np.arange(len(owner)) + shift


def _encode_run(graphs, r):
    """`encode_all` on a run of graphs, through their disjoint union of
    N vertices. Each graph's n x n vertex pairs are numbered row-major
    one graph after another; pair (u, v) of one graph has the code
    `cbase[u] + v`, and flat tables indexed by code hold the power
    adjacency and the row of each power pair."""
    sizes = np.asarray([g.n for g in graphs], dtype=np.int64)
    voff = _offsets(sizes)
    N = int(voff[-1])
    gid = np.repeat(np.arange(len(graphs)), sizes)
    n_of = sizes[gid]
    code_start = _offsets(n_of)
    n_codes = int(code_start[-1])
    cbase = code_start[:-1] - voff[gid]

    def pairs_of(codes):
        u = np.searchsorted(code_start, codes, side="right") - 1
        return u, codes - cbase[u]

    base, _ = _union_edges(graphs, voff)
    is_proper = base[:, 0] != base[:, 1]
    a, b = np.concatenate([base[is_proper], base[is_proper, ::-1]]).T
    adj = np.zeros(n_codes, dtype=bool)
    adj[cbase[a] + b] = True
    _, adj_dst = pairs_of(np.flatnonzero(adj))
    adj_ptr = _offsets(np.bincount(a, minlength=N))

    # directed pairs within distance r: loops and base edges, then r - 1
    # steps from the pairs that the previous step reached first
    reach = adj.copy()
    reach[cbase + np.arange(N)] = True
    u, w = a, b
    for _ in range(r - 1):
        owner, pos = _csr_gather(adj_ptr, w)
        new = np.zeros(n_codes, dtype=bool)
        new[cbase[u[owner]] + adj_dst[pos]] = True
        new &= ~reach
        reach |= new
        u, w = pairs_of(np.flatnonzero(new))
    power = np.flatnonzero(reach)
    src, dst = pairs_of(power)
    power_ptr = _offsets(np.bincount(src, minlength=N))

    # rows per graph: its loops, then its proper pairs; the q-th proper
    # pair of the union lands on row voff[g + 1] + q
    upper = src < dst
    up_src, up_dst = src[upper], dst[upper]
    proper = np.bincount(gid[up_src], minlength=len(graphs))
    loop_row = np.arange(N) + _offsets(proper)[gid]
    up_row = voff[gid[up_src] + 1] + np.arange(len(up_src))
    row_of = np.empty(n_codes, dtype=np.int64)
    row_of[cbase + np.arange(N)] = loop_row
    row_of[cbase[up_src] + up_dst] = up_row
    row_of[cbase[up_dst] + up_src] = up_row
    m = N + len(up_row)
    rows = np.empty((m, 2), dtype=np.int64)
    rows[loop_row] = np.arange(N)[:, None]
    rows[up_row, 0] = up_src
    rows[up_row, 1] = up_dst

    dv = graphs[0].vertex_features.shape[1]
    de = graphs[0].edge_features.shape[1]
    z0 = np.zeros((m, dv + (de if de else 1)))
    z0[loop_row, :dv] = np.vstack([g.vertex_features for g in graphs])
    base_rows = row_of[cbase[base[is_proper, 0]] + base[is_proper, 1]]
    if de:
        z0[base_rows, dv:] = np.vstack(
            [g.edge_features for g in graphs])[is_proper]
    else:
        z0[loop_row, dv] = 1.0
        z0[base_rows, dv] = 1.0

    # the triples of row t = (i, j): l = i (pairs (i, i) and (i, j)),
    # l = j if j != i (pairs (i, j) and (j, j)), then every other l in
    # the power neighborhood of i, ascending, with (l, j) a power pair
    i, j = rows[:, 0], rows[:, 1]
    owner, pos = _csr_gather(power_ptr, i)
    l, jo = dst[pos], j[owner]
    lj = cbase[l] + jo
    keep = reach[lj] & (l != i[owner]) & (l != jo)
    t_o = owner[keep]
    front = 1 + (j != i)
    others = np.bincount(t_o, minlength=m)
    counts = front + others
    start = np.cumsum(counts) - counts
    ref_l = np.repeat(np.arange(m), counts)
    ref_g1 = np.empty(len(ref_l), dtype=np.int64)
    ref_g2 = np.empty(len(ref_l), dtype=np.int64)
    ref_g1[start] = loop_row[i]
    ref_g2[start] = np.arange(m)
    two = np.flatnonzero(front == 2)
    ref_g1[start[two] + 1] = two
    ref_g2[start[two] + 1] = loop_row[j[two]]
    # the others of a row follow its front, in candidate order
    ahead = start + front - (np.cumsum(others) - others)
    dest = np.arange(len(t_o)) + ahead[t_o]
    ref_g1[dest] = row_of[power[pos[keep]]]
    ref_g2[dest] = row_of[lj[keep]]

    # each graph gets arrays of its own, counting rows and vertices from
    # 0: views would keep the run's arrays alive as long as any unit, and
    # that heap layout made later training steps page-fault far more
    rb = _offsets(sizes + proper).tolist()
    tb = _offsets(np.add.reduceat(counts, rb[:-1])).tolist()
    vb = voff.tolist()
    out = []
    for k in range(len(graphs)):
        rs, re, ts, te = rb[k], rb[k + 1], tb[k], tb[k + 1]
        out.append(Wl2Encoding(
            z0=z0[rs:re].copy(), ref_l=ref_l[ts:te] - rs,
            ref_g1=ref_g1[ts:te] - rs, ref_g2=ref_g2[ts:te] - rs,
            rows=rows[rs:re] - vb[k], seg=np.zeros(re - rs, dtype=np.int64),
            n_graphs=1, radius=r))
    return out


def edge_neighborhood_pairs(graphs):
    """The edges of `edge_neighborhood_graph(g)` for every graph of a
    list, as (p, 2) int64 arrays of the rows of `encode(g, 1)`, in the
    same canonical order: the loop of v meets each edge at v, then two
    edges meet at their shared endpoint.

    Works on the disjoint union, with each vertex's incident edges in
    canonical order; no per-graph `Graph` is built.
    """
    graphs = list(graphs)
    if not graphs:
        return []
    voff = _offsets([g.n for g in graphs])
    base, eoff = _union_edges(graphs, voff)
    looped = np.flatnonzero(base[:, 0] == base[:, 1])
    if looped.size:
        k = int(np.searchsorted(eoff, looped[0], side="right")) - 1
        v = int(base[looped[0], 0] - voff[k])
        raise GraphError(f"graph {k} has a self-loop at vertex {v}: the edge "
                         "neighborhood graph expects a loop-free base graph")
    # rows of the radius-1 encodings, one after another: graph g's loop
    # v on row v + eoff[g], its edge k on row voff[g + 1] + eoff[g] + k
    n_edges = len(base)
    vgid = np.repeat(np.arange(len(graphs)), np.diff(voff))
    egid = np.repeat(np.arange(len(graphs)), np.diff(eoff))
    edge_row = voff[egid + 1] + np.arange(n_edges)
    vert = base.T.ravel()
    edge = np.tile(np.arange(n_edges), 2)
    order = np.lexsort((edge, vert))
    vert, edge = vert[order], edge[order]
    # each incidence meets the later ones of its vertex
    owner, pos = _csr_gather(_offsets(np.bincount(vert, minlength=voff[-1])),
                             vert)
    later = pos > owner
    first = np.concatenate([vert + eoff[vgid[vert]],
                            edge_row[edge[owner[later]]]])
    second = np.concatenate([edge_row[edge], edge_row[edge[pos[later]]]])
    keep = np.argsort(first * (voff[-1] + n_edges) + second)
    pairs = np.column_stack([first[keep], second[keep]])
    row_bounds = voff + eoff
    bounds = np.searchsorted(pairs[:, 0], row_bounds).tolist()
    row_bounds = row_bounds.tolist()
    return [pairs[bounds[k]:bounds[k + 1]] - row_bounds[k]
            for k in range(len(graphs))]


def stack_units(units, names, pointers):
    """Joins units, each a batch of its own, in one offset pass: returns
    the fields `names` as keyword arguments of the joined batch. Every
    field is concatenated first; then the row-pointer columns `pointers`,
    of equal length within a unit, shift in place by the rows of the
    units before, and `seg` by their graphs. In-place shifts after the
    concatenation: shifted copies left a heap on which later training
    steps page-faulted (rounds ~30% longer)."""
    out = {name: np.concatenate([getattr(u, name) for u in units])
           for name in names}
    counts = [len(u.z0) for u in units]
    shift = np.repeat(_offsets(counts)[:-1],
                      [len(getattr(u, pointers[0])) for u in units])
    for name in pointers:
        out[name] += shift
    if "seg" in out:
        out["seg"] += np.repeat(_offsets([u.n_graphs for u in units])[:-1],
                                counts)
        out["n_graphs"] = sum(u.n_graphs for u in units)
    return out


def combine_encodings(encodings):
    """Joins encodings into one batch with `stack_units`. Each row keeps
    its graph-local vertex pair in `rows`, and `seg` names its graph. All
    encodings must share the radius and feature width.
    """
    encodings = list(encodings)
    if not encodings:
        raise ValueError("cannot combine zero encodings")
    radius = encodings[0].radius
    width = encodings[0].width
    for enc in encodings:
        if enc.radius != radius or enc.width != width:
            raise ValueError("encodings differ in radius or feature width")
    return Wl2Encoding(radius=radius, **stack_units(
        encodings, ("z0", "ref_l", "ref_g1", "ref_g2", "rows", "seg"),
        ("ref_l", "ref_g1", "ref_g2")))
