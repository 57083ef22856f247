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

`encode` builds all of this with array operations on the power graph's
n x n boolean adjacency and an n x n table of row numbers, so its memory
is quadratic in the vertex count of one graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import GraphError, graph_power
from .tensor import ScatterIndex


@dataclass
class Wl2Encoding:
    z0: np.ndarray          # (m, width) float64 initial features
    ref_l: np.ndarray       # (gamma,) int64, target row of each triple
    ref_g1: np.ndarray      # (gamma,) int64, row of e_il
    ref_g2: np.ndarray      # (gamma,) int64, row of e_lj
    rows: np.ndarray        # (m, 2) int64, vertex pair of each row, i <= j
    graph_offsets: np.ndarray  # (n_graphs, 4): row start/count, ref start/count
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

    @property
    def n_graphs(self):
        return self.graph_offsets.shape[0]

    @cached_property
    def scatter_indices(self):
        """ref_l, ref_g1 and ref_g2 as `ScatterIndex`es: every layer run
        on this encoding shares their scatter plans, which go with it."""
        return (ScatterIndex(self.ref_l), ScatterIndex(self.ref_g1),
                ScatterIndex(self.ref_g2))

    @cached_property
    def segment_index(self):
        """`row_segments()` as a `ScatterIndex`, for pooling."""
        return ScatterIndex(self.row_segments())

    def row_segments(self):
        """Graph id per feature row, for pooling batched outputs."""
        seg = np.empty(self.m, dtype=np.int64)
        for gid, (start, count, _, _) in enumerate(self.graph_offsets):
            seg[start:start + count] = gid
        return seg

    def triples(self):
        return list(zip(self.ref_l.tolist(), self.ref_g1.tolist(),
                        self.ref_g2.tolist()))


def encode(g, r):
    """Encodes one graph against its r-th power."""
    power = graph_power(g, r)
    n = power.n
    edges = np.asarray(power.edges, dtype=np.int64).reshape(-1, 2)
    # adj[i, j]: (i, j) is an edge of the power graph; a vertex is its own
    # neighbor via its self-loop
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj[edges[:, 1], edges[:, 0]] = True
    loose = np.flatnonzero(~adj.diagonal())
    if loose.size:
        v = int(loose[0])
        raise GraphError(f"corrupt power graph: endpoints of {(v, v)} "
                         "missing from their own neighborhood")
    loops = np.repeat(np.arange(n, dtype=np.int64), 2).reshape(n, 2)
    order = np.vstack([loops, edges[edges[:, 0] != edges[:, 1]]])
    m = len(order)
    row_of = np.zeros((n, n), dtype=np.int64)
    row_of[order[:, 0], order[:, 1]] = np.arange(m)
    row_of[order[:, 1], order[:, 0]] = np.arange(m)

    dv = g.vertex_features.shape[1]
    de = g.edge_features.shape[1]
    z0 = np.zeros((m, dv + (de if de else 1)))
    z0[:n, :dv] = g.vertex_features
    base = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
    proper = np.flatnonzero(base[:, 0] != base[:, 1])
    base_rows = row_of[base[proper, 0], base[proper, 1]]
    if de:
        z0[base_rows, dv:] = g.edge_features[proper]
    else:
        z0[:n, dv] = 1.0
        z0[base_rows, dv] = 1.0

    # one triple per row k = (i, j) and common neighbor l, grouped by row;
    # within a row l = i first, then l = j, then the others ascending
    ref_l, l = np.nonzero(adj[order[:, 0]] & adj[order[:, 1]])
    i, j = order[ref_l, 0], order[ref_l, 1]
    rank = np.where(l == i, 0, np.where(l == j, 1, 2))
    keep = np.lexsort((l, rank, ref_l))
    ref_l, l, i, j = ref_l[keep], l[keep], i[keep], j[keep]

    offsets = np.asarray([[0, m, 0, len(ref_l)]], dtype=np.int64)
    return Wl2Encoding(z0=z0, ref_l=ref_l.astype(np.int64, copy=False),
                       ref_g1=row_of[i, l], ref_g2=row_of[l, j],
                       rows=order, graph_offsets=offsets, radius=r)


def combine_encodings(encodings):
    """Concatenates encodings of separate graphs into one batch.

    Row and pointer indices are shifted by cumulative offsets; vertex
    ids in `rows` are shifted as in a disjoint union. All encodings
    must share the radius and feature width.
    """
    encodings = list(encodings)
    if not encodings:
        raise ValueError("cannot combine zero encodings")
    radius = encodings[0].radius
    width = encodings[0].width
    for enc in encodings:
        if enc.radius != radius or enc.width != width:
            raise ValueError("encodings differ in radius or feature width")
    z0 = np.vstack([enc.z0 for enc in encodings])
    row_off, ref_off, vert_off = 0, 0, 0
    ref_l, ref_g1, ref_g2, rows, offsets = [], [], [], [], []
    for enc in encodings:
        ref_l.append(enc.ref_l + row_off)
        ref_g1.append(enc.ref_g1 + row_off)
        ref_g2.append(enc.ref_g2 + row_off)
        rows.append(enc.rows + vert_off)
        offsets.append([row_off, enc.m, ref_off, enc.gamma])
        row_off += enc.m
        ref_off += enc.gamma
        vert_off += int(enc.rows.max()) + 1 if enc.m else 0
    return Wl2Encoding(z0=z0,
                       ref_l=np.concatenate(ref_l),
                       ref_g1=np.concatenate(ref_g1),
                       ref_g2=np.concatenate(ref_g2),
                       rows=np.vstack(rows),
                       graph_offsets=np.asarray(offsets, dtype=np.int64),
                       radius=radius)
