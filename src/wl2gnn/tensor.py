"""Minimal reverse-mode automatic differentiation on 2-D float64 arrays.

Every operation returns a fresh `Tensor` holding the result and, when a
gradient is required, a closure that pushes the output adjoint to the
parents. `backward` seeds a scalar root with 1 and walks the recorded
graph once in reverse topological order, summing adjoints over fan-out.

The op set is intentionally small: dense products and sums, elementwise
activations, row gather / scatter-sum (adjoints of each other), and a
numerically stable binary cross-entropy on logits. Everything else in
the package is composed from these, except the pair-message path of the
pair convolution: `pair_scatter` computes
`scatter_sum(act(gather(z, i1) + gather(z, i2)), target, m)` as one
node with the same arithmetic in the same order, so it equals the
composed ops bit for bit but keeps one gamma-row buffer per layer, where
the composition kept five. That buffer is the gathered sum, which the
activation overwrites; the activated array lives until the node's
reverse pass, which consumes it, so a second reverse pass through the
node raises. Every activation is one array pair, `forward(x, out=None)`
and `adjoint(g, y, scratch=None)`, shared by the standalone op and the
fused node, which alone passes its own buffers as `out` and `scratch`.

Every row index (a gather's, a scatter's, a pooling's) is a
`ScatterIndex`, whose one count `counts(m)` is its range check (a
`ValueError` naming an entry outside 0..m-1 before a row is read) and
gives every scatter-sum its one plan rule: values of d columns take
the busiest-first prefix plan where its slots average at least
`SLOT_COST / d` entries, and `np.add.at` otherwise (one pooled graph,
hub vertices, a one-column sum). Targets are ranked by source count,
busiest first, so the targets with more than s sources are the first
k_s ranked rows, and slot s adds their s-th sources in one gather and
one in-place add on that contiguous prefix, `acc[:k_s] +=
take(values, src_s)`; one last take puts the rows back in target order.
Each target adds its sources in index order, starting from +0.0, so the
sum equals `np.add.at` bit for bit. The accumulator is a buffer that
the index keeps for its later sums, so a planned sum allocates its
output and one slot's rows at a time, no more than `np.add.at` would.
One stable argsort of the index finds its sources' order. Batches hold
their indices as `ScatterIndex`es, so every layer of a forward and
backward pass shares one count and one plan per index; a plain array is
wrapped afresh on each call. A float or bool index raises a `ValueError`
naming its dtype.

Inside `with no_graph():` ops record nothing: every node they build has
no parents, no backward closure and no gradient, so a forward pass that
is never differentiated (evaluation) keeps no closures, and no
intermediate array outlives the code that names it. The values are the
same bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"


def constant(data):
    return Tensor(data, requires_grad=False)


# whether ops record their parents and backward closures; `no_graph`
# clears it for forward passes that are never differentiated
_record = True


@contextmanager
def no_graph():
    """Within the block, ops build no graph: every node has no parents,
    no backward and no gradient, so a forward pass keeps no closure or
    intermediate array alive past its last use. The switch is
    module-wide, shared by every thread of the process; the previous
    state comes back when the block exits, an exception included."""
    global _record
    saved, _record = _record, False
    try:
        yield
    finally:
        _record = saved


def _node(data, parents, backward):
    out = Tensor(data)
    if _record and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g, shape):
    """Sums an adjoint down to `shape` after numpy broadcasting."""
    for axis in range(2):
        if shape[axis] == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a, b):
    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)
    return _node(a.data @ b.data, (a, b), bw)


def add(a, b):
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))
    return _node(a.data + b.data, (a, b), bw)


def hadamard(a, b):
    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))
    return _node(a.data * b.data, (a, b), bw)


def scale(a, alpha):
    alpha = float(alpha)

    def bw(g):
        a._accumulate(alpha * g)
    return _node(alpha * a.data, (a,), bw)


# a prefix slot costs about 4.5 us of call overhead, the time np.add.at
# spends on about SLOT_COST scalars (SLOT_COST / d rows of d columns), so
# values of d columns take the plan only where its slots average at least
# SLOT_COST / d entries: 7.5 at d = 32, 240 for a one-column sum
SLOT_COST = 240


def _rank_slots(idx, counts):
    """The busiest-first prefix plan of a non-empty index whose entries
    count `counts` (its bincount), as (pos, sources). Targets are ranked
    by source count, busiest first and ties in target order; sources[s]
    holds the s-th source, in index order, of each of the first
    len(sources[s]) ranked targets, so every slot adds into a prefix of
    the ranked rows and the prefixes never grow. pos[t] is the rank of
    target t, or the number of targets with sources (a zero row past the
    ranked ones) for a target without."""
    rank = np.argsort(-counts, kind="stable")
    # widths[s]: how many targets have more than s sources
    widths = len(counts) - np.cumsum(np.bincount(counts))[:counts.max()]
    pos = np.full(len(counts), widths[0])
    pos[rank[:widths[0]]] = np.arange(widths[0])
    starts = (np.cumsum(counts) - counts)[rank[:widths[0]]]
    # each target's sources in index order
    order = np.argsort(idx, kind="stable")
    return pos, [order[starts[:k] + s] for s, k in enumerate(widths)]


class ScatterIndex:
    """A row index whose count and scatter plan, with the plan's
    accumulator, are built by the first sum that needs them."""
    __slots__ = ("idx", "_counts", "_plan", "_acc")

    def __init__(self, idx):
        idx = np.asarray(idx)
        # a cast would truncate 0.7 to row 0 and read True as row 1; an
        # empty list comes out as float64
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"a row index must hold integers, got dtype "
                             f"{idx.dtype}")
        self.idx = idx.astype(np.int64, copy=False)
        self._counts = None
        self._plan = None
        self._acc = np.empty(0)

    def __len__(self):
        return self.idx.shape[0]

    def counts(self, m, name="scatter index"):
        """Entries per row of m rows, kept until m changes (which drops
        the plan); a `ValueError` names the first entry outside 0..m-1."""
        if self._counts is None or len(self._counts) != m:
            if len(self) and (self.idx.min() < 0 or self.idx.max() >= m):
                bad = self.idx[(self.idx < 0) | (self.idx >= m)]
                raise ValueError(f"{name} entry {bad[0]} is out of range "
                                 f"for m={m} rows")
            self._counts, self._plan = np.bincount(self.idx, minlength=m), None
        return self._counts

    def _plan_for(self, d, m):
        """The prefix plan for values of d columns into m rows, or None
        where its slots average fewer than SLOT_COST / d entries."""
        counts = self.counts(m)
        if not len(self) or counts.max() * SLOT_COST > len(self) * d:
            return None
        if self._plan is None:
            self._plan = _rank_slots(self.idx, counts)
        return self._plan

    def sum_rows(self, values, m):
        """(m, d) array whose row t sums the rows of `values` at the
        positions where the index is t; bit for bit `np.add.at`. Raises
        `ValueError` when an entry is negative or not below m, or when
        `values` does not have one row per entry."""
        if len(values) != len(self):
            raise ValueError(f"scatter of {len(values)} rows through an "
                             f"index of {len(self)} entries")
        d = values.shape[1]
        plan = self._plan_for(d, m)
        if plan is None:
            out = np.zeros((m, d))
            np.add.at(out, self.idx, values)
            return out
        pos, sources = plan
        k = len(sources[0])
        # the accumulator is kept for the index's later sums, so that a
        # sum allocates only its output beside one slot's rows; its row k
        # stays zero, for targets without sources
        if self._acc.size < (k + 1) * d:
            self._acc = np.empty((k + 1) * d)
        acc = self._acc[:(k + 1) * d].reshape(k + 1, d)
        # the sources are in range, and a take with `out=` in the default
        # mode would go through a temporary
        np.take(values, sources[0], axis=0, out=acc[:k], mode="clip")
        # np.add.at adds the first source to +0.0, turning -0.0 into +0.0
        acc[:k] += 0.0
        acc[k] = 0.0
        for src in sources[1:]:
            acc[:len(src)] += np.take(values, src, axis=0)
        return np.take(acc, pos, axis=0)


def as_index(idx):
    """`idx` itself if it is a `ScatterIndex`, else a new one around it."""
    return idx if isinstance(idx, ScatterIndex) else ScatterIndex(idx)


def gather(z, idx):
    """Rows of z at the given indices (an int array or a `ScatterIndex`);
    the adjoint scatters back."""
    index = as_index(idx)
    index.counts(z.shape[0])  # the range check, before numpy wraps -1

    def bw(g):
        z._accumulate(index.sum_rows(g, z.shape[0]))
    return _node(z.data[index.idx], (z,), bw)


def scatter_sum(x, idx, m):
    """Sums rows of x into an (m, d) output at the given indices (an int
    array or a `ScatterIndex`); rows that receive nothing stay zero.
    Adjoint of `gather`.
    """
    index = as_index(idx)

    def bw(g):
        x._accumulate(g[index.idx])
    return _node(index.sum_rows(x.data, m), (x,), bw)


def segment_min(x, seg, n_segments):
    """Columnwise minimum per segment; `seg` (an int array or a
    `ScatterIndex`) must put each row of x in one of n_segments
    segments, none of them empty, or `ValueError` is raised.

    The adjoint routes each output gradient to the first row attaining
    the minimum in its segment.
    """
    index = as_index(seg)
    if len(index) != x.shape[0]:
        raise ValueError(f"{len(index)} segment entries for {x.shape[0]} rows")
    empty = np.flatnonzero(index.counts(n_segments, "segment") == 0)
    if empty.size:
        raise ValueError(f"segment {empty[0]} is empty")
    argrows = np.empty((n_segments, x.shape[1]), dtype=np.int64)
    for b in range(n_segments):
        rows = np.flatnonzero(index.idx == b)
        argrows[b] = rows[x.data[rows].argmin(axis=0)]
    cols = np.arange(x.shape[1])

    def bw(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (argrows, cols), g)
        x._accumulate(gx)
    return _node(x.data[argrows, cols], (x,), bw)


def _sigmoid(x, out=None):
    """1 / (1 + exp(-x)) in four passes over one buffer, `out` or a new
    one (`out=x` overwrites the input): negate into it, then exp, add 1
    and reciprocal in place. At most 4 ulp from the
    two-branch form (1 / (1 + e) for x >= 0, e / (1 + e) below,
    e = exp(-|x|)) where that form's output is normal, and equal to it
    at +-inf and +-0; NaN stays NaN. For x below about -708.4 the output
    is subnormal and loses precision, and below about -709.8, where
    exp(-x) overflows, it is 0."""
    out = np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out


def _sigmoid_adjoint(g, y, scratch=None):
    """g * y * (1 - y) in place on g; 1 - y goes into `scratch`, or a
    new buffer (`scratch=y` consumes y)."""
    g *= y
    g *= np.subtract(1.0, y, out=scratch)
    return g


# activation name -> (forward, adjoint) on arrays: forward(x, out=None)
# returns the activation, in `out` if given (identity returns x itself);
# adjoint(g, y, scratch=None) turns the adjoint of y into that of the
# input in place on g and returns it, reading only y and writing at most
# over `scratch`. The standalone ops pass neither and keep their arrays
_ACTIVATION_ARRAYS = {
    "logistic": (_sigmoid, _sigmoid_adjoint),
    "relu": (lambda x, out=None: np.multiply(x, x > 0, out=out),
             lambda g, y, scratch=None: np.multiply(g, y > 0, out=g)),
    "identity": (lambda x, out=None: x, lambda g, y, scratch=None: g),
}


def _activation(name):
    forward, adjoint = _ACTIVATION_ARRAYS[name]

    def op(a):
        out_data = forward(a.data)

        def bw(g):
            a._accumulate(adjoint(g.copy(), out_data))
        return _node(out_data, (a,), bw)
    return op


relu = _activation("relu")
logistic = _activation("logistic")


def identity(a):
    return a


ACTIVATIONS = {"logistic": logistic, "relu": relu, "identity": identity}


def pair_scatter(z, idx1, idx2, target, m, act):
    """`scatter_sum(act(gather(z, idx1) + gather(z, idx2)), target, m)`
    as one node: the same arithmetic in the same order, bit for bit, but
    the forward keeps one (len(idx1), d) buffer, which the activation
    overwrites, and the activated array lives only until the node's
    reverse pass, which consumes it (the logistic adjoint writes 1 - y
    over it); a second reverse pass through the node raises
    `ValueError`. Indices are int arrays or `ScatterIndex`es; `act` is a
    key of `ACTIVATIONS`."""
    forward, adjoint = _ACTIVATION_ARRAYS[act]
    index1, index2, target = as_index(idx1), as_index(idx2), as_index(target)
    index1.counts(z.shape[0])  # the range checks, as in `gather`
    index2.counts(z.shape[0])
    x = z.data[index1.idx]
    x += z.data[index2.idx]
    # x and y are this node's own buffers, so no other reader sees them
    # overwritten
    y = forward(x, out=x)

    def bw(g):
        nonlocal y
        if y is None:
            raise ValueError("pair_scatter: a second reverse pass through "
                             "this node; the first consumed its activated "
                             "array")
        ga, y = adjoint(g[target.idx], y, scratch=y), None
        s = index1.sum_rows(ga, z.shape[0])
        s += index2.sum_rows(ga, z.shape[0])
        z._accumulate(s)
    return _node(target.sum_rows(y, m), (z,), bw)


def exp(a):
    out_data = np.exp(a.data)

    def bw(g):
        a._accumulate(g * out_data)
    return _node(out_data, (a,), bw)


def reciprocal(a):
    out_data = 1.0 / a.data

    def bw(g):
        a._accumulate(-g * out_data * out_data)
    return _node(out_data, (a,), bw)


def sum_all(a):
    def bw(g):
        a._accumulate(np.full_like(a.data, g[0, 0]))
    return _node(a.data.sum().reshape(1, 1), (a,), bw)


def bce(logits, targets):
    """Mean binary cross-entropy from logits, in the stable form
    max(x, 0) - x t + log(1 + exp(-|x|)). Returns a 1x1 tensor.
    """
    t = np.asarray(targets, dtype=np.float64).reshape(logits.shape)
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce targets must be 0 or 1")
    x = logits.data
    loss = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    n = x.size

    def bw(g):
        logits._accumulate(g[0, 0] * (_sigmoid(x) - t) / n)
    return _node(loss.mean().reshape(1, 1), (logits,), bw)


def backward(root):
    """Reverse pass from a 1x1 root; adjoints sum over fan-out."""
    if root.shape != (1, 1):
        raise ValueError(f"backward needs a scalar root, got shape {root.shape}")
    topo, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    if root.requires_grad:
        root._accumulate(np.ones((1, 1)))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params):
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimization


def glorot_uniform(rng, rows, cols):
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)),
                  requires_grad=True)


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: list = None
    v: list = None

    @classmethod
    def for_params(cls, params, lr):
        state = cls(lr=lr)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def adam_step(state, params):
    """One update with bias-corrected moments (decay rates 0.9 and
    0.999, eps 1e-8); params without a gradient this step are treated
    as having a zero gradient."""
    if len(params) != len(state.m):
        raise ValueError("parameter list does not match optimizer state")
    state.t += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    for k, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / (1 - b1 ** state.t)
        v_hat = state.v[k] / (1 - b2 ** state.t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    worst_param: int
    worst_index: tuple


def grad_check(f, params, h=1e-3, tol=1e-4):
    """Checks analytic gradients of a scalar-valued closure against the
    five-point difference (8(f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h
    at every parameter entry.

    Relative error uses max(|analytic|, |numeric|, 1e-6) in the
    denominator so near-zero gradients are compared absolutely. The
    stencil's O(h^4) truncation lets h be large enough that rounding in
    f, about eps |f| / h, stays far below that 1e-6 floor; the two-point
    quotient at h = 1e-5 read 1e-10 of rounding at |f| = 8 and failed
    correct gradients near 1e-7.
    """
    zero_grads(params)
    out = f()
    backward(out)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    worst, worst_param, worst_index = 0.0, -1, ()
    for k, p in enumerate(params):
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            at = []
            for step in (2 * h, h, -h, -2 * h):
                p.data[idx] = orig + step
                at.append(float(f().data[0, 0]))
            p.data[idx] = orig
            numeric = (8 * (at[1] - at[2]) - (at[0] - at[3])) / (12 * h)
            a = analytic[k][idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > worst:
                worst, worst_param, worst_index = rel, k, idx
    return GradCheckReport(max_rel_error=worst, passed=worst <= tol,
                           worst_param=worst_param, worst_index=worst_index)
