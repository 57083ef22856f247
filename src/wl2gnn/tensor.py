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
composed ops bit for bit but keeps only the activated gamma-row array
for its reverse pass, where the composition kept five. Each activation
is one array-level pair (a forward, and an adjoint that works in place
and reads only the output), shared by the standalone op and the fused
node.

Scatter-sums (`scatter_sum`, and the adjoint of `gather`) run through a
`ScatterIndex`, which builds a rank-slot plan on its first sum: a stable
argsort of the index plus the number of sources per target. Slot s
holds every target with more than s sources together with its s-th
source, so the sum is one vectorised `out[rows] += values[src]` per
slot, adding in index order and hence equal bit for bit to
`np.add.at`. An index whose busiest target takes more than 1/64 of its
entries (the pooling segments of a small batch, hub vertices) would
need many thin slots and keeps `np.add.at`. Batches hold their indices
as `ScatterIndex`es, so every layer of a forward and backward pass
shares one plan per index; a plain array is wrapped afresh on each
call.
"""

from __future__ import annotations

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


def _node(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
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


# a scatter uses its rank-slot plan only when the busiest target takes at
# most 1/SLOT_WIDTH of the entries, so that slots are wide on average
SLOT_WIDTH = 64


def _rank_slots(idx):
    """The rank-slot plan of an index: a list of (targets, sources)
    pairs, slot s pairing each target that has more than s sources with
    its s-th source in index order. None when the plan would have more
    than len(idx) / SLOT_WIDTH slots, or for an empty index."""
    if idx.size == 0:
        return None
    counts = np.bincount(idx)
    if counts.max() * SLOT_WIDTH > idx.size:
        return None
    order = np.argsort(idx, kind="stable")
    starts = np.cumsum(counts) - counts
    slots = []
    for s in range(counts.max()):
        rows = np.flatnonzero(counts > s)
        slots.append((rows, order[starts[rows] + s]))
    return slots


class ScatterIndex:
    """A row index whose scatter plan is built by its first sum and
    reused by every later one."""
    __slots__ = ("idx", "_slots", "_planned")

    def __init__(self, idx):
        self.idx = np.asarray(idx, dtype=np.int64)
        self._slots = None
        self._planned = False

    def __len__(self):
        return self.idx.shape[0]

    def sum_rows(self, values, m):
        """(m, d) array whose row t sums the rows of `values` at the
        positions where the index is t; bit for bit `np.add.at`."""
        if not self._planned:
            self._slots, self._planned = _rank_slots(self.idx), True
        if self._slots is None:
            out = np.zeros((m, values.shape[1]))
            np.add.at(out, self.idx, values)
            return out
        (rows, src), rest = self._slots[0], self._slots[1:]
        if len(rows) == m:
            out = values[src]
        else:
            out = np.zeros((m, values.shape[1]))
            out[rows] = values[src]
        for rows, src in rest:
            out[rows] += values[src]
        # np.add.at adds the first source to +0.0, turning -0.0 into +0.0
        out += 0.0
        return out


def as_index(idx):
    """`idx` itself if it is a `ScatterIndex`, else a new one around it."""
    return idx if isinstance(idx, ScatterIndex) else ScatterIndex(idx)


def gather(z, idx):
    """Rows of z at the given indices (an int array or a `ScatterIndex`);
    the adjoint scatters back."""
    index = as_index(idx)

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
    """Columnwise minimum per segment; every segment must be non-empty.

    The adjoint routes each output gradient to the first row attaining
    the minimum in its segment.
    """
    seg = np.asarray(seg, dtype=np.int64)
    out = np.empty((n_segments, x.shape[1]))
    argrows = np.empty((n_segments, x.shape[1]), dtype=np.int64)
    for b in range(n_segments):
        rows = np.flatnonzero(seg == b)
        if rows.size == 0:
            raise ValueError(f"segment {b} is empty")
        block = x.data[rows]
        pick = block.argmin(axis=0)
        out[b] = block[pick, np.arange(x.shape[1])]
        argrows[b] = rows[pick]

    def bw(g):
        gx = np.zeros_like(x.data)
        for b in range(n_segments):
            np.add.at(gx, (argrows[b], np.arange(x.shape[1])), g[b])
        x._accumulate(gx)
    return _node(out, (x,), bw)


def _sigmoid(x):
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, e = exp(-|x|), in
    place on two buffers. The numerator max(e, x >= 0) is 1 where x >= 0
    (as e <= 1) and e below, NaN included."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def _sigmoid_adjoint(g, y):
    g *= y
    g *= 1.0 - y
    return g


def _relu_adjoint(g, y):
    g *= y > 0
    return g


# activation name -> (forward, adjoint) on arrays: forward returns a new
# array y; adjoint(g, y) turns the adjoint of y into the adjoint of the
# input in place on g and returns it, reading only y
_ACTIVATION_ARRAYS = {
    "logistic": (_sigmoid, _sigmoid_adjoint),
    "relu": (lambda x: x * (x > 0), _relu_adjoint),
    "identity": (lambda x: x, lambda g, y: g),
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
    only the activated (len(idx1), d) array is kept for the reverse
    pass. Indices are int arrays or `ScatterIndex`es; `act` is a key of
    `ACTIVATIONS`."""
    forward, adjoint = _ACTIVATION_ARRAYS[act]
    index1, index2, target = as_index(idx1), as_index(idx2), as_index(target)
    x = z.data[index1.idx]
    x += z.data[index2.idx]
    y = forward(x)

    def bw(g):
        ga = adjoint(g[target.idx], y)
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


def grad_check(f, params, h=1e-5, tol=1e-4):
    """Checks analytic gradients of a scalar-valued closure against
    central differences (f(x+h) - f(x-h)) / 2h at every parameter entry.

    Relative error uses max(|analytic|, |numeric|, 1e-6) in the
    denominator so near-zero gradients are compared absolutely.
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
            p.data[idx] = orig + h
            up = float(f().data[0, 0])
            p.data[idx] = orig - h
            down = float(f().data[0, 0])
            p.data[idx] = orig
            numeric = (up - down) / (2 * h)
            a = analytic[k][idx]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            if rel > worst:
                worst, worst_param, worst_index = rel, k, idx
    return GradCheckReport(max_rel_error=worst, passed=worst <= tol,
                           worst_param=worst_param, worst_index=worst_index)
