import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import wl2gnn.tensor as T


# ---------------------------------------------------------------- helpers

def leaf(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def small_floats(shape):
    # magnitudes bounded away from 0 so relu kinks and the difference
    # quotient's noise floor stay clear of the checked entries
    elements = st.floats(min_value=0.05, max_value=4.0).flatmap(
        lambda v: st.sampled_from([v, -v]))
    return hnp.arrays(np.float64, shape, elements=elements)


def int_matrix(rng, rows, cols, lo=-3, hi=4):
    return rng.integers(lo, hi, size=(rows, cols)).astype(np.float64)


# ---------------------------------------------------------- forward values

def test_matmul_forward():
    a, b = leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]])
    assert T.matmul(a, b).data[0, 0] == 11.0


def test_add_broadcasts_bias_row():
    a = leaf(np.zeros((3, 2)))
    b = leaf([[1.0, 2.0]])
    out = T.add(a, b)
    assert out.data.tolist() == [[1.0, 2.0]] * 3


def test_gather_and_scatter_roundtrip_on_identity_index():
    z = leaf(np.arange(6.0).reshape(3, 2))
    idx = np.array([0, 1, 2])
    assert np.array_equal(T.gather(z, idx).data, z.data)
    assert np.array_equal(T.scatter_sum(T.gather(z, idx), idx, 3).data, z.data)


def test_scatter_sum_accumulates_duplicates():
    x = leaf([[1.0], [2.0], [4.0]])
    out = T.scatter_sum(x, np.array([0, 0, 1]), 3)
    assert out.data.tolist() == [[3.0], [4.0], [0.0]]


def test_scatter_sum_unsorted_indices():
    x = leaf([[1.0], [2.0], [4.0], [8.0]])
    out = T.scatter_sum(x, np.array([2, 0, 2, 0]), 3)
    assert out.data.tolist() == [[10.0], [0.0], [5.0]]


def test_segment_min_picks_minimum_per_segment():
    x = leaf([[3.0, 1.0], [2.0, 5.0], [7.0, 0.5]])
    out = T.segment_min(x, np.array([0, 0, 1]), 2)
    assert out.data.tolist() == [[2.0, 1.0], [7.0, 0.5]]


def test_bce_matches_closed_form():
    logits = leaf([[0.0], [2.0]])
    targets = np.array([[1.0], [0.0]])
    want = (np.log(2.0) + (2.0 + np.log1p(np.exp(-2.0)))) / 2
    got = T.bce(logits, targets).data[0, 0]
    assert abs(got - want) < 1e-12


def test_bce_rejects_soft_targets():
    with pytest.raises(ValueError):
        T.bce(leaf([[0.0]]), np.array([[0.5]]))


def test_bce_stable_at_extreme_logits():
    out = T.bce(leaf([[1000.0], [-1000.0]]), np.array([[1.0], [0.0]]))
    assert np.isfinite(out.data[0, 0])
    T.backward(out)


def test_tensor_requires_2d():
    with pytest.raises(ValueError):
        T.Tensor(np.zeros(3), requires_grad=True)


# ------------------------------------------------------- backward: adjoints
# Integer-valued inputs make the identities exact in float64.

def test_matmul_adjoint_exact():
    rng = np.random.default_rng(0)
    a, b = leaf(int_matrix(rng, 4, 3)), leaf(int_matrix(rng, 3, 2))
    w = int_matrix(rng, 4, 2)
    out = T.sum_all(T.hadamard(T.matmul(a, b), T.constant(w)))
    T.backward(out)
    assert np.array_equal(a.grad, w @ b.data.T)
    assert np.array_equal(b.grad, a.data.T @ w)


def test_gather_scatter_are_adjoint():
    # <gather(z, idx), x> == <z, scatter(x, idx)> entrywise in the grads
    rng = np.random.default_rng(1)
    idx = rng.integers(0, 5, size=11)
    z = leaf(int_matrix(rng, 5, 3))
    x = int_matrix(rng, 11, 3)
    out = T.sum_all(T.hadamard(T.gather(z, idx), T.constant(x)))
    T.backward(out)
    manual = np.zeros((5, 3))
    np.add.at(manual, idx, x)
    assert np.array_equal(z.grad, manual)


def test_scatter_backward_is_gather():
    rng = np.random.default_rng(2)
    idx = rng.integers(0, 4, size=9)
    x = leaf(int_matrix(rng, 9, 2))
    w = int_matrix(rng, 4, 2)
    out = T.sum_all(T.hadamard(T.scatter_sum(x, idx, 4), T.constant(w)))
    T.backward(out)
    assert np.array_equal(x.grad, w[idx])


def _bits(a):
    return a.view(np.int64)


def _scatter_case(seed, side, sort, d):
    """An index on the requested side of the slot/fallback choice, its
    output row count and order-sensitive values (mixed magnitudes, signed
    zeros)."""
    rng = np.random.default_rng(seed)
    if side == "slots":
        kmax = int(rng.integers(1, 4))
        n = T.SLOT_WIDTH * kmax + int(rng.integers(0, 100))
        m = n // kmax + 1 + int(rng.integers(0, 5))
        # targets are a random subset of the rows, so some stay unused
        targets = np.sort(rng.choice(m, size=n // kmax + 1, replace=False))
        idx = targets[rng.permutation(np.repeat(np.arange(len(targets)),
                                                kmax))[:n]]
    else:
        n = int(rng.integers(0, 200))
        m = int(rng.integers(1, 10))
        idx = rng.integers(0, m, size=n)
    if sort:
        idx = np.sort(idx)
    values = rng.standard_normal((len(idx), d)) * 10.0 ** rng.integers(
        -8, 9, size=(len(idx), d))
    values[rng.random(values.shape) < 0.05] = 0.0
    values[rng.random(values.shape) < 0.05] = -0.0
    return idx, m, values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["slots", "fallback"]),
       st.booleans(), st.integers(1, 3))
def test_scatter_sum_and_gather_adjoint_match_add_at_bitwise(seed, side,
                                                             sort, d):
    idx, m, values = _scatter_case(seed, side, sort, d)
    planned = T._rank_slots(idx)
    assert (planned is None) == (side == "fallback")
    expected = np.zeros((m, d))
    np.add.at(expected, idx, values)
    # a plain array is planned per call; a ScatterIndex plans for the
    # scatter and reuses the plan in the gather's adjoint
    for index in (idx, T.ScatterIndex(idx)):
        out = T.scatter_sum(T.constant(values), index, m).data
        assert np.array_equal(_bits(out), _bits(expected))
        z = leaf(np.zeros((m, d)))
        T.gather(z, index)._backward(values)
        assert np.array_equal(_bits(z.grad), _bits(expected))


# per-target source counts (target t has counts[t] entries) and the row
# count of the output, each with at least SLOT_WIDTH entries per slot, so
# that values of 16 columns or more take the plan
_PLAN_EDGES = {
    "tied": (np.array([3] * 20 + [2] * 10), 30),
    "gaps": (np.tile([3, 0, 2, 0, 0, 1, 3], 8), 56),
    "spare-rows": (np.array([2] * 30 + [1] * 10), 45),
}


def _sums_match_add_at(index, values, m):
    expected = np.zeros((m, values.shape[1]))
    np.add.at(expected, T.as_index(index).idx, values)
    out = T.scatter_sum(T.constant(values), index, m).data
    z = leaf(np.zeros(expected.shape))
    T.gather(z, index)._backward(values)
    return (np.array_equal(_bits(out), _bits(expected))
            and np.array_equal(_bits(z.grad), _bits(expected)))


@pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("case", sorted(_PLAN_EDGES))
def test_prefix_plan_edges_match_add_at_bitwise(case, sort):
    counts, m = _PLAN_EDGES[case]
    rng = np.random.default_rng(7)
    idx = np.repeat(np.arange(len(counts)), counts)
    if not sort:
        idx = rng.permutation(idx)
    pos, sources = T._rank_slots(idx)
    widths = [len(src) for src in sources]
    assert all(a >= b for a, b in zip(widths, widths[1:]))
    assert sum(widths) == len(idx)
    # the ranked targets are the busiest first, ties in target order, and
    # slot s holds each one's s-th source in index order
    ranked = np.argsort(-counts, kind="stable")[:widths[0]]
    assert np.array_equal(pos[ranked], np.arange(widths[0]))
    assert np.all(pos[counts == 0] == widths[0])
    for s, src in enumerate(sources):
        assert np.array_equal(
            src, [np.flatnonzero(idx == t)[s] for t in ranked[:len(src)]])
    index = T.ScatterIndex(idx)
    assert index._plan_for(16, m) is not None
    # one index sums at several widths through the accumulator it keeps,
    # a plain array through a fresh one
    for d, reuse in ((16, True), (24, True), (16, True), (16, False)):
        values = rng.standard_normal((len(idx), d))
        values[rng.random(values.shape) < 0.2] = -0.0
        values[idx == 0] = -0.0  # a target whose every source is -0.0
        assert _sums_match_add_at(index if reuse else idx, values, m)


def test_plan_choice_follows_slots_and_width():
    one_target = T.ScatterIndex(np.zeros(200, dtype=np.int64))
    assert T._rank_slots(one_target.idx) is None
    assert one_target._plan_for(64, 1) is None
    # a 32-graph batch's pooling segments, 40-80 rows per graph: the plan
    # pays for wide rows but not for a one-column sum (the weighted-mean
    # denominator)
    sizes = np.random.default_rng(3).integers(40, 81, size=32)
    seg = T.ScatterIndex(np.repeat(np.arange(32), sizes))
    assert seg._plan_for(32, 32) is not None
    assert seg._plan_for(1, 32) is None
    values = np.random.default_rng(4).standard_normal((len(seg), 32))
    for d in (32, 1, 32):
        assert _sums_match_add_at(seg, values[:, :d], 32)
        assert _sums_match_add_at(one_target, values[:200, :d], 1)


@pytest.mark.parametrize("side", ["slots", "fallback"])
def test_scatter_rejects_an_entry_past_its_rows(side):
    idx = (np.arange(40) % 20 if side == "slots" else np.array([0, 19, 1]))
    assert (T._rank_slots(idx) is None) == (side == "fallback")
    values = T.constant(np.ones((len(idx), 16)))
    index = T.ScatterIndex(idx)
    for _ in range(2):  # the planned index checks again
        with pytest.raises(ValueError, match=r"entry 19 is out of range "
                                             r"for m=19 rows"):
            T.scatter_sum(values, index, 19)
    assert T.scatter_sum(values, index, 20).shape == (20, 16)


@pytest.mark.parametrize("side", ["slots", "fallback"])
def test_scatter_rejects_values_of_another_length(side):
    idx = (np.arange(40) % 20 if side == "slots" else np.array([0, 19, 1]))
    index = T.ScatterIndex(idx)
    for rows in (len(idx) - 1, len(idx) + 1):
        with pytest.raises(ValueError, match=rf"scatter of {rows} rows "
                                             rf"through an index of "
                                             rf"{len(idx)} entries"):
            index.sum_rows(np.ones((rows, 16)), 20)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
@example(np.array([[np.inf, -np.inf, 0.0, -0.0, np.nan, -np.nan]]))
def test_sigmoid_is_within_4_ulp_of_two_branch_form(x):
    e = np.exp(-np.abs(x))
    expected = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    before = x.copy()
    y = T._sigmoid(x)
    assert np.array_equal(_bits(x), _bits(before))  # input left alone
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(y), nan)
    special = np.isinf(x) | (x == 0.0)
    assert np.array_equal(_bits(y[special]), _bits(expected[special]))
    # both outputs lie in [0, 1], where bit patterns order like values
    normal = expected >= np.finfo(float).tiny
    assert np.all(np.abs(_bits(y)[normal] - _bits(expected)[normal]) <= 4)
    subnormal = ~nan & ~normal
    assert np.all(np.abs(y[subnormal] - expected[subnormal])
                  <= np.finfo(float).tiny)



def _index_case(rng, n, side):
    """An index of length n on the requested side of the slot/fallback
    choice (slots need n >= 3 * SLOT_WIDTH) and the row count it points
    into."""
    if side == "slots":
        kmax = int(rng.integers(1, 4))
        used = -(-n // kmax)
        rows = used + int(rng.integers(0, 5))
        targets = rng.choice(rows, size=used, replace=False)
        idx = targets[rng.permutation(np.repeat(np.arange(used), kmax))[:n]]
    else:
        rows = int(rng.integers(1, 10))
        idx = rng.integers(0, rows, size=n)
    assert (T._rank_slots(idx) is None) == (side == "fallback")
    return idx, rows


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["slots", "fallback"]),
       st.sampled_from(["slots", "fallback"]),
       st.sampled_from(["identity", "relu", "logistic"]), st.integers(1, 3),
       st.booleans())
def test_pair_scatter_matches_composed_ops_bitwise(seed, gather_side,
                                                    target_side, act, d,
                                                    wrap):
    rng = np.random.default_rng(seed)
    slots = "slots" in (gather_side, target_side)
    n = int(rng.integers(3 * T.SLOT_WIDTH, 400) if slots
            else rng.integers(0, 200))
    idx1, rows = _index_case(rng, n, gather_side)
    idx2 = rng.permutation(idx1)
    target, m = _index_case(rng, n, target_side)
    values = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(
        -3, 4, size=(rows, d))
    values[rng.random(values.shape) < 0.05] = 0.0
    values[rng.random(values.shape) < 0.05] = -0.0
    adjoint = rng.standard_normal((m, d))
    if wrap:
        idx1, idx2, target = (T.ScatterIndex(i) for i in (idx1, idx2, target))
    z_fused, z_composed = leaf(values), leaf(values)
    fused = T.pair_scatter(z_fused, idx1, idx2, target, m, act)
    x = T.add(T.gather(z_composed, idx1), T.gather(z_composed, idx2))
    composed = T.scatter_sum(T.ACTIVATIONS[act](x), target, m)
    assert np.array_equal(_bits(fused.data), _bits(composed.data))
    for out in (fused, composed):
        T.backward(T.sum_all(T.hadamard(out, T.constant(adjoint))))
    assert np.array_equal(_bits(z_fused.grad), _bits(z_composed.grad))


@pytest.mark.parametrize("act", ["identity", "relu", "logistic"])
def test_pair_scatter_refuses_a_second_reverse_pass(act):
    # the first reverse pass consumes the node's activated array
    z = leaf(np.random.default_rng(0).standard_normal((4, 3)))
    values = z.data.copy()
    idx = np.array([0, 1, 2, 3, 3])
    out = T.sum_all(T.pair_scatter(z, idx, idx[::-1], idx, 4, act))
    T.backward(out)
    assert np.array_equal(z.data, values)
    with pytest.raises(ValueError, match="pair_scatter: a second reverse"):
        T.backward(out)


@pytest.mark.parametrize("act", ["relu", "logistic"])
def test_standalone_activation_leaves_its_input_and_output(act):
    # the in-place logistic pair is the fused node's own; the standalone
    # ops keep their input and output arrays through both passes
    x = leaf(np.random.default_rng(1).standard_normal((5, 2)))
    x_before = x.data.copy()
    y = T.ACTIVATIONS[act](x)
    y_before = y.data.copy()
    T.backward(T.sum_all(T.hadamard(y, T.constant(np.full((5, 2), 3.0)))))
    assert np.array_equal(x.data, x_before)
    assert np.array_equal(y.data, y_before)


def test_segment_min_routes_gradient_to_argmin_only():
    x = leaf([[3.0], [2.0], [7.0]])
    out = T.sum_all(T.segment_min(x, np.array([0, 0, 1]), 2))
    T.backward(out)
    assert x.grad.tolist() == [[0.0], [1.0], [1.0]]


def test_grad_accumulates_across_reuses():
    a = leaf([[2.0]])
    out = T.add(a, a)
    T.backward(T.sum_all(out))
    assert a.grad[0, 0] == 2.0


def test_unbroadcast_sums_over_expanded_axes():
    bias = leaf([[1.0, 2.0]])
    big = leaf(np.ones((4, 2)))
    T.backward(T.sum_all(T.add(big, bias)))
    assert bias.grad.tolist() == [[4.0, 4.0]]


def test_backward_requires_scalar_root():
    with pytest.raises(ValueError):
        T.backward(T.add(leaf(np.ones((2, 2))), leaf(np.ones((2, 2)))))


def test_deep_chain_does_not_recurse():
    x = leaf([[1.0]])
    y = x
    for _ in range(5000):
        y = T.scale(y, 1.0)
    T.backward(y)  # iterative topo order, no RecursionError
    assert x.grad[0, 0] == 1.0


def test_no_graph_records_nothing_and_restores_on_error():
    x = leaf([[1.0, -2.0]])
    with T.no_graph():
        y = T.logistic(T.scale(x, 3.0))
        with T.no_graph():  # nesting keeps the switch off
            pass
        z = T.scale(x, 2.0)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert not z.requires_grad and z._parents == () and z._backward is None
    assert np.array_equal(y.data, T.logistic(T.scale(x, 3.0)).data)
    with pytest.raises(RuntimeError, match="inside"):
        with T.no_graph():
            raise RuntimeError("inside")
    out = T.sum_all(T.scale(x, 2.0))
    assert out.requires_grad
    T.backward(out)
    assert x.grad.tolist() == [[2.0, 2.0]]


# --------------------------------------------------- central difference sweep

def scalarize(t):
    return T.sum_all(T.logistic(t))


def test_grad_check_matmul_add_hadamard():
    rng = np.random.default_rng(3)
    a = leaf(rng.normal(size=(3, 4)))
    b = leaf(rng.normal(size=(4, 2)))
    c = leaf(rng.normal(size=(3, 2)))
    report = T.grad_check(
        lambda: scalarize(T.hadamard(T.add(T.matmul(a, b), c), c)),
        [a, b, c])
    assert report.passed, report


def test_grad_check_activations():
    rng = np.random.default_rng(4)
    for name, act in T.ACTIVATIONS.items():
        x = leaf(rng.normal(size=(4, 3)) + 0.3)  # keep away from relu kink
        report = T.grad_check(lambda: T.sum_all(act(T.hadamard(x, x))), [x])
        assert report.passed, (name, report)


def test_grad_check_gather_scatter_segment_min():
    rng = np.random.default_rng(5)
    z = leaf(rng.normal(size=(5, 3)))
    idx = rng.integers(0, 5, size=12)
    seg = np.sort(rng.integers(0, 3, size=5))
    def f():
        x = T.gather(z, idx)
        pooled = T.scatter_sum(x, idx, 5)
        return T.sum_all(T.segment_min(pooled, seg, 3))
    report = T.grad_check(f, [z])
    assert report.passed, report


@pytest.mark.parametrize("act", ["identity", "relu", "logistic"])
def test_grad_check_pair_scatter(act):
    rng = np.random.default_rng(10)
    z = leaf(rng.normal(size=(5, 3)))
    idx1, idx2 = rng.integers(0, 5, size=14), rng.integers(0, 5, size=14)
    target = np.sort(rng.integers(0, 4, size=14))
    report = T.grad_check(
        lambda: scalarize(T.pair_scatter(z, idx1, idx2, target, 4, act)), [z])
    assert report.passed, report


def test_grad_check_bce_exp_reciprocal():
    rng = np.random.default_rng(6)
    x = leaf(rng.normal(size=(4, 1)))
    y = (rng.random((4, 1)) < 0.5).astype(np.float64)
    def f():
        z = T.reciprocal(T.add(T.exp(x), T.constant(np.ones((4, 1)))))
        return T.bce(z, y)
    report = T.grad_check(f, [x])
    assert report.passed, report


@settings(max_examples=20, deadline=None)
@given(small_floats((3, 3)), small_floats((3, 3)))
def test_grad_check_random_compositions(a_data, b_data):
    a, b = leaf(a_data), leaf(b_data)
    report = T.grad_check(
        lambda: T.sum_all(T.logistic(T.matmul(a, T.relu(b)))),
        [a])
    assert report.passed


# ------------------------------------------------------------------- adam

def test_adam_first_step_size_is_lr():
    # bias correction makes the first update exactly lr * sign(grad)
    p = leaf([[1.0, -2.0]])
    p.grad = np.array([[0.5, -3.0]])
    state = T.AdamState.for_params([p], lr=0.1)
    T.adam_step(state, [p])
    assert np.allclose(p.data, [[0.9, -1.9]], atol=1e-9)


def test_adam_converges_on_quadratic():
    p = leaf([[4.0]])
    state = T.AdamState.for_params([p], lr=0.05)
    for _ in range(2000):
        T.zero_grads([p])
        loss = T.sum_all(T.hadamard(p, p))
        T.backward(loss)
        T.adam_step(state, [p])
    assert abs(p.data[0, 0]) < 1e-3


def test_adam_skips_none_grads():
    p = leaf([[1.0]])
    state = T.AdamState.for_params([p], lr=0.1)
    T.adam_step(state, [p])  # no backward ran; treated as zero gradient
    assert abs(p.data[0, 0] - 1.0) < 1e-12


# ------------------------------------------------------------------- init

def test_glorot_bounds_and_determinism():
    rng = np.random.default_rng(7)
    w = T.glorot_uniform(rng, 30, 50)
    bound = np.sqrt(6.0 / 80.0)
    assert w.data.shape == (30, 50)
    assert np.all(np.abs(w.data) <= bound)
    w2 = T.glorot_uniform(np.random.default_rng(7), 30, 50)
    assert np.array_equal(w.data, w2.data)
