"""Autodiff core: op semantics, gradient fidelity against central differences."""

import zlib

import numpy as np
import pytest

from moelab import numerics as nx
from moelab.numerics import Tensor


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = nx.matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_checkable():
    out = nx.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_vs_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = nx.matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        nx.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_uniform():
    out = nx.softmax_lastdim(Tensor(np.zeros(4)), 1.0)
    assert np.allclose(out.data, 0.25, atol=1e-12)


def test_softmax_stabilized_no_overflow():
    out = nx.softmax_lastdim(Tensor(np.array([1000.0, 0.0])), 1.0)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] > 1 - 1e-12
    assert out.data[1] < 1e-12


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    want = np.exp(x) / np.exp(x).sum()
    got = nx.softmax_lastdim(Tensor(x), 1.0).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_slices_sum_to_one_and_open_interval():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=(3, 4, 5))
        y = nx.softmax_lastdim(Tensor(x), float(rng.uniform(0.3, 3.0))).data
        assert np.all(np.abs(y.sum(axis=-1) - 1.0) < 1e-6)
        assert np.all(y > 0) and np.all(y < 1)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ValueError):
        nx.softmax_lastdim(Tensor(np.zeros(3)), 0.0)
    with pytest.raises(ValueError):
        nx.softmax_lastdim(Tensor(np.zeros(3)), -1.0)


def test_finite_difference_analytic_gradient():
    got = nx.finite_difference_grad(
        lambda t: nx.sum_(nx.mul(t, t)), Tensor(np.array([1.0, 2.0])), eps=1e-5
    )
    assert np.max(np.abs(got - np.array([2.0, 4.0]))) < 1e-6


def test_finite_difference_softmax_sum_is_constant():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=5))
    got = nx.finite_difference_grad(lambda t: nx.sum_(nx.softmax_lastdim(t)), x)
    assert np.max(np.abs(got)) < 1e-6


def test_finite_difference_eps_range_enforced():
    x = Tensor(np.zeros(2))
    for eps in (1e-8, 1e-2):
        with pytest.raises(ValueError):
            nx.finite_difference_grad(lambda t: nx.sum_(t), x, eps=eps)


def test_finite_difference_nonfinite_objective():
    x = Tensor(np.array([0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        nx.finite_difference_grad(lambda t: float("nan"), x)


def test_gradient_accumulation_is_additive():
    x = nx.parameter(np.array([1.0, -2.0, 3.0]))
    loss = nx.sum_(nx.mul(x, x))
    loss.backward()
    first = x.grad.copy()
    loss2 = nx.sum_(nx.mul(x, x))
    loss2.backward()
    assert np.allclose(x.grad, 2 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_requires_scalar():
    x = nx.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        nx.mul(x, 2.0).backward()


def test_diamond_graph_accumulates_once_per_path():
    x = nx.parameter(np.array([3.0]))
    y = nx.mul(x, 2.0)
    z = nx.add(nx.mul(y, y), y)  # z = 4x^2 + 2x -> dz/dx = 8x + 2
    z.backward()
    assert np.allclose(x.grad, np.array([26.0]))


def test_no_grad_records_no_graph_and_restores_grad_mode():
    x = nx.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(RuntimeError):
        with nx.no_grad():
            out = nx.matmul(x, x)
            raise RuntimeError("leave the block by an exception")
    assert out._backward is None and out._parents == () and not out.requires_grad
    tracked = nx.matmul(x, x)
    assert tracked._backward is not None and tracked._parents == (x, x)
    np.testing.assert_array_equal(out.data, tracked.data)


def test_embedding_rejects_out_of_range_ids():
    table = nx.parameter(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="out of range"):
        nx.embedding(table, np.array([0, 4]))


# --- randomized per-op gradient checks -------------------------------------
# every differentiable op, small random shapes (dims <= 6), >= 100 trials total


def _dims(rng, n):
    return tuple(int(rng.integers(1, 7)) for _ in range(n))


def _weighted_sum(op_out, const):
    return nx.sum_(nx.mul(op_out, const))


def _case_add(rng):
    shape = _dims(rng, 3)
    a, b = rng.normal(size=shape), rng.normal(size=(shape[-1],))
    c = rng.normal(size=shape)
    return lambda a, b: _weighted_sum(nx.add(a, b), c), [a, b]


def _case_mul(rng):
    shape = _dims(rng, 2)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    c = rng.normal(size=shape)
    return lambda a, b: _weighted_sum(nx.mul(a, b), c), [a, b]


def _case_div(rng):
    shape = _dims(rng, 2)
    a = rng.normal(size=shape)
    b = rng.uniform(0.5, 2.0, size=shape) * np.where(rng.random(shape) < 0.5, -1, 1)
    c = rng.normal(size=shape)
    return lambda a, b: _weighted_sum(nx.div(a, b), c), [a, b]


def _case_matmul(rng):
    n, k, m = _dims(rng, 3)
    a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
    c = rng.normal(size=(n, m))
    return lambda a, b: _weighted_sum(nx.matmul(a, b), c), [a, b]


def _case_batched_matmul(rng):
    b_, n, k, m = _dims(rng, 4)
    a, b = rng.normal(size=(b_, n, k)), rng.normal(size=(b_, k, m))
    c = rng.normal(size=(b_, n, m))
    return lambda a, b: _weighted_sum(nx.matmul(a, b), c), [a, b]


def _case_abs(rng):
    shape = _dims(rng, 2)
    a = rng.normal(size=shape)
    a = np.where(np.abs(a) < 1e-3, 0.5, a)  # keep away from the kink
    c = rng.normal(size=shape)
    return lambda a: _weighted_sum(nx.abs_(a), c), [a]


def _case_sum_axis(rng):
    shape = _dims(rng, 3)
    a = rng.normal(size=shape)
    axis = int(rng.integers(0, 3))
    c = rng.normal(size=tuple(s for i, s in enumerate(shape) if i != axis))
    return lambda a: _weighted_sum(nx.sum_(a, axis=axis), c), [a]


def _case_mean(rng):
    shape = _dims(rng, 3)
    a = rng.normal(size=shape)
    axis = int(rng.integers(0, 3))
    c = rng.normal(size=tuple(s for i, s in enumerate(shape) if i != axis))
    return lambda a: _weighted_sum(nx.mean_(a, axis=axis), c), [a]


def _case_softmax(rng):
    shape = _dims(rng, 3)
    a = rng.normal(scale=2.0, size=shape)
    tau = float(rng.uniform(0.5, 2.0))
    c = rng.normal(size=shape)
    return lambda a: _weighted_sum(nx.softmax_lastdim(a, tau), c), [a]


def _case_silu(rng):
    shape = _dims(rng, 2)
    a = rng.normal(scale=2.0, size=shape)
    c = rng.normal(size=shape)
    return lambda a: _weighted_sum(nx.silu(a), c), [a]


def _case_layer_norm(rng):
    shape = _dims(rng, 3)
    x = rng.normal(size=shape)
    gain = rng.normal(size=shape[-1])
    bias = rng.normal(size=shape[-1])
    c = rng.normal(size=shape)
    return (
        lambda x, gain, bias: _weighted_sum(nx.layer_norm(x, gain, bias), c),
        [x, gain, bias],
    )


def _case_embedding(rng):
    v, d = int(rng.integers(2, 7)), int(rng.integers(1, 7))
    table = rng.normal(size=(v, d))
    ids = rng.integers(0, v, size=_dims(rng, 2))
    c = rng.normal(size=(*ids.shape, d))
    return lambda table: _weighted_sum(nx.embedding(table, ids), c), [table]


def _case_take_scatter_rows(rng):
    n, d, m = int(rng.integers(2, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 7))
    x = rng.normal(size=(n, d))
    idx = rng.integers(0, n, size=m)
    c = rng.normal(size=(n, d))

    def f(x):
        rows = nx.take_rows(x, idx)
        return _weighted_sum(nx.scatter_rows(rows, idx, n), c)

    return f, [x]


def _case_take_along_lastdim(rng):
    b, t, e = _dims(rng, 3)
    k = int(rng.integers(1, e + 1))
    x = rng.normal(size=(b, t, e))
    idx = rng.integers(0, e, size=(b, t, k))
    c = rng.normal(size=(b, t, k))
    return lambda x: _weighted_sum(nx.take_along_lastdim(x, idx), c), [x]


def _case_concat_rows(rng):
    d = int(rng.integers(1, 7))
    parts = [rng.normal(size=(int(rng.integers(1, 5)), d)) for _ in range(3)]
    c = rng.normal(size=(sum(p.shape[0] for p in parts), d))
    return lambda a, b, x: _weighted_sum(nx.concat_rows([a, b, x]), c), parts


def _case_reshape_swap(rng):
    a, b, c_ = _dims(rng, 3)
    x = rng.normal(size=(a, b, c_))
    c = rng.normal(size=(a * b * c_,))
    return (
        lambda x: _weighted_sum(nx.reshape(nx.swapaxes(x, 0, 2), (c_ * b * a,)), c),
        [x],
    )


def _case_cross_entropy(rng):
    n, v = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    logits = rng.normal(size=(n, v))
    targets = rng.integers(0, v, size=n)
    return lambda logits: nx.cross_entropy(logits, targets), [logits]


def _case_cross_entropy_padded(rng):
    n, v = int(rng.integers(3, 7)), int(rng.integers(2, 7))
    logits = rng.normal(size=(n, v))
    targets = rng.integers(0, v, size=n)
    targets[0] = v  # pad id outside vocab, excluded from the loss
    return lambda logits: nx.cross_entropy(logits, targets, pad_id=v), [logits]


def _case_consecutive_diff(rng):
    b, t, e = _dims(rng, 3)
    t = max(t, 2)
    x = rng.normal(size=(b, t, e))
    c = rng.normal(size=(b, t - 1, e))
    return lambda x: _weighted_sum(nx.consecutive_diff(x, axis=1), c), [x]


OP_CASES = [
    _case_add,
    _case_mul,
    _case_div,
    _case_matmul,
    _case_batched_matmul,
    _case_abs,
    _case_sum_axis,
    _case_mean,
    _case_softmax,
    _case_silu,
    _case_layer_norm,
    _case_embedding,
    _case_take_scatter_rows,
    _case_take_along_lastdim,
    _case_concat_rows,
    _case_reshape_swap,
    _case_cross_entropy,
    _case_cross_entropy_padded,
    _case_consecutive_diff,
]

TRIALS_PER_OP = 6  # 19 ops x 6 = 114 randomized trials


@pytest.mark.parametrize("case", OP_CASES, ids=lambda c: c.__name__)
def test_op_gradients_match_finite_differences(case):
    rng = np.random.default_rng(zlib.crc32(case.__name__.encode()))
    for _ in range(TRIALS_PER_OP):
        f, arrays = case(rng)
        tensors = [nx.parameter(a) for a in arrays]
        out = f(*tensors)
        out.backward()
        for i, t in enumerate(tensors):

            def f_i(var, i=i):
                args = [Tensor(a) for a in arrays]
                args[i] = var
                return f(*args)

            fd = nx.finite_difference_grad(f_i, Tensor(arrays[i]), eps=1e-5)
            assert t.grad is not None
            assert rel_err(fd, t.grad) < 1e-4, f"input {i}"


def test_total_trial_budget():
    assert len(OP_CASES) * TRIALS_PER_OP >= 100
