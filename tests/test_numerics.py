"""Autodiff core: op semantics, gradient fidelity against central differences."""

import inspect
import sys
import weakref
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


def test_backward_frees_the_graph_while_the_loss_is_held():
    x = nx.parameter(np.arange(12.0).reshape(3, 4))
    hidden = nx.matmul(x, nx.parameter(np.ones((4, 5))))
    saved = weakref.ref(hidden.data)  # the product's backward reads it
    loss = nx.sum_(nx.mul(hidden, hidden))
    del hidden
    loss.backward()
    assert saved() is None
    want = np.broadcast_to(10 * x.data.sum(axis=1, keepdims=True), x.shape)  # 2 * h * 5 columns
    np.testing.assert_array_equal(x.grad, want)


def test_second_backward_through_a_graph_raises():
    x = nx.parameter(np.array([1.0, -2.0]))
    loss = nx.sum_(nx.mul(x, x))
    loss.backward()
    with pytest.raises(RuntimeError, match="already ran"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


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


def _case_attention(rng):
    """(B, t, D) queries over (B, s, D) keys and values, t and s drawn independently,
    split into 1 to 3 heads."""
    b, t, s, d = _dims(rng, 4)
    heads = int(rng.integers(1, 4))
    q = rng.normal(size=(b, t, heads * d))
    k, v = rng.normal(size=(b, s, heads * d)), rng.normal(size=(b, s, heads * d))
    scale = float(rng.uniform(0.5, 2.0))
    mask = np.where(rng.random((t, s)) < 0.3, -1e30, rng.normal(size=(t, s)))
    mask[:, int(rng.integers(s))] = 0.0  # every row keeps a finite entry
    c = rng.normal(size=q.shape)
    return (lambda q, k, v: _weighted_sum(nx.attention(q, k, v, heads, scale, mask), c),
            [q, k, v])


def _case_swiglu(rng):
    shape = _dims(rng, 2)
    gate, up = rng.normal(scale=2.0, size=shape), rng.normal(size=shape)
    c = rng.normal(size=shape)
    return lambda gate, up: _weighted_sum(nx.swiglu(gate, up), c), [gate, up]


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


def _case_take_rows(rng):
    """A 2-d table, as the embeddings gather from, and a 3-d x whose leading
    axes flatten to the rows, as the MoE layer gathers its tokens."""
    d = int(rng.integers(1, 7))
    table, x = rng.normal(size=(int(rng.integers(2, 7)), d)), rng.normal(size=(*_dims(rng, 2), d))
    ids = [rng.integers(0, a.size // d, size=_dims(rng, 2)) for a in (table, x)]
    for i in ids:
        i.flat[-1] = i.flat[0]  # a repeated id accumulates two gradient rows
    c = [rng.normal(size=(*i.shape, d)) for i in ids]

    def f(table, x):
        return nx.add(_weighted_sum(nx.take_rows(table, ids[0]), c[0]),
                      _weighted_sum(nx.take_rows(x, ids[1]), c[1]))

    return f, [table, x]


def _case_combine_rows(rng):
    n, k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
    order = rng.permutation(n * k)
    cuts = np.sort(rng.choice(np.arange(1, n * k), size=min(2, n * k - 1), replace=False))
    parts = [rng.normal(size=(m, d)) for m in np.diff([0, *cuts, n * k])]
    gates = rng.normal(size=(n, k))
    c = rng.normal(size=(n, d))

    def f(*args):
        return _weighted_sum(nx.combine_rows(args[:-1], args[-1], order), c)

    return f, [*parts, gates]


def _case_concat_rows(rng):
    """K = 1: each token gets one row, so the op is the row concatenation of
    the parts, permuted and gated, and its backward the split."""
    d = int(rng.integers(1, 7))
    parts = [rng.normal(size=(int(rng.integers(1, 5)), d)) for _ in range(3)]
    n = sum(p.shape[0] for p in parts)
    order = rng.permutation(n)
    gates = rng.normal(size=(n, 1))
    c = rng.normal(size=(n, d))
    return lambda a, b, x, gates: _weighted_sum(nx.combine_rows([a, b, x], gates, order), c), [*parts, gates]


def _case_take_scatter_rows(rng):
    """The round trip of the MoE layer: gather each slot's token row, then
    scatter-add the gated rows back, K >= 2 rows to a token."""
    n, k, d = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(1, 7))
    x = rng.normal(size=(n, d))
    order = rng.permutation(n * k)
    gates = rng.normal(size=(n, k))
    c = rng.normal(size=(n, d))

    def f(x, gates):
        rows = nx.take_rows(x, order // k)
        return _weighted_sum(nx.combine_rows([rows], gates, order), c)

    return f, [x, gates]


def _case_take_normalized(rng):
    b, t, e = _dims(rng, 3)
    k = int(rng.integers(1, e + 1))
    x = rng.uniform(0.1, 1.0, size=(b, t, e))  # positive, like routing weights
    idx = rng.integers(0, e, size=(b, t, k))  # a repeated id accumulates
    c = rng.normal(size=(b, t, k))
    return lambda x: _weighted_sum(nx.take_normalized(x, idx), c), [x]


def _case_div(rng):
    """Every column picked once: the op is the quotient x / x.sum(-1), whose
    divisor gradient reaches every entry."""
    b, t, e = _dims(rng, 3)
    x = rng.uniform(0.1, 2.0, size=(b, t, e))
    idx = np.argsort(rng.random(size=(b, t, e)), axis=-1)
    c = rng.normal(size=(b, t, e))
    return lambda x: _weighted_sum(nx.take_normalized(x, idx), c), [x]


def _case_take_along_lastdim(rng):
    """K >= 2 picks with a forced repeat: the gather's scatter-add backward
    accumulates the repeated column and leaves unpicked columns at zero."""
    b, t, e = _dims(rng, 3)
    k = int(rng.integers(2, 5))
    x = rng.uniform(0.1, 1.0, size=(b, t, e))
    idx = rng.integers(0, e, size=(b, t, k))
    idx[..., -1] = idx[..., 0]
    c = rng.normal(size=(b, t, k))
    return lambda x: _weighted_sum(nx.take_normalized(x, idx), c), [x]


def _case_cross_entropy(rng):
    n, v = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    logits = rng.normal(size=(n, v))
    targets = rng.integers(0, v, size=n)
    return lambda logits: nx.cross_entropy(logits, targets), [logits]


def _case_total_variation(rng):
    b, t, e = _dims(rng, 3)
    steps = rng.uniform(0.1, 1.0, size=(b, t, e)) * rng.choice([-1.0, 1.0], size=(b, t, e))
    x = np.cumsum(steps, axis=1)  # neighbours differ by >= 0.1: away from the kink
    # interior gradients are often exactly 0; an O(1) objective keeps the
    # rounding of its central differences below rel_err's 1e-6 floor
    return lambda x: nx.mul(nx.total_variation(x), 1.0 / (b * t * e)), [x]


def _case_abs(rng):
    """T = 2: one difference per (b, e), so the op is sum |x1 - x0|, with
    differences of both signs kept away from the kink."""
    b, e = _dims(rng, 2)
    x0 = rng.normal(size=(b, 1, e))
    step = rng.uniform(0.1, 1.0, size=(b, 1, e)) * rng.choice([-1.0, 1.0], size=(b, 1, e))
    x = np.concatenate([x0, x0 + step], axis=1)
    return lambda x: nx.mul(nx.total_variation(x), 1.0 / (b * e)), [x]


def _case_consecutive_diff(rng):
    """T >= 3 zig-zag: each interior entry feeds two differences of opposite
    sign, so its gradient sums two contributions (+-2, not 0)."""
    b, t, e = int(rng.integers(1, 7)), int(rng.integers(3, 7)), int(rng.integers(1, 7))
    sign = np.where(np.arange(t) % 2 == 0, 1.0, -1.0)[None, :, None]
    steps = rng.uniform(0.1, 1.0, size=(b, t, e)) * sign * rng.choice([-1.0, 1.0], size=(b, 1, e))
    x = np.cumsum(steps, axis=1)
    return lambda x: nx.mul(nx.total_variation(x), 1.0 / (b * t * e)), [x]


def _case_fan_out(rng):
    """Interior nodes that feed both an add and a later op, so each sums two
    contributions, one of them the array add hands to both operands; each
    leaf feeds two ops."""
    shape = _dims(rng, 2)
    a, b = rng.normal(size=shape), rng.normal(size=shape)
    c = rng.normal(size=shape)

    def f(a, b):
        p, q = nx.swiglu(a, b), nx.swiglu(b, a)
        return _weighted_sum(nx.add(nx.add(p, q), nx.mul(p, q)), c)

    return f, [a, b]


OP_CASES = [
    _case_add,
    _case_mul,
    _case_matmul,
    _case_batched_matmul,
    _case_sum_axis,
    _case_mean,
    _case_softmax,
    _case_attention,
    _case_swiglu,
    _case_layer_norm,
    _case_take_rows,
    _case_combine_rows,
    _case_concat_rows,
    _case_take_scatter_rows,
    _case_take_normalized,
    _case_div,
    _case_take_along_lastdim,
    _case_cross_entropy,
    _case_total_variation,
    _case_abs,
    _case_consecutive_diff,
    _case_fan_out,
]

TRIALS_PER_OP = 6  # 22 cases x 6 = 132 randomized trials


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


def test_every_op_has_a_finite_difference_case(monkeypatch):
    """Every numerics function that builds a graph node runs in some case, so
    a new op cannot land without one and a deleted op leaves no stale case."""
    ops = {name for name, fn in vars(nx).items()
           if inspect.isfunction(fn) and "_result" in fn.__code__.co_names}
    ran = set()
    result = nx._result

    def recorded(data, parents, backward):
        ran.add(sys._getframe(1).f_code.co_name)
        return result(data, parents, backward)

    monkeypatch.setattr(nx, "_result", recorded)
    rng = np.random.default_rng(0)
    for case in OP_CASES:
        f, arrays = case(rng)
        f(*[nx.parameter(a) for a in arrays])
    assert ops and ops <= ran, sorted(ops - ran)


# --- fused ops against the generic-op chains they replace ---------------------
# Each fused op runs the numpy expressions of the chain of generic ops it
# replaced, in the same order, so training and decoding kept their bits. The
# chains are written out here; a change to an op's arithmetic fails these
# exact comparisons, in both dtypes.


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)


def _fused(out, parents, g):
    """Forward value and the gradients of one upstream ``g`` of a fused node."""
    assert out._parents == tuple(parents)
    return [out.data, *out._backward(g)]


DTYPES = ["float32", "float64"]


def _heads(a, h):
    """The (B, n, h * d) array as h head views (B, h, n, d)."""
    b, n, d = a.shape
    return np.swapaxes(a.reshape(b, n, h, d // h), 1, 2)


def _merged(a):
    """The (B, h, n, d) heads merged back to (B, n, h * d)."""
    b, h, n, d = a.shape
    return np.swapaxes(a, 1, 2).reshape(b, n, h * d)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("masked", [True, False])
def test_attention_is_the_bits_of_its_chain(dtype, masked):
    """The head split of q, k and v, swapaxes(k), q @ k^T, softmax(scale * s
    + mask), @ v, and the merge of the heads; 5 queries over 7 keys, as a
    cached decode step sees them, and the scale a float64 scalar."""
    rng = np.random.default_rng(31)
    b, h, t, s, d = 2, 3, 5, 7, 3  # a scale that is not a power of two rounds
    q = rng.normal(size=(b, t, h * d)).astype(dtype)
    k, v = (rng.normal(size=(b, s, h * d)).astype(dtype) for _ in range(2))
    scale = 1.0 / np.sqrt(d)
    mask = np.triu(np.full((t, s), -1e30, dtype=dtype), s - t + 1) if masked else None
    qh, kh, vh = _heads(q, h), _heads(k, h), _heads(v, h)
    kt = np.swapaxes(kh, -1, -2)
    z = scale * (qh @ kt)
    if masked:
        z = z + mask
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _merged(y @ vh)
    g = rng.normal(size=out.shape).astype(out.dtype)
    gh = _heads(g, h)
    g_y, g_v = gh @ np.swapaxes(vh, -1, -2), np.swapaxes(y, -1, -2) @ gh
    g_s = y * (g_y - (g_y * y).sum(axis=-1, keepdims=True)) * scale
    g_q = g_s @ np.swapaxes(kt, -1, -2)
    g_k = np.swapaxes(np.swapaxes(qh, -1, -2) @ g_s, -1, -2)
    args = [nx.parameter(a) for a in (q, k, v)]
    got = _fused(nx.attention(*args, h, scale, mask), args, g)
    _assert_same_bits(got, [out, _merged(g_q), _merged(g_k), _merged(g_v)])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("temperature", [0.7, np.float64(0.7)])
def test_softmax_lastdim_is_the_bits_of_its_chain(dtype, temperature):
    """temperature * x, less the row max, exp, over the row sum; the backward
    of the router's softmax, with a gradient in the dtype of x."""
    rng = np.random.default_rng(39)
    x = rng.normal(scale=3.0, size=(2, 5, 6)).astype(dtype)
    z = temperature * x
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    g = rng.normal(size=x.shape).astype(dtype)
    g_x = y * (g - (g * y).sum(axis=-1, keepdims=True)) * temperature
    args = [nx.parameter(x)]
    _assert_same_bits(_fused(nx.softmax_lastdim(args[0], temperature), args, g), [y, g_x])


@pytest.mark.parametrize("a, b", [("float32", "float64"), ("float64", "float32")])
def test_in_place_steps_keep_the_bits_of_mixed_dtypes(a, b):
    """An in-place step would round into its buffer's dtype, however wide the
    other operand; on operands of two dtypes swiglu, layer_norm and attention
    give the bits and dtypes of their out-of-place chains."""
    rng = np.random.default_rng(40)
    gate, up = rng.normal(scale=2.0, size=(7, 5)).astype(a), rng.normal(size=(7, 5)).astype(b)
    s = 1.0 / (1.0 + np.exp(-gate))
    g = rng.normal(size=gate.shape).astype(b)
    args = [nx.parameter(gate), nx.parameter(up)]
    _assert_same_bits(_fused(nx.swiglu(*args), args, g),
                      [gate * s * up, g * up * s * (1.0 + gate * (1.0 - s)), g * (gate * s)])

    x = rng.normal(loc=0.5, size=(2, 5, 6)).astype(a)
    gain, bias = (rng.normal(size=6).astype(b) for _ in range(2))
    xc = x - x.sum(axis=-1, keepdims=True) / 6
    xhat = xc * (1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / 6 + 1e-5))
    _assert_same_bits([nx.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data],
                      [xhat * gain + bias])

    q, k, v = (rng.normal(size=(2, 5, 12)).astype(a) for _ in range(3))
    qh, kh, vh = (_heads(t, 3) for t in (q, k, v))
    mask = np.triu(np.full((5, 5), -1e30, dtype=b), 1)
    z = 0.7 * (qh @ np.swapaxes(kh, -1, -2)) + mask
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    g = rng.normal(size=(2, 5, 12)).astype(b)
    gh = _heads(g, 3)
    g_y = gh @ np.swapaxes(vh, -1, -2)
    g_z = y * (g_y - (g_y * y).sum(axis=-1, keepdims=True)) * 0.7
    args = [nx.parameter(t) for t in (q, k, v)]
    _assert_same_bits(_fused(nx.attention(*args, 3, 0.7, mask), args, g),
                      [_merged(t) for t in (y @ vh, g_z @ kh,
                                            np.swapaxes(np.swapaxes(qh, -1, -2) @ g_z, -1, -2),
                                            np.swapaxes(y, -1, -2) @ gh)])


@pytest.mark.parametrize("dtype", DTYPES)
def test_swiglu_is_the_bits_of_its_chain(dtype):
    """SiLU of the gate, then a product with up."""
    rng = np.random.default_rng(32)
    gate, up = (rng.normal(scale=2.0, size=(7, 5)).astype(dtype) for _ in range(2))
    s = 1.0 / (1.0 + np.exp(-gate))
    act = gate * s
    g = rng.normal(size=gate.shape).astype(dtype)
    g_act = g * up
    g_gate = g_act * s * (1.0 + gate * (1.0 - s))
    args = [nx.parameter(gate), nx.parameter(up)]
    _assert_same_bits(_fused(nx.swiglu(*args), args, g), [act * up, g_gate, g * act])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("k", [1, 2])
def test_take_normalized_is_the_bits_of_its_chain(dtype, k):
    """A gather along the last axis, its sum over that axis, and a division."""
    rng = np.random.default_rng(33)
    x = rng.uniform(0.1, 1.0, size=(2, 5, 4)).astype(dtype)
    idx = np.argsort(rng.random((2, 5, 4)), axis=-1)[..., :k]
    taken = np.take_along_axis(x, idx, axis=-1)
    total = taken.sum(axis=-1, keepdims=True)
    g = rng.normal(size=taken.shape).astype(dtype)
    g_total = -g * taken / (total * total)  # the quotient's gradient to its divisor,
    if k > 1:  # summed back to the divisor's shape
        g_total = g_total.sum(axis=-1, keepdims=True)
    g_taken = g / total + np.broadcast_to(g_total, taken.shape)
    g_x = np.zeros_like(x)
    np.add.at(g_x.reshape(-1, 4), (np.arange(10)[:, None], idx.reshape(-1, k)),
              g_taken.reshape(-1, k))
    args = [nx.parameter(x)]
    _assert_same_bits(_fused(nx.take_normalized(args[0], idx), args, g),
                      [taken / total, g_x])


@pytest.mark.parametrize("dtype", DTYPES)
def test_total_variation_is_the_bits_of_its_chain(dtype):
    """Consecutive differences along axis 1, their absolute values and a sum;
    a tie has subgradient 0."""
    rng = np.random.default_rng(34)
    x = rng.normal(size=(2, 6, 4)).astype(dtype)
    x[:, 3] = x[:, 2]
    diff = x[:, 1:] - x[:, :-1]
    g = np.asarray(rng.normal(), dtype=dtype)
    g_diff = np.broadcast_to(g, diff.shape) * np.sign(diff)
    g_x = np.zeros_like(x)
    g_x[:, 1:] += g_diff
    g_x[:, :-1] -= g_diff
    args = [nx.parameter(x)]
    _assert_same_bits(_fused(nx.total_variation(args[0]), args, g),
                      [np.abs(diff).sum(), g_x])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("d", [1, 6])
def test_combine_rows_is_the_bits_of_its_chain(dtype, d):
    """The gate gather, a row concatenation, the gated product and a row
    scatter-add, with the parts grouped as the MoE layer groups them."""
    rng = np.random.default_rng(35)
    n, k = 5, 2
    ids = np.argsort(rng.random((n, 4)), axis=-1)[:, :k].reshape(-1)
    order = np.argsort(ids, kind="stable")
    sizes = np.bincount(ids)[np.bincount(ids) > 0]
    parts = [rng.normal(size=(m, d)).astype(dtype) for m in sizes]
    gates = rng.uniform(size=(n, k)).astype(dtype)
    flat = gates.reshape(n * k, 1)
    picked = flat[order]
    stacked = np.concatenate(parts)
    mixed = stacked * picked
    out = np.zeros((n, d), dtype=mixed.dtype)
    np.add.at(out, order // k, mixed)
    g = rng.normal(size=out.shape).astype(dtype)
    g_mixed = g[order // k]
    g_picked = g_mixed * stacked  # mul's gradient to the gates,
    if d > 1:  # summed back to their (n*k, 1) shape
        g_picked = g_picked.sum(axis=(1,), keepdims=True)
    g_flat = np.zeros_like(flat)
    np.add.at(g_flat, order, g_picked.reshape(-1, 1))
    g_parts = np.split(g_mixed * picked, np.cumsum(sizes[:-1]))
    args = [nx.parameter(p) for p in parts] + [nx.parameter(gates)]
    got = _fused(nx.combine_rows(args[:-1], args[-1], order), args, g)
    _assert_same_bits(got, [out, *g_parts, g_flat.reshape(n, k)])


@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_is_the_bits_of_its_chain(dtype):
    """Centre, scale by the inverse standard deviation, then the affine map;
    the backward reads the normalized input."""
    rng = np.random.default_rng(36)
    x = rng.normal(loc=0.5, size=(2, 5, 6)).astype(dtype)
    gain, bias = (rng.normal(size=6).astype(dtype) for _ in range(2))
    xc = x - x.sum(axis=-1, keepdims=True) / 6
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / 6 + 1e-5)
    xhat = xc * inv
    out = xhat * gain + bias
    g = rng.normal(size=x.shape).astype(dtype)
    g_xhat = g * gain
    g_x = inv * (g_xhat - g_xhat.sum(axis=-1, keepdims=True) / 6
                 - xhat * (g_xhat * xhat).sum(axis=-1, keepdims=True) / 6)
    args = [nx.parameter(a) for a in (x, gain, bias)]
    _assert_same_bits(_fused(nx.layer_norm(*args), args, g),
                      [out, g_x, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))])


@pytest.mark.parametrize("dtype", DTYPES)
def test_cross_entropy_is_the_bits_of_its_chain(dtype):
    """A max-shifted log-sum-exp minus the target logits, averaged; the
    backward is the softmax less the one-hot targets."""
    rng = np.random.default_rng(37)
    logits = rng.normal(scale=3.0, size=(2, 5, 7)).astype(dtype)
    targets = rng.integers(0, 7, size=(2, 5))
    flat, tf, rows = logits.reshape(-1, 7), targets.reshape(-1), np.arange(10)
    z = flat - flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1)) + flat.max(axis=-1)
    out = np.asarray((lse - flat[rows, tf]).sum() / 10, dtype=dtype)
    g = np.asarray(rng.normal(), dtype=dtype)
    p = np.exp(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
    p[rows, tf] -= 1.0
    p *= g / 10
    args = [nx.parameter(logits)]
    _assert_same_bits(_fused(nx.cross_entropy(args[0], targets), args, g),
                      [out, p.reshape(logits.shape)])


def test_combine_rows_sums_a_token_in_row_order():
    """With K = 3 the order of a token's sum shows in its bits: rows are added
    in ascending stacked position, as a sequential scatter-add adds them."""
    rng = np.random.default_rng(38)
    n, k, d = 40, 3, 4
    order = rng.permutation(n * k)
    scales = 10.0 ** rng.integers(-3, 4, size=(n * k, 1))  # rows of mixed magnitude round
    rows = (rng.normal(size=(n * k, d)) * scales).astype(np.float32)
    gates = rng.uniform(size=(n, k)).astype(np.float32)
    want = np.zeros((n, d), dtype=np.float32)
    np.add.at(want, order // k, rows * gates.reshape(-1, 1)[order])
    got = nx.combine_rows([Tensor(rows[:50]), Tensor(rows[50:])], Tensor(gates), order)
    np.testing.assert_array_equal(got.data, want)
