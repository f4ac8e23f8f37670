"""Minimal dense-tensor reverse-mode autodiff on top of numpy.

Covers exactly the operations the toy language model and its routing losses
run, one op per job: matmul, broadcasted add/mul, sum/mean, softmax along the
last axis with a temperature, masked scaled dot-product attention over
(B, T, D) inputs that splits and merges its own heads, an expert's whole SwiGLU
feed-forward over dense or factored projections, layer normalization, row
gather over the flattened leading axes (token and position lookups too), the
gated combine of expert outputs back into the gates' token shape, the
renormalized top-k gates, total variation along the token axis, and a fused
cross-entropy. No op only changes a layout. Gradients accumulate
additively into ``Tensor.grad``; callers zero them between steps. Inside
``with no_grad():`` every operation returns a plain tensor with no parents and
no backward closure, so forward-only callers (evaluation, decoding) build no
graph; the forward values are the same bits either way.

One rule holds the backward pass together: every gradient contribution is
summed out of place, and no gradient array is written after it is handed out.
A backward closure may therefore return views of its incoming gradient (a
broadcast, a reshape, the same array to both operands of ``add``) without
copying.

``Tensor.backward`` releases the graph as it walks it: a node drops its parents
and its closure once the closure has run, so a saved array is freed after the
last backward that reads it and nothing is held once ``backward`` returns, even
while the caller holds the loss; a second ``backward`` through it raises
``RuntimeError``. A closure saves only what it cannot re-derive from its
parents' data in one cheap pass, with the expression the forward used: the
backward of ``attention`` recomputes its (B, heads, t, s) weights, and that of
``swiglu_ffn`` its sigmoid. A step runs in place only where the out-of-place
form has the same association and result dtype (``_into``), which keeps the
bits.

Double precision is the default and is required for the finite-difference
checks; single precision is accepted for the training path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _kernels


class Tensor:
    """A numpy array plus a gradient slot and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) into every reachable leaf's .grad.

        Only defined for scalar outputs (losses). Uses an iterative
        topological sort so long token chains cannot hit the recursion limit.
        Each node's contributions are summed out of place into one table; a
        leaf hands its total to ``.grad`` when it is reached. A leaf with
        several consumers is therefore rounded into its dtype once, after its
        contributions are summed, not after each one.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                if node.requires_grad:
                    node._accumulate(g)
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if parent.requires_grad:
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg
            node._parents, node._backward = (), _spent

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True  # cleared only inside no_grad()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no autodiff graph for the operations run inside the block."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _spent(g: np.ndarray):
    raise RuntimeError("backward() already ran through this graph")


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    return _result(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b) -> Tensor:
    """a * b; a non-tensor ``b`` is a constant and gets no gradient."""
    if not isinstance(b, Tensor):
        b = np.asarray(b)
        return _result(a.data * b, (a,), lambda g: (_unbroadcast(g * b, a.shape),))
    ad, bd = a.data, b.data
    return _result(
        ad * bd,
        (a, b),
        lambda g: (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with gradients to both operands; supports stacked dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must be matrices: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _result(ad @ bd, (a, b), lambda g: _matmul_grads(g, ad, bd, a.shape, b.shape))


def _matmul_grads(g, ad, bd, a_shape, b_shape):
    """Gradients to a and b of a @ b, each summed back to its operand's shape."""
    ga = g @ np.swapaxes(bd, -1, -2)
    gb = np.swapaxes(ad, -1, -2) @ g
    return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape),)

    return _result(data, (a,), backward)


def mean_(a: Tensor, axis=None) -> Tensor:
    data = a.data.mean(axis=axis)
    scale = a.data.size / data.size

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / scale,)

    return _result(data, (a,), backward)


def _into(a: np.ndarray, op, b) -> np.ndarray:
    """op(a, b), written over ``a`` when that keeps the result dtype."""
    return op(a, b, out=a) if np.result_type(a, b) == a.dtype else op(a, b)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed in ``z``, which the caller owns."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _softmax_grad(g: np.ndarray, y: np.ndarray, temperature) -> np.ndarray:
    """Gradient to x of y = softmax(temperature * x + constant)."""
    gx = g - (g * y).sum(axis=-1, keepdims=True)  # in the dtype of g * y
    gx *= y
    return _into(gx, np.multiply, temperature)


def softmax_lastdim(x: Tensor, temperature: float = 1.0) -> Tensor:
    """softmax(temperature * x) along the last axis, max-stabilized; the
    temperature must be strictly positive."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    y = _softmax(temperature * x.data)
    return _result(y, (x,), lambda g: (_softmax_grad(g, y, temperature),))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale,
              mask: np.ndarray | None) -> Tensor:
    """softmax(scale * q @ k^T + mask) @ v of (B, t, D) queries over (B, s, D)
    keys and values, each split into ``heads`` heads and merged back; ``mask``
    (t, s) is an additive constant (-1e30 above a causal diagonal) or None."""
    b, _, d = q.shape

    def split(a: np.ndarray) -> np.ndarray:
        return np.swapaxes(a.reshape(b, -1, heads, d // heads), 1, 2)

    def merge(a: np.ndarray) -> np.ndarray:
        return np.swapaxes(a, 1, 2).reshape(b, -1, d)

    qd, kd, vd = split(q.data), split(k.data), split(v.data)

    def weights():
        z = _into(qd @ np.swapaxes(kd, -1, -2), np.multiply, scale)
        return _softmax(z if mask is None else _into(z, np.add, mask))

    def backward(g):
        g = split(g)
        y = weights()
        gz = _softmax_grad(g @ np.swapaxes(vd, -1, -2), y, scale)
        gk = np.swapaxes(np.swapaxes(qd, -1, -2) @ gz, -1, -2)
        return merge(gz @ kd), merge(gk), merge(np.swapaxes(y, -1, -2) @ g)

    return _result(merge(weights() @ vd), (q, k, v), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in one buffer."""
    s = np.negative(x)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def swiglu_ffn(x: Tensor, gate: Sequence[Tensor], up: Sequence[Tensor],
               down: Sequence[Tensor]) -> Tensor:
    """down(silu(gate(x)) * up(x)), a SwiGLU feed-forward over the rows of x.

    Each projection is a tuple of factors applied left to right: (w,) for a
    dense matrix, (L, R) for a weight-decomposed one, never multiplied out.
    """
    if x.ndim < 2 or x.shape[-1] != gate[0].shape[0]:
        raise ValueError(f"swiglu_ffn: expected (..., {gate[0].shape[0]}) rows, got {x.shape}")

    def project(a: np.ndarray, factors) -> list[np.ndarray]:  # a, a @ f0, (a @ f0) @ f1, ...
        outs = [a]
        for w in factors:
            outs.append(outs[-1] @ w.data)
        return outs

    def project_grads(g, ins: list[np.ndarray], factors):  # to the input, then to each factor
        gw = []
        for a, w in zip(reversed(ins), reversed(factors)):
            g, gf = _matmul_grads(g, a, w.data, a.shape, w.shape)
            gw.insert(0, gf)
        return g, gw

    *gate_ins, gd = project(x.data, gate)
    *up_ins, ud = project(x.data, up)
    # h is kept, not recomputed: an h-sized temporary per expert in backward
    # about doubled the minor page faults of a desk step and slowed it
    h = _into(_into(_sigmoid(gd), np.multiply, gd), np.multiply, ud)
    *down_ins, out = project(h, down)

    def backward(g):
        g, g_down = project_grads(g, down_ins, down)
        s = _sigmoid(gd)
        t = _into(_into(1.0 - s, np.multiply, gd), np.add, 1.0)  # 1 + gd * (1 - s)
        g_gate = _into(_into(g * ud, np.multiply, s), np.multiply, t)
        g_up = _into(_into(s, np.multiply, gd), np.multiply, g)
        gx_gate, g_gate = project_grads(g_gate, gate_ins, gate)
        gx_up, g_up = project_grads(g_up, up_ins, up)
        return gx_gate + gx_up, *g_gate, *g_up, *g_down

    return _result(out, (x, *gate, *up, *down), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5), then affine."""
    d = x.shape[-1]
    mean = x.data.sum(axis=-1, keepdims=True) / d
    xc = x.data - mean
    inv = 1.0 / np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / d + 1e-5)
    data = _into(_into(xc * inv, np.multiply, gain.data), np.add, bias.data)

    def backward(g):
        xhat = (x.data - mean) * inv
        ggain = _unbroadcast(g * xhat, gain.shape)
        gbias = _unbroadcast(g, bias.shape)
        gx_hat = g * gain.data
        gx = inv * (
            gx_hat
            - gx_hat.sum(axis=-1, keepdims=True) / d
            - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
        )
        return gx, ggain, gbias

    return _result(data, (x, gain, bias), backward)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of x's flattened leading axes: out[i...] = x.reshape(-1, D)[idx[i...]].

    Ids are not range-checked (a negative one wraps around); callers check ids
    that come from outside.
    """
    idx = np.asarray(idx, dtype=np.int64)
    d = x.shape[-1]
    data = x.data.reshape(-1, d)[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        _kernels.index_add_rows(gx.reshape(-1, d), idx.reshape(-1), g.reshape(-1, d))
        return (gx,)

    return _result(data, (x,), backward)


def combine_rows(parts: Sequence[Tensor], gates: Tensor, order: np.ndarray) -> Tensor:
    """Gated mix of expert outputs into their tokens: a fresh (..., D) shaped
    like ``gates`` (..., K) but for its last axis, whose n token rows get
    out[order[m] // K] += rows[m] * gates.flat[order[m]], where ``rows`` stacks
    the 2-d ``parts`` and ``order`` is a permutation of the n·K flat gate
    slots. Each token sums its K rows in ascending m."""
    k = gates.shape[-1]
    order = np.asarray(order, dtype=np.int64)
    flat = gates.data.reshape(-1, 1)
    picked = flat[order]
    mixed = np.concatenate([p.data for p in parts]) * picked
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    data = np.zeros((flat.shape[0] // k, mixed.shape[-1]), dtype=mixed.dtype)
    for rows in np.sort(slot.reshape(-1, k), axis=1).T:
        data += mixed[rows]
    bounds = np.cumsum([p.shape[0] for p in parts[:-1]])

    def backward(g):
        g_mixed = g.reshape(-1, g.shape[-1])[order // k]
        g_flat = np.empty_like(flat)
        stacked = np.concatenate([p.data for p in parts])
        g_flat[order] = (g_mixed * stacked).sum(axis=1, keepdims=True)
        return (*np.split(g_mixed * picked, bounds), g_flat.reshape(gates.shape))

    return _result(data.reshape(*gates.shape[:-1], -1), (*parts, gates), backward)


def take_normalized(x: Tensor, idx: np.ndarray) -> Tensor:
    """The entries ``idx`` (..., K) picks along the last axis of ``x`` (..., E),
    renormalized to sum to one: out[..., j] = x[..., idx[..., j]] / sum_i x[..., idx[..., i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    picks = idx.reshape(-1, idx.shape[-1])
    rows = np.arange(len(picks))[:, None]
    taken = x.data.reshape(-1, x.shape[-1])[rows, picks].reshape(idx.shape)
    total = taken.sum(axis=-1, keepdims=True)

    def backward(g):
        g_total = (-g * taken / (total * total)).sum(axis=-1, keepdims=True)
        g_taken = (g / total + g_total).reshape(picks.shape)
        gx = np.zeros_like(x.data)
        _kernels.scatter_add_lastdim(gx.reshape(-1, x.shape[-1]), picks, g_taken)
        return (gx,)

    return _result(taken / total, (x,), backward)


def total_variation(x: Tensor) -> Tensor:
    """sum |x[:, t + 1] - x[:, t]| over every entry: the total variation along
    axis 1, a scalar; subgradient 0 where neighbours are equal."""
    if x.shape[1] < 1:
        raise ValueError(f"axis 1 of {x.shape} is empty")
    diff = x.data[:, 1:] - x.data[:, :-1]
    sign = np.sign(diff)

    def backward(g):
        g_diff = np.broadcast_to(g, diff.shape) * sign
        gx = np.zeros_like(x.data)
        gx[:, 1:] += g_diff
        gx[:, :-1] -= g_diff
        return (gx,)

    return _result(np.abs(diff).sum(), (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under ``logits``.

    ``logits`` is (..., V), ``targets`` integer (...-shaped).
    """
    targets = np.asarray(targets, dtype=np.int64)
    v = logits.shape[-1]
    flat = logits.data.reshape(-1, v)
    tf = targets.reshape(-1)
    n = tf.shape[0]
    if n == 0:
        raise ValueError("cross_entropy: no targets")
    if tf.min() < 0 or tf.max() >= v:
        raise ValueError(f"target ids out of range [0, {v}): max={tf.max()}")
    rows = np.arange(n)
    m = flat.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(flat - m).sum(axis=-1)) + m[:, 0]
    data = np.asarray((lse - flat[rows, tf]).sum() / n, dtype=flat.dtype)

    def backward(g):
        z = flat - m
        p = np.exp(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
        p[rows, tf] -= 1.0
        p *= g / n
        return (p.reshape(logits.shape),)

    return _result(data, (logits,), backward)


def parameter(data) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True)


def finite_difference_grad(
    f: Callable[[Tensor], float | Tensor], x: Tensor, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function, element by element.

    The workhorse oracle for every gradient test in the suite. ``f`` must be
    deterministic; eps outside [1e-7, 1e-3] defeats double-precision central
    differences and is rejected.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps={eps} outside the supported range [1e-7, 1e-3]")

    def evaluate(arr: np.ndarray) -> float:
        out = f(Tensor(arr))
        val = out.item() if isinstance(out, Tensor) else float(out)
        if not np.isfinite(val):
            raise ValueError(f"finite_difference_grad: non-finite objective {val}")
        return val

    base = x.data.astype(np.float64).copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = evaluate(base)
        flat[i] = orig - eps
        lo = evaluate(base)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def global_grad_norm(params: Iterable[Tensor]) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))
