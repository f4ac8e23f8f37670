"""Minimal dense-tensor reverse-mode autodiff on top of numpy.

Covers exactly the operations the toy language model and its routing losses
need: matmul, broadcasted elementwise arithmetic, abs, sum/mean, softmax along
the last axis, SiLU, layer normalization, embedding lookup, row gather, scatter
and concatenation, gathers along the last axis, reshape/swapaxes, and a fused
cross-entropy. Gradients accumulate additively into ``Tensor.grad``; callers
zero them between steps. Inside ``with no_grad():`` every operation returns a
plain tensor with no parents and no backward closure, so forward-only callers
(evaluation, decoding) build no graph; the forward values are the same bits
either way.

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
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node._accumulate(g)
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if not parent.requires_grad:
                        continue
                    if parent._backward is None:
                        parent._accumulate(pg)
                    else:
                        key = id(parent)
                        if key in grads:
                            grads[key] += pg
                        else:
                            grads[key] = pg

    # operator sugar; all real work lives in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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


def _result(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents):
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


def _coerce(other) -> np.ndarray | Tensor:
    return other if isinstance(other, Tensor) else np.asarray(other)


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    if isinstance(b, Tensor):
        data = a.data + b.data
        return _result(
            data,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        )
    data = a.data + b
    return _result(data, (a,), lambda g: (_unbroadcast(g, a.shape),))


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    if isinstance(b, Tensor):
        data = a.data - b.data
        return _result(
            data,
            (a, b),
            lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        )
    data = a.data - b
    return _result(data, (a,), lambda g: (_unbroadcast(g, a.shape),))


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    if isinstance(b, Tensor):
        data = a.data * b.data
        ad, bd = a.data, b.data
        return _result(
            data,
            (a, b),
            lambda g: (_unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)),
        )
    data = a.data * b
    return _result(data, (a,), lambda g: (_unbroadcast(g * b, a.shape),))


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b)
    if isinstance(b, Tensor):
        data = a.data / b.data
        ad, bd = a.data, b.data
        return _result(
            data,
            (a, b),
            lambda g: (
                _unbroadcast(g / bd, a.shape),
                _unbroadcast(-g * ad / (bd * bd), b.shape),
            ),
        )
    data = a.data / b
    return _result(data, (a,), lambda g: (_unbroadcast(g / b, a.shape),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with gradients to both operands; supports stacked dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul: operands must be matrices: {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ: {a.shape} x {b.shape}")
    data = a.data @ b.data
    ad, bd = a.data, b.data

    def backward(g):
        ga = g @ np.swapaxes(bd, -1, -2)
        gb = np.swapaxes(ad, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _result(data, (a, b), backward)


def abs_(a: Tensor) -> Tensor:
    """Elementwise absolute value; subgradient 0 at the kink."""
    sign = np.sign(a.data)
    return _result(np.abs(a.data), (a,), lambda g: (g * sign,))


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(data, (a,), backward)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.mean(axis=axis, keepdims=keepdims)
    scale = a.data.size / data.size

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / scale,)

    return _result(data, (a,), backward)


def softmax_lastdim(x: Tensor, temperature: float = 1.0) -> Tensor:
    """softmax(temperature * x) along the last axis, max-stabilized.

    The temperature multiplies the logits before normalization; it must be
    strictly positive.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = temperature * x.data
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (temperature * y * (g - dot),)

    return _result(y, (x,), backward)


def silu(x: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-x.data))
    data = x.data * s

    def backward(g):
        return (g * s * (1.0 + x.data * (1.0 - s)),)

    return _result(data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data
    d = x.shape[-1]

    def backward(g):
        ggain = _unbroadcast(g * xhat, gain.shape)
        gbias = _unbroadcast(g, bias.shape)
        gx_hat = g * gain.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
        )
        return gx, ggain, gbias

    return _result(data, (x, gain, bias), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]; ids is an integer array of any shape."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    flat = np.ascontiguousarray(ids.reshape(-1).astype(np.int64))
    data = table.data[flat].reshape(*ids.shape, table.shape[-1])

    def backward(g):
        gt = np.zeros_like(table.data)
        _kernels.index_add_rows(gt, flat, np.ascontiguousarray(g.reshape(flat.shape[0], -1)))
        return (gt,)

    return _result(data, (table,), backward)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of a 2-d tensor: out[m] = x[idx[m]]."""
    idx = np.ascontiguousarray(np.asarray(idx, dtype=np.int64))
    data = x.data[idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        _kernels.index_add_rows(gx, idx, np.ascontiguousarray(g))
        return (gx,)

    return _result(data, (x,), backward)


def scatter_rows(rows: Tensor, idx: np.ndarray, num_rows: int) -> Tensor:
    """Inverse of take_rows: out[idx[m]] += rows[m] into a fresh (num_rows, D)."""
    idx = np.ascontiguousarray(np.asarray(idx, dtype=np.int64))
    data = np.zeros((num_rows, rows.shape[-1]), dtype=rows.dtype)
    _kernels.index_add_rows(data, idx, np.ascontiguousarray(rows.data))

    def backward(g):
        return (g[idx],)

    return _result(data, (rows,), backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack 2-d tensors along the rows; backward splits the gradient back."""
    data = np.concatenate([p.data for p in parts])
    bounds = np.cumsum([p.shape[0] for p in parts[:-1]])
    return _result(data, tuple(parts), lambda g: tuple(np.split(g, bounds)))


def take_along_lastdim(x: Tensor, idx: np.ndarray) -> Tensor:
    """out[..., k] = x[..., idx[..., k]] with idx matching x on leading dims."""
    idx = np.asarray(idx, dtype=np.int64)
    data = np.take_along_axis(x.data, idx, axis=-1)
    r = int(np.prod(idx.shape[:-1], dtype=np.int64)) if idx.ndim > 1 else 1
    idx2 = np.ascontiguousarray(idx.reshape(r, idx.shape[-1]))

    def backward(g):
        gx = np.zeros_like(x.data)
        _kernels.scatter_add_lastdim(
            gx.reshape(r, x.shape[-1]), idx2, np.ascontiguousarray(g.reshape(idx2.shape))
        )
        return (gx,)

    return _result(data, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return _result(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.shape),))


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    return _result(
        np.swapaxes(x.data, a, b), (x,), lambda g: (np.swapaxes(g, a, b),)
    )


def consecutive_diff(x: Tensor, axis: int = 1) -> Tensor:
    """Difference of consecutive slices along ``axis``: x[.., 1:, ..] - x[.., :-1, ..]."""
    if x.shape[axis] < 1:
        raise ValueError(f"axis {axis} of {x.shape} is empty")
    hi = [slice(None)] * x.ndim
    lo = [slice(None)] * x.ndim
    hi[axis] = slice(1, None)
    lo[axis] = slice(None, -1)
    hi, lo = tuple(hi), tuple(lo)
    data = x.data[hi] - x.data[lo]

    def backward(g):
        gx = np.zeros_like(x.data)
        gx[hi] += g
        gx[lo] -= g
        return (gx,)

    return _result(data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, pad_id: int | None = None) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under ``logits``.

    ``logits`` is (..., V), ``targets`` integer (...-shaped). Positions equal
    to ``pad_id`` are excluded from both the mean and the gradient.
    """
    targets = np.asarray(targets, dtype=np.int64)
    v = logits.shape[-1]
    flat = logits.data.reshape(-1, v)
    tf = targets.reshape(-1)
    valid = np.ones(tf.shape, dtype=bool) if pad_id is None else tf != pad_id
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: no non-padding targets")
    checked = tf[valid]
    if checked.min() < 0 or checked.max() >= v:
        raise ValueError(f"target ids out of range [0, {v}): max={checked.max()}")
    m = flat.max(axis=-1, keepdims=True)
    z = flat - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    picked = flat[np.arange(tf.shape[0]), np.where(valid, tf, 0)]
    nll = np.where(valid, lse - picked, 0.0)
    data = np.asarray(nll.sum() / n_valid, dtype=flat.dtype)

    def backward(g):
        p = np.exp(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
        p[np.arange(tf.shape[0]), np.where(valid, tf, 0)] -= np.where(valid, 1.0, 0.0)
        p *= (g * valid[:, None]) / n_valid
        return (p.reshape(logits.shape),)

    return _result(data, (logits,), backward)


def parameter(data, requires_grad: bool = True) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=requires_grad)


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
