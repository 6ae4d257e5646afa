"""Minimal reverse-mode automatic differentiation over numpy arrays.

Training needs exact gradients of the combined loss with respect to the
glimpse embedding matrix and the importance-predictor parameters while
the decoder stays frozen. Rather than hand-deriving that chain, this
module provides a small tape: each op records a closure that scatters the
output gradient back to its parents, and ``Tensor.backward`` walks the
graph in reverse topological order.

Forward math routes through :mod:`vtprune.numerics` (same fixed-order
matmul, same softmax), so a value computed here is bit-identical to the
plain inference path given the same inputs. Ops only build backward
closures when some input requires a gradient, which keeps pure-constant
subgraphs (the frozen decoder weights) cheap.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .errors import ShapeError


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False, parents=(), backprop=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backprop = backprop

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar output; fills ``grad`` on leaves."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backprop is not None:
                node._backprop(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return take(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backprop) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, parents=tuple(parents), backprop=backprop)
    return Tensor(data)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backprop(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backprop)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backprop(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backprop)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backprop(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backprop)


def matmul(a, b) -> Tensor:
    """``(m, k) @ (k, n)`` or a stack ``(B, m, k) @ (B, k, n)``; the
    backward runs the same exact kernel on the transposed operands."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = numerics.matmul(a.data, b.data)

    def backprop(g):
        if a.requires_grad:
            a._accum(numerics.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b._accum(numerics.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(out_data, (a, b), backprop)


def transpose(a, axes=None) -> Tensor:
    """Swap the last two axes, or permute by ``axes`` when given."""
    a = as_tensor(a)
    if axes is None:
        out_data, inverse = np.swapaxes(a.data, -1, -2), None
    else:
        out_data, inverse = a.data.transpose(axes), np.argsort(axes)

    def backprop(g):
        if a.requires_grad:
            a._accum(np.swapaxes(g, -1, -2) if inverse is None else g.transpose(inverse))

    return _make(out_data, (a,), backprop)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backprop(g):
        if a.requires_grad:
            a._accum(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backprop)


def take(a, key) -> Tensor:
    """Indexing/slicing; gradients scatter-add back into the source."""
    a = as_tensor(a)
    out_data = a.data[key]

    def backprop(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, key, g)
            a._accum(buf)

    return _make(out_data, (a,), backprop)


def cat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backprop(g):
        offset = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                p._accum(g[tuple(index)])
            offset += size

    return _make(out_data, tuple(parts), backprop)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backprop(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accum(np.broadcast_to(gg, a.data.shape).copy())

    return _make(out_data, (a,), backprop)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backprop(g):
        if a.requires_grad:
            a._accum(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backprop)


def silu(a) -> Tensor:
    """x * sigmoid(x), the decoder's gating nonlinearity."""
    a = as_tensor(a)
    x = a.data
    s = 1.0 / (1.0 + np.exp(-x))
    out_data = x * s

    def backprop(g):
        if a.requires_grad:
            a._accum(g * (s + x * s * (1.0 - s)))

    return _make(out_data, (a,), backprop)


def softmax_rows(a) -> Tensor:
    a = as_tensor(a)
    p = numerics.softmax_rows(a.data)

    def backprop(g):
        if a.requires_grad:
            dot = np.sum(g * p, axis=-1, keepdims=True)
            a._accum(p * (g - dot))

    return _make(p, (a,), backprop)


def attention_probs(q, kt, scale: float, visible: np.ndarray | None = None) -> Tensor:
    """:func:`vtprune.numerics.attention_probs` as one op with one buffer
    of the scores' size; ``visible`` is a constant. The backward is that of
    ``softmax_rows(matmul(q, kt) * scale + mask)``, in the same arithmetic."""
    q, kt = as_tensor(q), as_tensor(kt)
    p = numerics.attention_probs(q.data, kt.data, scale, visible)

    def backprop(g):
        ds = p * (g - np.sum(g * p, axis=-1, keepdims=True)) * scale
        if q.requires_grad:
            q._accum(numerics.matmul(ds, np.swapaxes(kt.data, -1, -2)))
        if kt.requires_grad:
            kt._accum(numerics.matmul(np.swapaxes(q.data, -1, -2), ds))

    return _make(p, (q, kt), backprop)


def rms_norm_rows(a, gain, eps: float = 1e-6) -> Tensor:
    a, gain = as_tensor(a), as_tensor(gain)
    x = a.data
    n = x.shape[1]
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + eps)
    xhat = x * inv
    out_data = xhat * gain.data

    def backprop(g):
        if a.requires_grad:
            gg = g * gain.data
            inner = np.sum(gg * x, axis=1, keepdims=True)
            a._accum(gg * inv - x * (inv**3) * inner / n)
        if gain.requires_grad:
            gain._accum(np.sum(g * xhat, axis=0))

    return _make(out_data, (a, gain), backprop)


def rotate_pairs(a, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotary encoding with constant cos/sin tables.

    The rotation is orthogonal, so the backward pass is the same rotation
    with the angle sign flipped.
    """
    a = as_tensor(a)
    out_data = numerics.rotate_pairs(a.data, cos, sin)

    def backprop(g):
        if a.requires_grad:
            a._accum(numerics.rotate_pairs(g, cos, -sin))

    return _make(out_data, (a,), backprop)


def bce_with_logits(logits, target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy from pre-sigmoid logits (stable form)."""
    a = as_tensor(logits)
    x = a.data
    n = x.size
    out_data = np.array(np.mean(np.logaddexp(0.0, x) - target * x))

    def backprop(g):
        if a.requires_grad:
            s = 1.0 / (1.0 + np.exp(-x))
            a._accum(g * (s - target) / n)

    return _make(out_data, (a,), backprop)


def cross_entropy_rows(logits, target_ids) -> Tensor:
    """Mean cross-entropy of (T, vocab) logits against integer targets."""
    a = as_tensor(logits)
    x = a.data
    t = np.asarray(target_ids, dtype=np.int64)
    if x.ndim != 2 or t.shape != (x.shape[0],):
        raise ShapeError(f"cross_entropy_rows shapes disagree: {x.shape} vs {t.shape}")
    rows = x.shape[0]
    mx = np.max(x, axis=1, keepdims=True)
    lse = mx[:, 0] + np.log(np.sum(np.exp(x - mx), axis=1))
    out_data = np.array(np.mean(lse - x[np.arange(rows), t]))

    def backprop(g):
        if a.requires_grad:
            p = numerics.softmax_rows(x)
            p[np.arange(rows), t] -= 1.0
            a._accum(g * p / rows)

    return _make(out_data, (a,), backprop)
