"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Float64 end to end, row-major storage, strict shapes (the only broadcast is
tensor-times-scalar). Values live in numpy arrays; every differentiable
operation records a backward closure, and ``backward()`` on a scalar result
fills ``grad`` on each leaf with ``requires_grad`` set. Leaf gradients
accumulate across repeated backward calls until ``zero_grad``.

A tape belongs to the thread that built it; parallelism, if any, must be
across independent forward/backward evaluations.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "linear",
    "softmax",
    "rms_norm",
    "causal_attention",
    "cross_entropy",
    "softplus",
    "take_rows",
    "concat",
    "finite_diff_grad",
]

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation fast path)."""
    prev = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """Dense float64 array with optional gradient tracking.

    Tensors are immutable after construction except for explicit in-place
    parameter updates (optimizer steps) applied to ``data`` between tapes.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], list] | None = None

    # -- bookkeeping ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- reverse-mode pass ------------------------------------------------

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) into every requires_grad leaf.

        ``self`` must hold exactly one element. Repeated calls accumulate
        into leaf ``grad`` buffers; intermediate nodes never retain grads.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return
        topo = self._toposort()
        flows: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flows.pop(id(node), None)
            if g is None:
                continue
            if node._grad_fn is None:
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                have = flows.get(pid)
                flows[pid] = pg if have is None else have + pg

    def _toposort(self) -> list["Tensor"]:
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        return topo

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return _result(self.data + float(other), (self,), lambda g: [g])
        _need_tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"add shapes differ: {self.shape} vs {other.shape}")
        return _result(self.data + other.data, (self, other), lambda g: [g, g])

    __radd__ = __add__

    def __neg__(self):
        return _result(-self.data, (self,), lambda g: [-g])

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return _result(self.data - float(other), (self,), lambda g: [g])
        _need_tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"sub shapes differ: {self.shape} vs {other.shape}")
        return _result(self.data - other.data, (self, other), lambda g: [g, -g])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return _result(self.data * c, (self,), lambda g: [g * c])
        _need_tensor(other)
        a, b = self, other
        if a.shape == b.shape:
            return _result(a.data * b.data, (a, b), lambda g: [g * b.data, g * a.data])
        if b.data.size == 1:
            return _result(
                a.data * b.data,
                (a, b),
                lambda g: [g * b.data, np.asarray(np.sum(g * a.data)).reshape(b.shape)],
            )
        if a.data.size == 1:
            return _result(
                a.data * b.data,
                (a, b),
                lambda g: [np.asarray(np.sum(g * b.data)).reshape(a.shape), g * a.data],
            )
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ShapeError(f"transpose requires a matrix, got shape {self.shape}")
        return _result(
            np.ascontiguousarray(self.data.T),
            (self,),
            lambda g: [np.ascontiguousarray(g.T)],
        )

    def sum(self, axis: int | None = None) -> "Tensor":
        if axis is None:
            return _result(
                np.asarray(np.sum(self.data)),
                (self,),
                lambda g: [np.broadcast_to(g, self.shape).copy()],
            )
        if self.ndim != 2 or axis not in (0, 1):
            raise ShapeError(f"axis sum supports matrices with axis 0/1, got shape {self.shape}")
        if axis == 0:
            return _result(
                np.sum(self.data, axis=0),
                (self,),
                lambda g: [np.broadcast_to(g, self.shape).copy()],
            )
        return _result(
            np.sum(self.data, axis=1),
            (self,),
            lambda g: [np.broadcast_to(g[:, None], self.shape).copy()],
        )

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _result(np.where(mask, self.data, 0.0), (self,), lambda g: [g * mask])

    def pow_const(self, p: float) -> "Tensor":
        x = self.data
        return _result(x ** p, (self,), lambda g: [g * (p * x ** (p - 1.0))])

    def reciprocal(self) -> "Tensor":
        return self.pow_const(-1.0)


def _need_tensor(x) -> None:
    if not isinstance(x, Tensor):
        raise TypeError(f"expected Tensor, got {type(x).__name__}")


def _as_indices(idx, what: str) -> np.ndarray:
    """``idx`` as an intp array; float or bool ids raise rather than truncate."""
    ii = np.asarray(idx)
    if ii.size and not np.issubdtype(ii.dtype, np.integer):
        raise DomainError(f"{what} must be integers, got dtype {ii.dtype}")
    return ii.astype(np.intp, copy=False)


def _result(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product covering (m,n)x(n,p), (n,)x(n,p), (m,n)x(n,) and dot."""
    _need_tensor(a)
    _need_tensor(b)
    ad, bd = a.data, b.data
    ok = (
        ad.ndim in (1, 2)
        and bd.ndim in (1, 2)
        and ad.shape[-1] == (bd.shape[0] if bd.ndim >= 1 else None)
    )
    if not ok:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} vs {b.shape}")
    out = ad @ bd

    def grad_fn(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return [g @ bd.T, ad.T @ g]
        if ad.ndim == 1 and bd.ndim == 2:
            return [bd @ g, np.outer(ad, g)]
        if ad.ndim == 2 and bd.ndim == 1:
            return [np.outer(g, bd), ad.T @ g]
        return [g * bd, g * ad]  # dot product, g is 0-d

    return _result(np.asarray(out), (a, b), grad_fn)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x w^T for a weight ``w`` stored [out x in] and ``x`` of shape [in] or [rows x in].

    Reads ``w.data.T`` as a view, so it copies no weight and records no
    transpose. The backward computes the product for a parent only when
    that parent requires grad, so a frozen weight costs no gradient work.
    """
    _need_tensor(x)
    _need_tensor(w)
    if w.ndim != 2 or x.ndim not in (1, 2) or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear needs x [... x in] and w [out x in], got {x.shape} and {w.shape}")
    xd, wd = x.data, w.data

    def grad_fn(g):
        gx = g @ wd if x.requires_grad else None
        if not w.requires_grad:
            return [gx, None]
        return [gx, np.outer(g, xd) if xd.ndim == 1 else g.T @ xd]

    return _result(xd @ wd.T, (x, w), grad_fn)


def softmax(x: Tensor, where: np.ndarray | bool = True) -> Tensor:
    """Softmax over the last axis, max-subtracted for stability.

    Only entries where the boolean mask ``where`` is True take part; the
    others get weight exactly 0 and gradient 0. A row whose kept entries
    are all -inf, or that keeps none, raises DomainError. Output rows are
    nonnegative and sum to 1 within 1e-12. Callers that need a temperature,
    learnable or not, scale the logits before calling.
    """
    _need_tensor(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"softmax supports vectors and matrices, got shape {x.shape}")
    top = np.max(x.data, axis=-1, where=where, initial=-np.inf, keepdims=True)
    if np.isneginf(top).any():
        raise DomainError("softmax: a row keeps no entry above -inf")
    e = np.exp(x.data - top, where=where, out=np.zeros_like(x.data))
    y = e / np.sum(e, axis=-1, keepdims=True)

    def grad_fn(g):
        s = np.sum(g * y, axis=-1, keepdims=True)
        return [y * (g - s)]

    return _result(y, (x,), grad_fn)


def rms_norm(x: Tensor, eps: float) -> Tensor:
    """RMSNorm without gain (arXiv 1910.07467): row i of x times (mean(x_i^2) + eps)^-1/2.

    ``x`` is [rows x d] with d >= 1; ``eps`` must be finite and > 0, or
    DomainError is raised. One tape node.
    """
    _need_tensor(x)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"rms_norm needs a [rows x d] matrix with d >= 1, got shape {x.shape}")
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"rms_norm eps must be finite and > 0, got {eps}")
    xd, d = x.data, x.shape[1]
    a = np.sum(xd * xd, axis=1) * (1.0 / d) + float(eps)
    r = a**-0.5

    def grad_fn(g):  # through r directly, and through a_i, whose x-derivative is 2 x_i / d
        s = np.sum(g * xd, axis=1) * (-0.5 * a**-1.5) * (1.0 / d)
        return [g * r[:, None] + 2.0 * (xd * s[:, None])]

    return _result(xd * r[:, None], (x,), grad_fn)


def causal_attention(qkv: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention over a fused [T x 3d] projection.

    Columns [0, d), [d, 2d) and [2d, 3d) of ``qkv`` hold the queries, keys
    and values, each split into ``n_heads`` blocks of d / n_heads columns.
    Head h writes softmax(q k^T / sqrt(d / n_heads)) v, row i attending to
    rows j <= i only, to column block h of the [T x d] result. One tape
    node: the loop over heads runs in numpy, and exp runs only on the causal
    triangle, so masked weights are exact zeros.
    """
    _need_tensor(qkv)
    t, width = qkv.shape if qkv.ndim == 2 else (0, 0)
    if t < 1 or n_heads < 1 or width < 3 * n_heads or width % (3 * n_heads):
        raise ShapeError(f"causal_attention: bad [T x 3d] shape {qkv.shape} for {n_heads} heads")
    d_head = width // (3 * n_heads)
    scale = 1.0 / math.sqrt(d_head)
    causal = np.tri(t, dtype=bool)
    q, k, v = qkv.data.reshape(t, 3, n_heads, d_head).transpose(1, 2, 0, 3)  # each [H x T x d_head]
    probs = np.zeros((n_heads, t, t))
    for h in range(n_heads):
        s = (q[h] @ k[h].T) * scale
        z = s - np.max(s, axis=1, where=causal, initial=-np.inf, keepdims=True)
        e = np.exp(z, where=causal, out=probs[h])
        e /= np.sum(e, axis=1, keepdims=True)
    out = np.stack([probs[h] @ v[h] for h in range(n_heads)], axis=1)  # [T x H x d_head]

    def grad_fn(g):
        g = g.reshape(t, n_heads, d_head).transpose(1, 0, 2)
        gqkv = np.empty((3, n_heads, t, d_head))
        for h, y in enumerate(probs):
            gy = g[h] @ v[h].T
            gs = y * (gy - np.sum(gy * y, axis=1, keepdims=True)) * scale
            gqkv[0, h] = gs @ k[h]
            gqkv[1, h] = gs.T @ q[h]
            gqkv[2, h] = y.T @ g[h]
        return [gqkv.transpose(2, 0, 1, 3).reshape(t, width)]

    return _result(out.reshape(t, width // 3), (qkv,), grad_fn)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of integer targets under row logits.

    ``logits`` is [batch x classes] with batch >= 1, else DomainError; each
    target must lie in [0, classes).
    """
    _need_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [batch x classes] logits, got {logits.shape}")
    if logits.shape[0] == 0:
        raise DomainError("cross_entropy of an empty batch has no mean")
    t = _as_indices(targets, "cross_entropy targets")
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets length {t.shape} does not match batch size {logits.shape[0]}"
        )
    n_classes = logits.shape[1]
    if t.size and (t.min() < 0 or t.max() >= n_classes):
        raise IndexError(f"target out of range [0, {n_classes}): {t[(t < 0) | (t >= n_classes)][0]}")
    batch = logits.shape[0]
    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - lse
    nll = -float(np.mean(logp[np.arange(batch), t]))

    def grad_fn(g):
        p = np.exp(logp).copy()
        p[np.arange(batch), t] -= 1.0
        return [p * (float(g) / batch)]

    return _result(np.asarray(nll), (logits,), grad_fn)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)), overflow-safe."""
    _need_tensor(x)
    out = np.logaddexp(0.0, x.data)
    sig = _sigmoid(x.data)
    return _result(out, (x,), lambda g: [g * sig])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# -- structural ops --------------------------------------------------------


def take_rows(table: Tensor, idx: Sequence[int]) -> Tensor:
    """Gather rows ``idx`` of ``table``; gradients scatter-add back."""
    _need_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"take_rows needs a matrix, got shape {table.shape}")
    ii = _as_indices(idx, "take_rows indices")
    if ii.ndim != 1:
        raise ShapeError("take_rows indices must be one-dimensional")
    n = table.shape[0]
    if ii.size and (ii.min() < 0 or ii.max() >= n):
        raise IndexError(f"row index out of range [0, {n})")

    def grad_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ii, g)
        return [gt]

    return _result(table.data[ii], (table,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack matrices along rows (axis 0) or columns (axis 1)."""
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of an empty sequence")
    for t in ts:
        _need_tensor(t)
        if t.ndim != 2:
            raise ShapeError(f"concat needs matrices, got shape {t.shape}")
    if axis not in (0, 1):
        raise ShapeError(f"concat axis must be 0 or 1, got {axis}")
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        if axis == 0:
            return [g[offsets[i]:offsets[i + 1], :] for i in range(len(ts))]
        return [g[:, offsets[i]:offsets[i + 1]] for i in range(len(ts))]

    return _result(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), grad_fn)


# -- gradient oracle -------------------------------------------------------


def finite_diff_grad(f: Callable[[Tensor], "Tensor | float"], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar ``f`` with respect to ``x``.

    Perturbs ``x.data`` in place one element at a time and restores it, so
    ``f`` may either use its argument or close over a model that owns ``x``.
    ``f`` must be pure and deterministic.
    """
    if not h > 0:
        raise DomainError(f"finite difference step must be > 0, got {h}")
    base = x.data.copy()
    g = np.zeros_like(base)
    with no_grad():
        for idx in np.ndindex(base.shape):
            x.data[idx] = base[idx] + h
            fp = _scalar(f(x))
            x.data[idx] = base[idx] - h
            fm = _scalar(f(x))
            x.data[idx] = base[idx]
            g[idx] = (fp - fm) / (2.0 * h)
    return Tensor(g)


def _scalar(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)

