"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Float64 end to end, row-major storage except that an attached expert's ``b``
is a strided column view of its layer's B stack, strict shapes (the only
broadcast is a Tensor with a Python number). Every matrix op takes
``[rows x cols]``; only elementwise ops and ``sum`` accept other shapes, so
a single vector is a ``[1 x n]`` row. Every differentiable operation
records a backward closure, and ``backward()`` on a scalar result fills
``grad`` on each leaf with ``requires_grad`` set. Leaf gradients accumulate
across repeated backward calls until ``zero_grad``.

A tape belongs to the thread that built it; parallelism, if any, must be
across independent forward/backward evaluations.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ShapeError

__all__ = [
    "Tensor",
    "no_grad",
    "matmul",
    "linear",
    "moe_lora",
    "softmax",
    "tempered_softmax",
    "rms_norm",
    "causal_attention",
    "cross_entropy",
    "take_rows",
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

    Tensors are immutable except for in-place parameter updates (optimizer
    steps) to ``data`` between tapes; never rebind ``data``, which may view
    shared storage (an attached expert's ``a`` and ``b`` view its layer's stacks).
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

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return _result(self.data - float(other), (self,), lambda g: [g])
        _need_tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"sub shapes differ: {self.shape} vs {other.shape}")
        return _result(self.data - other.data, (self, other), lambda g: [g, -g])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return _result(self.data * c, (self,), lambda g: [g * c])
        _need_tensor(other)
        if self.shape != other.shape:
            raise ShapeError(f"mul shapes differ: {self.shape} vs {other.shape}")
        return _result(self.data * other.data, (self, other), lambda g: [g * other.data, g * self.data])

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        if self.ndim != 2:
            raise ShapeError(f"transpose requires a matrix, got shape {self.shape}")
        return _result(np.ascontiguousarray(self.data.T), (self,), lambda g: [np.ascontiguousarray(g.T)])

    def sum(self, axis: int | None = None) -> "Tensor":
        if axis is not None and (self.ndim != 2 or axis not in (0, 1)):
            raise ShapeError(f"axis sum supports matrices with axis 0/1, got shape {self.shape}")
        grow = (lambda g: g[:, None]) if axis == 1 else (lambda g: g)
        return _result(
            np.asarray(np.sum(self.data, axis=axis)),
            (self,),
            lambda g: [np.broadcast_to(grow(g), self.shape).copy()],
        )

    def relu(self) -> "Tensor":
        """max(x, 0) elementwise into a new array, -0.0 giving +0.0; NaN propagates."""
        out = np.maximum(self.data, 0.0)
        return _result(out, (self,), lambda g: [g * (out > 0)])


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
    """Matrix product (m,n)x(n,p); both operands must be matrices."""
    _need_tensor(a)
    _need_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} vs {b.shape}")
    return _result(ad @ bd, (a, b), lambda g: [g @ bd.T, ad.T @ g])


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x w^T for a weight ``w`` stored [out x in] and ``x`` of shape [rows x in].

    Reads ``w.data.T`` as a view, so it copies no weight and records no
    transpose. The backward computes the product for a parent only when
    that parent requires grad, so a frozen weight costs no gradient work.
    """
    _need_tensor(x)
    _need_tensor(w)
    if w.ndim != 2 or x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear needs x [rows x in] and w [out x in], got {x.shape} and {w.shape}")
    xd, wd = x.data, w.data

    def grad_fn(g):
        gx = g @ wd if x.requires_grad else None
        if not w.requires_grad:
            return [gx, None]
        return [gx, g.T @ xd]

    return _result(xd @ wd.T, (x, w), grad_fn)


def moe_lora(x: Tensor, w0: Tensor, gates: Tensor, a_stack: np.ndarray, b_stack: np.ndarray,
             spread: np.ndarray, a: list[Tensor], b: list[Tensor], rows: list[slice]) -> Tensor:
    """x w0^T + ((x A^T) * (gates S^T)) B^T as one tape node; a parent needing no grad gets None.

    A [sum r x in], B [out x sum r] and S [sum r x N] (expert scales in gate columns) are
    the layer's stacks; parents ``a[i]``, ``b[i]`` must view A[rows[i]], B[:, rows[i]] (else
    ConfigError), and any other rank rows must meet all-zero gate columns (dropped experts).
    """
    for t in (x, w0, gates):
        _need_tensor(t)
    n, k = x.shape if x.ndim == 2 else (-1, -1)
    d, r_sum = b_stack.shape if b_stack.ndim == 2 else (-1, -1)
    if not (w0.shape == (d, k) and a_stack.shape == (r_sum, k) and spread.ndim == 2
            and spread.shape[0] == r_sum and gates.shape == (n, spread.shape[1])
            and 1 <= len(a) == len(b) == len(rows)):
        raise ShapeError(f"moe_lora: x {x.shape}, w0 {w0.shape}, gates {gates.shape}, stacks "
                         f"{a_stack.shape} {b_stack.shape}, spread {spread.shape} and "
                         f"{len(a)}/{len(b)}/{len(rows)} experts do not fit")
    if not (all(type(t) is Tensor and t.data.base is a_stack for t in a)
            and all(type(t) is Tensor and t.data.base is b_stack for t in b)):
        raise ConfigError("moe_lora: an expert's a or b is not a view of the stack given; "
                          "update .data in place instead of rebinding it")
    xd, w0d, gd = x.data, w0.data, gates.data
    xa = xd @ a_stack.T
    gs = gd @ spread.T
    low = xa * gs

    def grad_fn(g):
        gl = g @ b_stack
        gls = gl * gs
        gx = g @ w0d + gls @ a_stack if x.requires_grad else None
        gw = g.T @ xd if w0.requires_grad else None
        gg = (gl * xa) @ spread if gates.requires_grad else None
        ga = gls.T @ xd if any(t.requires_grad for t in a) else None
        gb = g.T @ low if any(t.requires_grad for t in b) else None
        return [gx, gw, gg] + [ga[r] if t.requires_grad else None for t, r in zip(a, rows)] + [
            gb[:, r] if t.requires_grad else None for t, r in zip(b, rows)]

    out = xd @ w0d.T
    out += low @ b_stack.T
    return _result(out, (x, w0, gates, *a, *b), grad_fn)


def _softmax_rows(z: np.ndarray, where: np.ndarray | bool = True) -> np.ndarray:
    top = np.max(z, axis=-1, where=where, initial=-np.inf, keepdims=True)
    if not np.isfinite(top).all():
        raise DomainError("softmax: a row's largest kept logit is not finite")
    if where is True:
        e = np.exp(z - top)
    else:  # masked entries stay exactly 0
        e = np.exp(z - top, where=where, out=np.zeros_like(z))
    return e / np.sum(e, axis=-1, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    return y * (g - np.sum(g * y, axis=-1, keepdims=True))


def softmax(x: Tensor, where: np.ndarray | bool = True) -> Tensor:
    """Softmax of each row of a [rows x n] matrix, max-subtracted for stability.

    Only entries where the boolean mask ``where`` is True take part; the
    others get weight exactly 0 and gradient 0. A row that keeps no entry,
    or whose largest kept entry is -inf, +inf or NaN, raises DomainError.
    Output rows are nonnegative and sum to 1 within 1e-12.
    """
    _need_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"softmax needs a [rows x n] matrix, got shape {x.shape}")
    y = _softmax_rows(x.data, where)
    return _result(y, (x,), lambda g: [_softmax_grad(y, g)])


def tempered_softmax(x: Tensor, theta: Tensor, tau_min: float) -> Tensor:
    """softmax(x / tau) of each row of ``x`` [rows x n], with tau = softplus(theta) + tau_min.

    ``theta`` holds one element and is differentiable, so tau is a learnable
    temperature that stays above ``tau_min`` (finite, > 0, else DomainError)
    for any theta. One tape node with parents x and theta.
    """
    _need_tensor(x)
    _need_tensor(theta)
    if x.ndim != 2 or theta.size != 1:
        raise ShapeError(
            f"tempered_softmax needs x [rows x n] and one theta, got {x.shape}, {theta.shape}"
        )
    if not (math.isfinite(tau_min) and tau_min > 0):
        raise DomainError(f"tempered_softmax tau_min must be finite and > 0, got {tau_min}")
    xd, th = x.data, theta.data
    tau = np.logaddexp(0.0, th) + tau_min
    inv = tau ** -1.0
    with np.errstate(over="ignore"):  # an overflowing row is rejected in _softmax_rows
        y = _softmax_rows(xd * inv)

    def grad_fn(g):  # dtau/dtheta = sigmoid(theta), d(1/tau)/dtau = -1/tau^2
        gz = _softmax_grad(y, g)
        dinv = np.asarray(np.sum(gz * xd)).reshape(th.shape)
        sig = 1.0 / (1.0 + np.exp(-th)) if th.flat[0] >= 0 else np.exp(th) / (1.0 + np.exp(th))
        return [gz * inv, dinv * (-1.0 * tau ** -2.0) * sig]

    return _result(y, (x, theta), grad_fn)


def rms_norm(x: Tensor, eps: float) -> Tensor:
    """RMSNorm without gain (arXiv 1910.07467): row i of x times (mean(x_i^2) + eps)^-1/2.

    ``x`` is [rows x d] with d >= 1; ``eps`` must be finite and > 0, and
    every row's sum of squares finite, or DomainError is raised. One tape node.
    """
    _need_tensor(x)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeError(f"rms_norm needs a [rows x d] matrix with d >= 1, got shape {x.shape}")
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"rms_norm eps must be finite and > 0, got {eps}")
    xd, d = x.data, x.shape[1]
    with np.errstate(over="ignore"):  # an overflowing row is rejected just below
        a = np.sum(xd * xd, axis=1) * (1.0 / d) + float(eps)
    if not np.isfinite(a).all():
        raise DomainError("rms_norm: a row holds inf or NaN, or its sum of squares overflows")
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
    node: all heads share one [H x T x T] score tensor with no loop, and exp
    runs only on the causal triangle, so masked weights are exact zeros.
    """
    _need_tensor(qkv)
    t, width = qkv.shape if qkv.ndim == 2 else (0, 0)
    if t < 1 or n_heads < 1 or width < 3 * n_heads or width % (3 * n_heads):
        raise ShapeError(f"causal_attention: bad [T x 3d] shape {qkv.shape} for {n_heads} heads")
    d_head = width // (3 * n_heads)
    scale = 1.0 / math.sqrt(d_head)
    causal = np.tri(t, dtype=bool)
    q, k, v = qkv.data.reshape(t, 3, n_heads, d_head).transpose(1, 2, 0, 3)  # each [H x T x d_head]
    s = q @ k.transpose(0, 2, 1)
    s *= scale
    s -= np.max(s, axis=2, where=causal, initial=-np.inf, keepdims=True)
    # exp and the masked zeros overwrite the scores: a second live [H x T x T]
    # buffer makes glibc trim and re-fault its pages on every call at T = 127.
    probs = np.exp(s, where=causal, out=s)
    np.copyto(probs, 0.0, where=~causal)
    probs /= np.sum(probs, axis=2, keepdims=True)

    def grad_fn(g):
        g = g.reshape(t, n_heads, d_head).transpose(1, 0, 2)
        gs = g @ v.transpose(0, 2, 1)  # becomes probs * (gs - rowsum(gs * probs)) * scale in place
        gs -= np.sum(gs * probs, axis=2, keepdims=True)
        gs *= probs
        gs *= scale
        gqkv = np.empty((3, n_heads, t, d_head))
        np.matmul(gs, k, out=gqkv[0])
        np.matmul(gs.transpose(0, 2, 1), q, out=gqkv[1])
        np.matmul(probs.transpose(0, 2, 1), g, out=gqkv[2])
        return [gqkv.transpose(2, 0, 1, 3).reshape(t, width)]

    return _result((probs @ v).transpose(1, 0, 2).reshape(t, width // 3), (qkv,), grad_fn)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of integer targets under row logits.

    ``logits`` is [batch x classes] with batch >= 1 and a finite maximum in
    every row, else DomainError; each target must lie in [0, classes).
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
    top = np.max(logits.data, axis=1, keepdims=True)
    if not np.isfinite(top).all():
        raise DomainError("cross_entropy: a row's largest logit is not finite")
    z = logits.data - top
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - lse
    nll = -float(np.mean(logp[np.arange(batch), t]))

    def grad_fn(g):
        p = np.exp(logp)
        p[np.arange(batch), t] -= 1.0
        return [p * (float(g) / batch)]

    return _result(np.asarray(nll), (logits,), grad_fn)


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

