"""Per-layer gating: the router's initial values, top-k routing and the load-balance value.

Each ``MoeLoraLayer`` holds its router as two tensors: ``w_g``, which scores
each token against each expert with x W_g^T, drawn with std
``ROUTER_INIT_STD``, and the temperature, stored as an unconstrained scalar
theta that starts at ``THETA_INIT`` and is realized as
tau = softplus(theta) + TAU_MIN, so it stays strictly positive for any
parameter value while remaining smoothly learnable. Soft merging blends
every expert by softmax(logits / tau), one ``tempered_softmax`` op; top-k
keeps only the k largest logits (ties broken toward the lowest expert
index) and renormalizes, leaving the other weights exactly zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .tensor import TAU_MIN, Tensor, softmax
from .utils import check_int

THETA_INIT = math.log(math.expm1(1.0 - TAU_MIN))  # tau = softplus(THETA_INIT) + TAU_MIN = 1.0
ROUTER_INIT_STD = 0.02


def topk_weights(s: Tensor, k: int) -> Tensor:
    """Softmax over the k largest logits of each row of ``s`` [rows x N]; the rest are exactly 0.

    Ties select the lower expert index. With k == N this reduces bit-exactly
    to a plain unit-temperature softmax. A NaN logit raises DomainError, as
    under soft routing, instead of sorting last and going unselected.
    """
    if s.ndim != 2:
        raise ShapeError(f"topk_weights needs a [rows x N] matrix, got {s.shape}")
    check_int("top-k", k, 1, s.shape[1])
    if np.isnan(s.data).any():
        raise DomainError("topk_weights: a row holds a NaN logit")
    order = np.argsort(-s.data, axis=-1, kind="stable")  # stable: ties keep low index first
    mask = np.zeros(s.shape, dtype=bool)
    mask[np.arange(s.shape[0])[:, None], order[:, :k]] = True
    return softmax(s, where=mask)


def load_balance_loss(gates: Tensor) -> Tensor:
    """N * sum_i (mean_load_i - 1/N)^2 over a [tokens x experts] gate matrix.

    Zero iff the mean load is exactly uniform; differentiable through a
    live gate Tensor. No tokens, no experts or a NaN or infinite gate raise DomainError.
    """
    if not isinstance(gates, Tensor) or gates.ndim != 2 or 0 in gates.shape or not np.isfinite(gates.data).all():
        raise DomainError(f"gate batch must be a non-empty, finite [tokens x experts] Tensor, got {gates!r}")
    tokens, n = gates.shape
    mean_load = gates.sum(axis=0) * (1.0 / tokens)
    dev = mean_load - (1.0 / n)
    return (dev * dev).sum() * float(n)
