"""Per-layer gating: the router, top-k routing, load balance and routing stats.

A router scores each token against each expert with x W_g^T. Its
temperature is stored as an unconstrained scalar theta and realized as
tau = softplus(theta) + TAU_MIN, so it stays strictly positive for any
parameter value while remaining smoothly learnable. Soft merging blends
every expert by softmax(logits / tau), one ``tempered_softmax`` op; top-k
keeps only the k largest logits (ties broken toward the lowest expert
index) and renormalizes, leaving the other weights exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .tensor import Tensor, softmax

TAU_MIN = 0.05
THETA_INIT = math.log(math.expm1(1.0 - TAU_MIN))  # tau = softplus(THETA_INIT) + TAU_MIN = 1.0
ROUTER_INIT_STD = 0.02


class Router:
    """Gating projection plus learnable temperature for one layer.

    ``w_g`` maps a hidden state of width k_in to one logit per expert;
    ``tau_param`` is the unconstrained temperature parameter theta, which
    starts at tau = 1.
    """

    def __init__(self, num_experts: int, k_in: int, seed: int):
        rng = np.random.default_rng(seed)
        self.w_g = Tensor(rng.normal(0.0, ROUTER_INIT_STD, size=(num_experts, k_in)),
                          requires_grad=True)
        self.tau_param = Tensor([THETA_INIT], requires_grad=True)

    def tau(self) -> float:
        """Current effective temperature (softplus(theta) + TAU_MIN)."""
        return float(np.logaddexp(0.0, self.tau_param.data[0])) + TAU_MIN


def topk_weights(s: Tensor, k: int) -> Tensor:
    """Softmax over the k largest logits of each row of ``s`` [rows x N]; the rest are exactly 0.

    Ties select the lower expert index. With k == N this reduces bit-exactly
    to a plain unit-temperature softmax.
    """
    if s.ndim != 2:
        raise ShapeError(f"topk_weights needs a [rows x N] matrix, got {s.shape}")
    n = s.shape[1]
    if not 1 <= k <= n:
        raise ConfigError(f"top-k must satisfy 1 <= k <= {n}, got {k}")
    order = np.argsort(-s.data, axis=-1, kind="stable")  # stable: ties keep low index first
    mask = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return softmax(s, where=mask)


def load_balance_loss(gates: Tensor) -> Tensor:
    """N * sum_i (mean_load_i - 1/N)^2 over a [tokens x experts] gate matrix.

    Zero iff the mean load is exactly uniform; differentiable through a
    live gate Tensor.
    """
    if not isinstance(gates, Tensor) or gates.ndim != 2 or gates.shape[0] == 0:
        raise DomainError(f"gate batch must be a non-empty [tokens x experts] Tensor, got {gates!r}")
    tokens, n = gates.shape
    mean_load = gates.sum(axis=0) * (1.0 / tokens)
    dev = mean_load - (1.0 / n)
    return (dev * dev).sum() * float(n)


@dataclass
class LayerRouteStats:
    mean_load: np.ndarray
    mean_entropy: float
    tau: float


def gate_entropy(probs: np.ndarray) -> np.ndarray | float:
    """Shannon entropy in nats over the last axis (one value per row), with 0 * log 0 = 0."""
    p = np.asarray(probs, dtype=np.float64)
    logp = np.log(p, out=np.zeros_like(p), where=p > 0)
    return -np.sum(p * logp, axis=-1)


def routing_stats(
    gates: list[tuple[int, Tensor]], taus: dict[int, float]
) -> dict[int, LayerRouteStats]:
    """Per-layer mean expert load, mean token entropy, and effective tau.

    ``gates`` is the (layer_index, [tokens x experts] gate matrix) list that
    ``ToyBackbone.forward`` returns; the rows of a layer listed more than
    once (several forwards) are stacked.
    """
    by_layer: dict[int, list[np.ndarray]] = {}
    for layer, g in gates:
        by_layer.setdefault(layer, []).append(g.data)
    out: dict[int, LayerRouteStats] = {}
    for layer in sorted(by_layer):
        probs = np.concatenate(by_layer[layer])
        out[layer] = LayerRouteStats(
            mean_load=probs.mean(axis=0),
            mean_entropy=float(np.mean(gate_entropy(probs))),
            tau=float(taus.get(layer, math.nan)),
        )
    return out
