"""Central-difference gradient oracle that the gradient tests check backward against."""

from typing import Callable

import numpy as np

from moelora.errors import DomainError
from moelora.tensor import Tensor, no_grad


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
