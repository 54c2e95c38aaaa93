"""Mixture-of-LoRA-experts adapters on a frozen toy transformer.

Layers compose a frozen base weight with a set of low-rank experts and a
router (learnable-temperature soft merge or top-k); expert counts grow with
depth and ranks come from a small discrete set. The package holds the float64
autograd engine, the allocation plans, routing, the adapted model with its
parameter count and run record, and single-file checkpoints; it has no training
loop, data pipeline or gradient checker (the tests carry their own).
"""

from .errors import ConfigError, DivergenceError, DomainError, ShapeError
from .tensor import Tensor, no_grad

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "no_grad",
    "ConfigError",
    "DivergenceError",
    "DomainError",
    "ShapeError",
    "__version__",
]
