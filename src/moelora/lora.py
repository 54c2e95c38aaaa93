"""Low-rank adapter experts: the expert record, its row-batch delta, audits.

An expert is an additive update (alpha/rank) * B @ A on some frozen weight,
with alpha = 2*rank. Experts carry a role: base experts anchor general
behavior (frozen by default), specialist experts are free to adapt. An
adapted layer builds its experts (``MoeLoraLayer.attach``) as views into
its stacked storage; ``model`` owns their checkpoint records.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ShapeError
from .tensor import Tensor, linear


class ExpertRole(Enum):
    BASE = "base"
    SPECIALIST = "specialist"


@dataclass
class LoraExpert:
    """One low-rank adapter attached to a frozen [d x k] weight.

    ``a`` is the [rank x k] down-projection, ``b`` the [d x rank]
    up-projection; the materialized update is (alpha/rank) * b @ a with
    alpha = 2*rank. A non-trainable expert never changes after construction.
    """

    a: Tensor
    b: Tensor
    role: ExpertRole

    @property
    def trainable(self) -> bool:
        """The ``requires_grad`` flag that ``a`` and ``b`` share."""
        return self.a.requires_grad

    @property
    def rank(self) -> int:
        return self.a.shape[0]

    @property
    def alpha(self) -> float:
        return 2.0 * self.rank

    def scaling(self) -> float:
        return self.alpha / self.rank

    def param_count(self) -> int:
        """Raw adapter size rank*(d+k), independent of the trainable flag."""
        return self.a.size + self.b.size


def lora_forward(expert: LoraExpert, x: Tensor) -> Tensor:
    """Delta contribution (alpha/rank) * x A^T B^T for a row batch ``x`` [n x k].

    Gradients reach A and B only when the expert is trainable.
    """
    k = expert.a.shape[1]
    if x.ndim != 2 or x.shape[1] != k:
        raise ShapeError(f"expert input must be [n x {k}], got {x.shape}")
    return linear(linear(x, expert.a), expert.b) * expert.scaling()


def snapshot_experts(experts: Sequence[LoraExpert]) -> list[tuple[bytes, bytes]]:
    """Byte-level copies of each expert's (A, B), for frozen-weight audits."""
    return [(e.a.data.tobytes(), e.b.data.tobytes()) for e in experts]


def experts_unchanged(experts: Sequence[LoraExpert], snapshot: list[tuple[bytes, bytes]]) -> bool:
    if len(experts) != len(snapshot):
        return False
    return all(
        e.a.data.tobytes() == sa and e.b.data.tobytes() == sb
        for e, (sa, sb) in zip(experts, snapshot)
    )
