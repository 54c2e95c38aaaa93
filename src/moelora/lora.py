"""Low-rank adapter experts: the expert record, its row-batch delta, audits.

An expert is an additive update SCALE * B @ A on some frozen weight, SCALE
being alpha/rank with alpha = 2*rank. Each carries the ``ExpertRole`` of its
plan slot (``allocation``); the ``requires_grad`` flags of A and B are the
only record of which values train. The ``MoeLoraLayer`` constructor builds a
layer's experts as views into its stacked storage; ``model`` owns their
checkpoint records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .allocation import ExpertRole
from .tensor import Tensor, linear

SCALE = 2.0  # alpha / rank of every expert: the one place that alpha = 2*rank is stated


@dataclass
class LoraExpert:
    """One low-rank adapter attached to a frozen [d x k] weight.

    ``a`` is the [rank x k] down-projection, ``b`` the [d x rank]
    up-projection; the materialized update is SCALE * b @ a. A non-trainable
    expert never changes after construction.
    """

    a: Tensor
    b: Tensor
    role: ExpertRole

    @property
    def trainable(self) -> bool:
        """True when ``a`` or ``b`` requires grad."""
        return self.a.requires_grad or self.b.requires_grad

    @property
    def rank(self) -> int:
        return self.a.shape[0]


def lora_forward(expert: LoraExpert, x: Tensor) -> Tensor:
    """Delta contribution SCALE * x A^T B^T for a row batch ``x`` [n x k].

    Gradients reach each of A and B only when it requires grad; ``linear`` rejects an ``x``
    of another shape with ShapeError.
    """
    return linear(linear(x, expert.a), expert.b) * SCALE


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
