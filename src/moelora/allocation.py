"""Layer-wise expert allocation: counts, roles and ranks for every layer.

Two count profiles are provided. The power-law profile grows expert count
smoothly with depth,

    N_l = n_min + floor((n_max - n_min) * (l / L)^gamma),   l = 1..L,

so the top layer lands exactly on n_max. The step profile assigns
piecewise-constant counts from explicit breakpoints; it covers deployments
the power law cannot express (e.g. flat shallow bands jumping to a dense
top band). Within each layer, base-role slots come first at ``base_rank``,
then specialist slots whose ranks cycle through ``specialist_ranks`` from the
start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .errors import ConfigError
from .lora import ExpertRole


@dataclass(frozen=True)
class PowerLaw:
    """Counts follow n_min + floor((n_max - n_min) * (l/L)^gamma)."""


@dataclass(frozen=True)
class StepProfile:
    """Counts are constant within bands; ``steps`` is ((last_layer, count), ...)."""

    steps: tuple[tuple[int, int], ...]


Profile = Union[PowerLaw, StepProfile]


@dataclass
class AllocationConfig:
    num_layers: int
    n_min: int = 2
    n_max: int = 8
    gamma: float = 2.0
    base_experts_per_layer: int = 1
    base_rank: int = 16
    specialist_ranks: tuple[int, ...] = (8, 16, 32)
    profile: Profile = field(default_factory=PowerLaw)

    def __post_init__(self):
        self.specialist_ranks = tuple(self.specialist_ranks)
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.n_min < 1:
            raise ConfigError(f"n_min must be >= 1, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ConfigError(f"n_max {self.n_max} must be >= n_min {self.n_min}")
        if self.gamma < 1.0:
            raise ConfigError(f"gamma must be >= 1, got {self.gamma}")
        if self.base_rank < 1:
            raise ConfigError(f"base_rank must be >= 1, got {self.base_rank}")
        if not self.specialist_ranks or min(self.specialist_ranks) < 1:
            raise ConfigError(
                f"specialist_ranks must be a non-empty cycle of ranks >= 1, got {self.specialist_ranks}"
            )
        if not 0 <= self.base_experts_per_layer < self.n_min:
            raise ConfigError(
                f"base_experts_per_layer {self.base_experts_per_layer} must be < n_min {self.n_min}"
            )
        self._validate_profile()

    def _validate_profile(self):
        prof = self.profile
        if isinstance(prof, PowerLaw):
            return
        if not isinstance(prof, StepProfile):
            raise ConfigError(f"unknown profile {prof!r}")
        steps = tuple((int(a), int(b)) for a, b in prof.steps)
        if not steps:
            raise ConfigError("step profile needs at least one (last_layer, count) band")
        last = 0
        for bound, count in steps:
            if bound <= last:
                raise ConfigError(f"step bounds must be strictly increasing, got {steps}")
            if not self.n_min <= count <= self.n_max:
                raise ConfigError(
                    f"step count {count} outside [n_min={self.n_min}, n_max={self.n_max}]"
                )
            last = bound
        if last != self.num_layers:
            raise ConfigError(
                f"step profile must cover layers 1..{self.num_layers}, last bound is {last}"
            )


def experts_per_layer(cfg: AllocationConfig, layer: int) -> int:
    """Expert count N_l for 1-based layer index ``layer``."""
    if not 1 <= layer <= cfg.num_layers:
        raise IndexError(f"layer {layer} out of range [1, {cfg.num_layers}]")
    if isinstance(cfg.profile, StepProfile):
        for bound, count in cfg.profile.steps:
            if layer <= bound:
                return count
        raise IndexError(f"layer {layer} not covered by step profile")  # unreachable
    frac = (layer / cfg.num_layers) ** cfg.gamma
    return cfg.n_min + math.floor((cfg.n_max - cfg.n_min) * frac)


@dataclass(frozen=True)
class ExpertSlot:
    role: ExpertRole
    rank: int


@dataclass
class AllocationPlan:
    """Resolved (role, rank) slots per layer; index 0 holds layer 1."""

    per_layer: list[list[ExpertSlot]]

    @property
    def num_layers(self) -> int:
        return len(self.per_layer)

    def total_experts(self) -> int:
        return sum(len(slots) for slots in self.per_layer)

def _layer_slots(cfg: AllocationConfig, count: int) -> list[ExpertSlot]:
    n_base = cfg.base_experts_per_layer  # < n_min <= count
    cycle = cfg.specialist_ranks
    return [ExpertSlot(ExpertRole.BASE, cfg.base_rank) for _ in range(n_base)] + [
        ExpertSlot(ExpertRole.SPECIALIST, cycle[i % len(cycle)]) for i in range(count - n_base)
    ]


def build_plan(cfg: AllocationConfig) -> AllocationPlan:
    """Deterministically resolve the whole allocation from its config."""
    return AllocationPlan(
        per_layer=[
            _layer_slots(cfg, experts_per_layer(cfg, layer))
            for layer in range(1, cfg.num_layers + 1)
        ]
    )


def plan_summary(plan: AllocationPlan) -> list[dict]:
    """One row per layer: count plus the rank/role sequences."""
    rows = []
    for i, slots in enumerate(plan.per_layer, start=1):
        rows.append(
            {
                "layer": i,
                "count": len(slots),
                "ranks": " ".join(str(s.rank) for s in slots),
                "roles": " ".join(s.role.value for s in slots),
            }
        )
    return rows


def plan_to_csv(plan: AllocationPlan) -> str:
    lines = ["layer,slot,role,rank"]
    for layer_idx, slots in enumerate(plan.per_layer, start=1):
        for slot_idx, slot in enumerate(slots):
            lines.append(f"{layer_idx},{slot_idx},{slot.role.value},{slot.rank}")
    return "\n".join(lines) + "\n"


def plan_from_csv(text: str) -> AllocationPlan:
    lines = [ln for ln in text.strip().splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "layer,slot,role,rank":
        raise ConfigError("plan CSV must start with header 'layer,slot,role,rank'")
    layers: dict[int, list[tuple[int, ExpertSlot]]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ConfigError(f"bad plan CSV row: {ln!r}")
        try:
            layer, slot, role, rank = int(parts[0]), int(parts[1]), ExpertRole(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad plan CSV row {ln!r}: {exc}") from exc
        if rank < 1:
            raise ConfigError(f"plan CSV rank must be >= 1, got {rank} in row {ln!r}")
        layers.setdefault(layer, []).append((slot, ExpertSlot(role, rank)))
    if sorted(layers) != list(range(1, len(layers) + 1)):
        raise ConfigError(f"plan CSV layers must be contiguous from 1, got {sorted(layers)}")
    per_layer = []
    for layer in range(1, len(layers) + 1):
        entries = sorted(layers[layer])
        if [s for s, _ in entries] != list(range(len(entries))):
            raise ConfigError(f"plan CSV slots for layer {layer} must be contiguous from 0")
        per_layer.append([slot for _, slot in entries])
    return AllocationPlan(per_layer=per_layer)
