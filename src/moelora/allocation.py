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
from .utils import check_int, is_real


@dataclass(frozen=True)
class PowerLaw:
    """Counts follow n_min + floor((n_max - n_min) * (l/L)^gamma)."""


@dataclass(frozen=True)
class StepProfile:
    """Counts are constant within bands; ``steps`` is ((last_layer, count), ...)."""

    steps: tuple[tuple[int, int], ...]


Profile = Union[PowerLaw, StepProfile]


@dataclass(frozen=True)
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
        try:
            object.__setattr__(self, "specialist_ranks", tuple(self.specialist_ranks))
        except TypeError as exc:
            raise ConfigError(f"specialist_ranks must be a cycle of ranks, got {self.specialist_ranks!r}") from exc
        check_int("num_layers", self.num_layers, 1)
        check_int("n_min", self.n_min, 1)
        check_int("n_max", self.n_max, self.n_min)
        if not (is_real(self.gamma) and math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ConfigError(f"gamma must be a finite number >= 1, got {self.gamma!r}")
        check_int("base_rank", self.base_rank, 1)
        if not self.specialist_ranks:
            raise ConfigError("specialist_ranks must be a non-empty cycle of ranks")
        for rank in self.specialist_ranks:
            check_int("each of specialist_ranks", rank, 1)
        check_int("base_experts_per_layer", self.base_experts_per_layer, 0, self.n_min - 1)
        # stored as plain int and float, so numpy numbers hash (config_digest) like Python ones
        for name in ("num_layers", "n_min", "n_max", "base_experts_per_layer", "base_rank"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "specialist_ranks", tuple(map(int, self.specialist_ranks)))
        self._validate_profile()

    def _validate_profile(self):
        prof = self.profile
        if isinstance(prof, PowerLaw):
            return
        if not isinstance(prof, StepProfile):
            raise ConfigError(f"unknown profile {prof!r}")
        if self.gamma != AllocationConfig.gamma:  # the class attribute holds the default
            raise ConfigError(f"gamma shapes the power law only; a step profile would ignore {self.gamma!r}")
        if not isinstance(prof.steps, (tuple, list)) or not prof.steps:
            raise ConfigError(f"step profile needs (last_layer, count) bands, got {prof.steps!r}")
        last = 0
        for band in prof.steps:
            if not isinstance(band, (tuple, list)) or len(band) != 2:
                raise ConfigError(f"each step band must be a (last_layer, count) pair, got {band!r}")
            bound, count = band
            check_int("each step bound", bound, last + 1)  # strictly increasing
            check_int("each step count", count, self.n_min, self.n_max)
            last = bound
        if last != self.num_layers:
            raise ConfigError(
                f"step profile must cover layers 1..{self.num_layers}, last bound is {last}"
            )
        # a copy of the checked bands as plain ints, so editing the caller's list cannot change the plan
        object.__setattr__(self, "profile", StepProfile(tuple((int(b), int(c)) for b, c in prof.steps)))


def experts_per_layer(cfg: AllocationConfig, layer: int) -> int:
    """Expert count N_l for 1-based layer index ``layer``."""
    if not 1 <= layer <= cfg.num_layers:
        raise IndexError(f"layer {layer} out of range [1, {cfg.num_layers}]")
    if isinstance(cfg.profile, StepProfile):
        return next(count for bound, count in cfg.profile.steps if layer <= bound)
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
