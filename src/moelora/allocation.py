"""Layer-wise expert allocation: counts, roles and ranks for every layer.

Two count profiles are provided, and each checks its own fields. The
power-law profile grows expert count smoothly with depth,

    N_l = n_min + floor((n_max - n_min) * (l / L)^gamma),   l = 1..L,

so the top layer lands exactly on n_max; ``PowerLaw(gamma)`` holds its
gamma. The step profile assigns piecewise-constant counts from explicit
breakpoints; it covers deployments the power law cannot express (e.g. flat
shallow bands jumping to a dense top band). Within each layer, base-role
slots come first at ``base_rank``, then specialist slots whose ranks cycle
through ``specialist_ranks`` from the start. ``build_plan`` alone works out
the counts and returns the plan: a plain list of each layer's ``ExpertSlot``s
(role and rank), layer 1 first. This module imports nothing from the model side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import ConfigError
from .utils import check_int, is_real


@dataclass(frozen=True)
class PowerLaw:
    """Counts follow n_min + floor((n_max - n_min) * (l/L)^gamma); gamma is a finite number >= 1."""

    gamma: float = 2.0

    def __post_init__(self):
        if not (is_real(self.gamma) and math.isfinite(self.gamma) and self.gamma >= 1.0):
            raise ConfigError(f"gamma must be a finite number >= 1, got {self.gamma!r}")
        object.__setattr__(self, "gamma", float(self.gamma))  # so numpy numbers hash like Python ones


@dataclass(frozen=True)
class StepProfile:
    """Counts are constant within bands; ``steps`` is ((last_layer, count), ...), bounds rising
    strictly from 1 and counts >= 1, stored as plain-int pairs so the caller's list is not kept."""

    steps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.steps, (tuple, list)) or not self.steps:
            raise ConfigError(f"step profile needs (last_layer, count) bands, got {self.steps!r}")
        last, bands = 0, []
        for band in self.steps:
            if not isinstance(band, (tuple, list)) or len(band) != 2:
                raise ConfigError(f"each step band must be a (last_layer, count) pair, got {band!r}")
            last = check_int("each step bound", band[0], last + 1)  # strictly increasing
            bands.append((last, check_int("each step count", band[1], 1)))
        object.__setattr__(self, "steps", tuple(bands))


Profile = Union[PowerLaw, StepProfile]


@dataclass(frozen=True)
class AllocationConfig:
    num_layers: int
    n_min: int = 2
    n_max: int = 8
    base_experts_per_layer: int = 1
    base_rank: int = 16
    specialist_ranks: tuple[int, ...] = (8, 16, 32)
    profile: Profile = field(default_factory=PowerLaw)

    def __post_init__(self):
        try:
            object.__setattr__(self, "specialist_ranks", tuple(self.specialist_ranks))
        except TypeError as exc:
            raise ConfigError(f"specialist_ranks must be a cycle of ranks, got {self.specialist_ranks!r}") from exc

        def store(name, lo, hi=None):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo, hi))

        store("num_layers", 1)
        store("n_min", 1)
        store("n_max", self.n_min)
        store("base_rank", 1)
        if not self.specialist_ranks:
            raise ConfigError("specialist_ranks must be a non-empty cycle of ranks")
        ranks = tuple(check_int("each of specialist_ranks", rank, 1) for rank in self.specialist_ranks)
        object.__setattr__(self, "specialist_ranks", ranks)
        store("base_experts_per_layer", 0, self.n_min - 1)
        prof = self.profile
        if isinstance(prof, StepProfile):
            if prof.steps[-1][0] != self.num_layers:
                raise ConfigError(f"step profile must cover layers 1..{self.num_layers}, not 1..{prof.steps[-1][0]}")
            for _, count in prof.steps:
                check_int("each step count", count, self.n_min, self.n_max)
        elif not isinstance(prof, PowerLaw):
            raise ConfigError(f"unknown profile {prof!r}")


class ExpertRole(Enum):
    BASE = "base"  # anchors general behavior; built frozen
    SPECIALIST = "specialist"  # free to adapt


@dataclass(frozen=True)
class ExpertSlot:
    role: ExpertRole
    rank: int


def _layer_slots(cfg: AllocationConfig, count: int) -> list[ExpertSlot]:
    n_base = cfg.base_experts_per_layer  # < n_min <= count
    cycle = cfg.specialist_ranks
    return [ExpertSlot(ExpertRole.BASE, cfg.base_rank) for _ in range(n_base)] + [
        ExpertSlot(ExpertRole.SPECIALIST, cycle[i % len(cycle)]) for i in range(count - n_base)
    ]


def build_plan(cfg: AllocationConfig) -> list[list[ExpertSlot]]:
    """Each layer's slots, layer 1 first, its count N_l read from the step bands or the power law."""
    layers, prof = range(1, cfg.num_layers + 1), cfg.profile
    if isinstance(prof, StepProfile):
        counts = [next(count for bound, count in prof.steps if l <= bound) for l in layers]
    else:
        counts = [cfg.n_min + math.floor((cfg.n_max - cfg.n_min) * (l / cfg.num_layers) ** prof.gamma) for l in layers]
    return [_layer_slots(cfg, count) for count in counts]
