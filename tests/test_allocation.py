"""Allocation: count profiles, plan building, config validation."""

import dataclasses
import math

import numpy as np
import pytest

from moelora.allocation import (
    AllocationConfig,
    ExpertRole,
    ExpertSlot,
    PowerLaw,
    StepProfile,
    build_plan,
)
from moelora.errors import ConfigError
from moelora.utils import config_digest


def power_cfg(n_min=2, n_max=8, L=32, gamma=1.0, **kw):
    return AllocationConfig(num_layers=L, n_min=n_min, n_max=n_max, profile=PowerLaw(gamma=gamma), **kw)


STEP_32 = StepProfile(steps=((10, 2), (19, 4), (32, 8)))


def counts(cfg):
    """Each layer's expert count N_l, layer 1 first, as ``build_plan`` resolves it."""
    return [len(slots) for slots in build_plan(cfg)]


def test_power_law_endpoint():
    assert counts(power_cfg())[32 - 1] == 8


def test_power_law_hand_values():
    assert counts(power_cfg(gamma=1.0))[16 - 1] == 2 + 3  # 2 + floor(6*0.5)
    assert counts(power_cfg(gamma=2.0))[16 - 1] == 2 + 1  # 2 + floor(6*0.25)


def test_step_profile_matches_band_table():
    assert counts(AllocationConfig(num_layers=32, profile=STEP_32)) == [2] * 10 + [4] * 9 + [8] * 13


def test_step_profile_total_budget():
    cfg = AllocationConfig(num_layers=32, profile=STEP_32, base_experts_per_layer=0,
                           specialist_ranks=(8,))
    plan = build_plan(cfg)
    assert sum(len(slots) for slots in plan) == 10 * 2 + 9 * 4 + 13 * 8 == 160


def test_step_profile_bands_are_copied_when_the_config_is_checked():
    steps = [[2, 2], [4, 3]]
    cfg = AllocationConfig(num_layers=4, n_max=3, profile=StepProfile(steps=steps))
    steps[0][1] = 99
    assert [len(slots) for slots in build_plan(cfg)] == [2, 2, 3, 3]
    steps.pop()
    assert [len(slots) for slots in build_plan(cfg)] == [2, 2, 3, 3]
    same = AllocationConfig(num_layers=4, n_max=3, profile=StepProfile(steps=((2, 2), (4, 3))))
    assert cfg == same and hash(cfg) == hash(same)


def test_power_law_monotone_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_min = int(rng.integers(1, 5))
        n_max = n_min + int(rng.integers(0, 9))
        L = int(rng.integers(1, 40))
        gamma = float(rng.uniform(1.0, 4.0))
        cfg = AllocationConfig(num_layers=L, n_min=n_min, n_max=n_max, profile=PowerLaw(gamma=gamma),
                               base_experts_per_layer=0)
        got = counts(cfg)
        assert len(got) == L and all(a <= b for a, b in zip(got, got[1:]))
        assert got[0] >= n_min
        assert got[-1] == n_max  # (L/L)^gamma == 1 exactly
        assert all(n_min <= c <= n_max for c in got)


def test_power_law_gamma_curvature():
    # raising gamma never raises a non-final layer's count
    for lo, hi in zip(counts(power_cfg(gamma=1.0))[:-1], counts(power_cfg(gamma=3.0))[:-1]):
        assert hi <= lo


def test_power_law_gamma_three_plan():
    # the counts gamma=3.0 gave when it was an AllocationConfig field
    cfg = AllocationConfig(num_layers=8, n_min=2, n_max=16, profile=PowerLaw(gamma=3.0))
    assert [len(slots) for slots in build_plan(cfg)] == [2, 2, 2, 3, 5, 7, 11, 16]
    assert PowerLaw(3.0) == PowerLaw(np.float64(3.0)) == PowerLaw(gamma=3)


def test_build_plan_smallest():
    cfg = AllocationConfig(num_layers=1, n_min=1, n_max=1, base_experts_per_layer=0, specialist_ranks=(8,))
    assert build_plan(cfg) == [[ExpertSlot(ExpertRole.SPECIALIST, 8)]]


def test_build_plan_role_based_cycle():
    cfg = AllocationConfig(
        num_layers=2, n_min=2, n_max=3,
        base_experts_per_layer=1,
        base_rank=16,
        specialist_ranks=(8, 32),
        profile=StepProfile(steps=((1, 2), (2, 3))),
    )
    plan = build_plan(cfg)
    assert plan[0] == [
        ExpertSlot(ExpertRole.BASE, 16),
        ExpertSlot(ExpertRole.SPECIALIST, 8),
    ]
    assert plan[1] == [
        ExpertSlot(ExpertRole.BASE, 16),
        ExpertSlot(ExpertRole.SPECIALIST, 8),
        ExpertSlot(ExpertRole.SPECIALIST, 32),
    ]


def test_build_plan_default_slots():
    # the plan every benchmark workload but train-topk-wide builds
    B, S = ExpertRole.BASE, ExpertRole.SPECIALIST
    plan = build_plan(AllocationConfig(num_layers=4))
    assert [[(s.role, s.rank) for s in slots] for slots in plan] == [
        [(B, 16), (S, 8)],
        [(B, 16), (S, 8), (S, 16)],
        [(B, 16), (S, 8), (S, 16), (S, 32), (S, 8)],
        [(B, 16), (S, 8), (S, 16), (S, 32), (S, 8), (S, 16), (S, 32), (S, 8)],
    ]


def test_build_plan_deterministic():
    cfg = power_cfg(L=8)
    assert build_plan(cfg) == build_plan(cfg)


def test_plan_base_count_per_layer():
    cfg = power_cfg(L=8, base_experts_per_layer=1)
    plan = build_plan(cfg)
    for slots in plan:
        assert sum(1 for s in slots if s.role is ExpertRole.BASE) == 1
        assert len(slots) >= 2


def test_plan_layer_count_and_counts():
    cfg = power_cfg(L=8)
    plan = build_plan(cfg)
    assert len(plan) == 8
    for layer, slots in enumerate(plan, start=1):  # the power law, written out per layer
        assert len(slots) == 2 + math.floor(6 * (layer / 8) ** 1.0) >= cfg.n_min


def test_config_validation():
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, n_min=0)
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, n_min=4, n_max=2)
    # True is 1 but not a float; inf built a plan whose config_digest raised ValueError
    for gamma in (0.5, float("nan"), True, float("inf")):
        with pytest.raises(ConfigError, match="gamma"):
            PowerLaw(gamma=gamma)
    for gamma in (2.0, 2, np.float64(2.0)):
        assert type(PowerLaw(gamma).gamma) is float and PowerLaw(gamma) == PowerLaw()
    # gamma belongs to the power law alone, so a step profile cannot be given one
    with pytest.raises(TypeError):
        AllocationConfig(num_layers=4, gamma=3.0, profile=StepProfile(steps=((2, 2), (4, 3))))
    assert "gamma" not in {f.name for f in dataclasses.fields(AllocationConfig)}
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, base_experts_per_layer=2, n_min=2)
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, base_rank=0)
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, specialist_ranks=())
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, specialist_ranks=(8, 0))
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, profile=StepProfile(steps=((2, 2), (3, 4))))
    with pytest.raises(ConfigError):
        AllocationConfig(num_layers=4, profile=StepProfile(steps=((4, 20),)))


@pytest.mark.parametrize("kw", [  # lambdas: a StepProfile checks its bands when it is built
    lambda: dict(base_rank=16.0),
    lambda: dict(specialist_ranks=(8.5,)),
    lambda: dict(n_max=8.5),  # the top layer would land on 8, not on n_max
    lambda: dict(n_min=True, base_experts_per_layer=0),
    lambda: dict(base_experts_per_layer=np.float64(1.0)),
    lambda: dict(num_layers=4.0),
    lambda: dict(profile=StepProfile(steps=((4, 2.0),))),
    lambda: dict(profile=StepProfile(steps=((4.0, 2),))),
], ids=[f"kw{i}" for i in range(8)])
def test_config_rejects_non_integer_sizes(kw):
    with pytest.raises(ConfigError):
        AllocationConfig(**{"num_layers": 4, **kw()})


def test_step_profile_checks_and_freezes_its_own_bands():
    # bounds rise strictly from 1 and counts are >= 1 before any config sees the profile
    for steps in (((0, 2), (4, 3)), ((2, 2), (2, 3)), ((3, 2), (2, 3)), ((2, 0), (4, 3)), ((4, -1),)):
        with pytest.raises(ConfigError, match="step"):
            StepProfile(steps)
    prof = StepProfile([[np.int64(2), np.int32(9)], (4, 1)])  # a count above n_max is the config's to reject
    assert prof.steps == ((2, 9), (4, 1)) and {type(n) for band in prof.steps for n in band} == {int}
    with pytest.raises(ConfigError, match="each step count"):
        AllocationConfig(num_layers=4, profile=prof)
    for profile in ("power-law", None, PowerLaw):
        with pytest.raises(ConfigError, match="unknown profile"):
            AllocationConfig(num_layers=4, profile=profile)


def test_config_accepts_numpy_integers():
    cfg = AllocationConfig(num_layers=np.int64(4), n_min=np.int32(2), n_max=np.int64(8),
                           base_experts_per_layer=np.int64(1), base_rank=np.int16(16),
                           specialist_ranks=np.array([8, 16, 32]))
    assert build_plan(cfg) == build_plan(AllocationConfig(num_layers=4))


@pytest.mark.parametrize("profile", ["power-law", "step"])
def test_numpy_number_config_has_the_digest_of_its_python_twin(profile):
    # the numpy numbers are stored as plain int and float, so both configs hash alike
    def cfg(i, f):
        return AllocationConfig(
            num_layers=i(4), n_min=i(2), n_max=i(8),
            base_experts_per_layer=i(1), base_rank=i(16), specialist_ranks=[i(8), i(32)],
            profile=PowerLaw(f(1.5)) if profile == "power-law" else StepProfile([(i(2), i(3)), (i(4), i(8))]))

    np_cfg, py_cfg = cfg(np.int64, np.float32), cfg(int, float)
    assert np_cfg == py_cfg
    fields = dataclasses.asdict(np_cfg)
    assert [type(v) for v in fields.values()] == [type(v) for v in dataclasses.asdict(py_cfg).values()]
    assert {type(r) for r in np_cfg.specialist_ranks} == {int}
    if profile == "step":
        assert {type(n) for band in np_cfg.profile.steps for n in band} == {int}
    else:
        assert type(np_cfg.profile.gamma) is float
    assert config_digest(fields) == config_digest(dataclasses.asdict(py_cfg))


@pytest.mark.parametrize("make", [
    lambda: PowerLaw(gamma="2"),
    lambda: AllocationConfig(num_layers=4, specialist_ranks=8),
    lambda: AllocationConfig(num_layers=4, profile=StepProfile(steps=((2,),))),
    lambda: AllocationConfig(num_layers=4, profile=StepProfile(steps=((2, 2, 3), (4, 3)))),
    lambda: AllocationConfig(num_layers=4, profile=StepProfile(steps=(4, 2))),
    lambda: AllocationConfig(num_layers=4, profile=StepProfile(steps=4)),
], ids=["str-gamma", "int-ranks", "one-field-band", "three-field-band", "int-bands", "int-steps"])
def test_config_rejects_fields_of_the_wrong_type(make):
    # each of these escaped as a TypeError or a bare ValueError
    with pytest.raises(ConfigError):
        make()
