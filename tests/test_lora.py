"""LoRA experts: zero init, forward deltas, rank bounds, role freezing."""

import numpy as np
import pytest

from moelora.allocation import ExpertRole, ExpertSlot
from moelora.errors import ConfigError, ShapeError
from moelora.lora import SCALE, experts_unchanged, lora_forward, snapshot_experts
from moelora.model import MoeLoraLayer
from moelora.tensor import Tensor

RNG = np.random.default_rng(7)
BASE, SPECIALIST = ExpertRole.BASE, ExpertRole.SPECIALIST


def make_experts(d, k, slots, seed):
    """The experts a layer builds on a frozen [d x k] weight, for (role, rank) slots."""
    return MoeLoraLayer(Tensor(np.zeros((d, k))), 1, [ExpertSlot(role, rank) for role, rank in slots], seed).experts


def make_expert(d, k, rank, role=SPECIALIST, seed=0):
    return make_experts(d, k, [(role, rank)], seed)[0]


def dense_delta(e):
    """Reference dense update SCALE * B A, in numpy."""
    return (e.b.data @ e.a.data) * SCALE


def random_expert(d=6, k=5, rank=2, seed=0):
    e = make_expert(d, k, rank, seed=seed)
    e.b.data[:] = RNG.normal(size=e.b.shape)  # break the zero init for value tests
    return e


def test_init_zero_delta():
    for d, k, r in [(4, 4, 2), (8, 3, 3), (16, 16, 8)]:
        e = make_expert(d, k, r, BASE, seed=11)
        x = Tensor(RNG.normal(size=(1, k)))
        assert np.array_equal(lora_forward(e, x).data, np.zeros((1, d)))
        assert np.array_equal(dense_delta(e), np.zeros((d, k)))


def test_init_deterministic():
    e1 = make_expert(6, 5, 2, seed=42)
    e2 = make_expert(6, 5, 2, seed=42)
    assert np.array_equal(e1.a.data, e2.a.data)
    e3 = make_expert(6, 5, 2, seed=43)
    assert not np.array_equal(e1.a.data, e3.a.data)


def test_init_shapes_and_alpha_rule():
    e = make_expert(4, 4, 2, seed=0)
    assert e.a.shape == (2, 4)
    assert e.b.shape == (4, 2)
    assert e.rank == 2
    assert SCALE * e.rank == 4.0  # alpha, always 2*rank
    assert SCALE == 2.0


def test_init_rank_out_of_range():
    with pytest.raises(ConfigError):
        make_expert(4, 4, 5, seed=0)
    with pytest.raises(ConfigError):
        make_expert(4, 4, 0, seed=0)


def test_forward_hand_example():
    e = make_expert(2, 2, 1, seed=0)  # alpha = 2, SCALE 2
    e.a.data[:] = [[1.0, 0.0]]
    e.b.data[:] = [[1.0], [0.0]]
    out = lora_forward(e, Tensor([[3.0, 4.0]]))
    assert np.array_equal(out.data, [[6.0, 0.0]])
    assert np.array_equal(dense_delta(e), [[2.0, 0.0], [0.0, 0.0]])


def test_forward_matches_materialized_delta():
    e = random_expert()
    x = Tensor(RNG.normal(size=(1, 5)))
    via_factors = lora_forward(e, x).data
    via_dense = x.data @ dense_delta(e).T
    assert np.max(np.abs(via_factors - via_dense)) < 1e-12


def test_forward_batch_rows():
    e = random_expert()
    xs = RNG.normal(size=(7, 5))
    batched = lora_forward(e, Tensor(xs)).data
    single = np.vstack([lora_forward(e, Tensor(xs[i:i + 1])).data for i in range(len(xs))])
    assert np.max(np.abs(batched - single)) < 1e-12


def test_forward_shape_errors():
    e = random_expert()
    with pytest.raises(ShapeError):  # a single input is a [1 x k] row, never a 1-D vector
        lora_forward(e, Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        lora_forward(e, Tensor(np.zeros((3, 4))))


def test_delta_rank_bound():
    for _ in range(10):
        r = int(RNG.integers(1, 4))
        e = make_expert(8, 7, r, seed=int(RNG.integers(1 << 30)))
        e.b.data[:] = RNG.normal(size=e.b.shape)
        sv = np.linalg.svd(dense_delta(e), compute_uv=False)
        assert int(np.sum(sv > 1e-9)) <= r


def test_forward_linear_in_input():
    e = random_expert()
    x = Tensor(RNG.normal(size=(1, 5)))
    y = Tensor(RNG.normal(size=(1, 5)))
    a, b = 0.3, -1.7
    lhs = lora_forward(e, Tensor(a * x.data + b * y.data)).data
    rhs = a * lora_forward(e, x).data + b * lora_forward(e, y).data
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_trainable_flag_controls_gradients():
    frozen, live = make_experts(4, 3, [(BASE, 2), (SPECIALIST, 2)], seed=1)
    assert not frozen.trainable and live.trainable
    live.b.data[:] = RNG.normal(size=live.b.shape)
    frozen.b.data[:] = RNG.normal(size=frozen.b.shape)
    x = Tensor(RNG.normal(size=(1, 3)))
    (lora_forward(frozen, x) + lora_forward(live, x)).sum().backward()
    assert frozen.a.grad is None and frozen.b.grad is None
    assert live.a.grad is not None and live.b.grad is not None


def test_trainable_reads_either_tensor():
    e = make_expert(4, 3, 2, BASE, seed=1)
    assert not e.trainable
    for a, b in ((True, False), (False, True), (True, True)):
        e.a.requires_grad, e.b.requires_grad = a, b
        assert e.trainable, (a, b)
    e.a.requires_grad = e.b.requires_grad = False
    assert not e.trainable


def test_snapshot_detects_changes():
    e = make_expert(4, 3, 2, BASE, seed=5)
    snap = snapshot_experts([e])
    assert experts_unchanged([e], snap)
    e.a.data[0, 0] += 1e-16  # any bit flip must be caught
    assert not experts_unchanged([e], snap)


def test_param_count_closed_form():
    e = make_expert(64, 64, 8, seed=0)
    assert e.a.size + e.b.size == 8 * 128 == 1024
    e = make_expert(48, 16, 4, seed=0)
    assert e.a.size + e.b.size == 4 * (48 + 16)
