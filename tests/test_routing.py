"""Routing: gate logits, soft merge, top-k, load balance, and the run record's routing fields.

A layer's gate logits are ``linear(x, layer.w_g)`` and its soft merge is
``tempered_softmax(logits, layer.theta)``, as ``MoeLoraLayer``
computes them.
"""

import math

import numpy as np
import pytest

from gradcheck import finite_diff_grad
from moelora.allocation import AllocationConfig, ExpertRole, ExpertSlot, build_plan
from moelora.errors import ConfigError, DomainError, ShapeError
from moelora.model import BackboneConfig, MoeLoraLayer, Soft, build_model, run_record
from moelora.routing import THETA_INIT, load_balance_loss, topk_weights
from moelora.tensor import TAU_MIN, Tensor, linear, softmax, tempered_softmax

RNG = np.random.default_rng(99)


def make_router(n=3, k_in=4, seed=0):
    """A layer of n rank-1 experts, for its router: ``w_g`` [n x k_in] and ``theta``, as built."""
    return MoeLoraLayer(Tensor(np.zeros((1, k_in))), 1, [ExpertSlot(ExpertRole.SPECIALIST, 1)] * n, seed)


def tau_of(theta):
    """The temperature ``run_record`` reports for a router whose theta is ``theta``."""
    model = four_expert_model()
    model.moe_layers[0].theta.data[0] = theta
    gates = [(li, Tensor(np.full((1, 4), 0.25))) for li in (1, 2)]
    return run_record(model, gates, Soft())["layers"][0]["tau"]


# -- gate logits ---------------------------------------------------------------


def test_gate_logits_zero_weights():
    r = make_router()
    r.w_g.data[:] = 0.0
    out = linear(Tensor(RNG.normal(size=(1, 4))), r.w_g)
    assert np.array_equal(out.data, np.zeros((1, 3)))


def test_gate_logits_basis_vector_picks_column():
    r = make_router()
    e0 = np.zeros((1, 4))
    e0[0, 0] = 1.0
    out = linear(Tensor(e0), r.w_g)
    assert np.allclose(out.data[0], r.w_g.data[:, 0], atol=1e-15)


def test_gate_logits_row_sums():
    r = make_router()
    out = linear(Tensor(np.ones((1, 4))), r.w_g)
    assert np.allclose(out.data[0], r.w_g.data.sum(axis=1), atol=1e-12)


def test_gate_logits_batch_matches_single():
    r = make_router()
    xs = RNG.normal(size=(5, 4))
    batch = linear(Tensor(xs), r.w_g).data
    single = np.vstack([linear(Tensor(xs[i:i + 1]), r.w_g).data for i in range(len(xs))])
    assert np.max(np.abs(batch - single)) < 1e-12


# -- temperature ---------------------------------------------------------------


def test_initial_tau_is_exactly_one():
    r = make_router()
    assert r.theta.data[0] == THETA_INIT and r.theta.requires_grad
    assert tau_of(THETA_INIT) == 1.0
    # tau = 1 makes soft merging a plain softmax, bit for bit
    for s in (RNG.normal(scale=3.0, size=(1, 3)), RNG.normal(scale=3.0, size=(7, 3))):
        soft = tempered_softmax(Tensor(s), r.theta)
        assert np.array_equal(soft.data, softmax(Tensor(s)).data)


@pytest.mark.parametrize("init_tau", [1.0])
def test_initial_tau_is_reproduced_exactly(init_tau):
    # every router starts at THETA_INIT whatever its size and seed, and both
    # run_record's tau and the array form tempered_softmax evaluates give init_tau back
    for n, k_in, seed in ((1, 1, 0), (3, 4, 7), (16, 64, 123)):
        r = make_router(n, k_in, seed)
        assert tau_of(r.theta.data[0]) == init_tau
        assert (np.logaddexp(0.0, r.theta.data) + TAU_MIN).tolist() == [init_tau]


def test_tau_positive_for_any_parameter():
    for theta in [-1e6, -50.0, -1.0, 0.0, 3.0, 80.0]:
        assert tau_of(theta) >= TAU_MIN
        assert math.isfinite(tau_of(theta))


def test_a_nan_temperature_raises_domain_error():
    # what a diverged router holds; logaddexp would warn, which tier-1 turns into an error
    model = four_expert_model()
    model.moe_layers[0].theta.data[0] = np.nan
    with pytest.raises(DomainError):
        model.forward([1, 2, 3])
    for theta in (np.nan, np.inf):  # run_record's tau would be NaN or inf, which JSON cannot hold
        with pytest.raises(DomainError):
            tau_of(theta)


def test_soft_merge_uniform_on_equal_logits():
    r = make_router(n=4)
    w = tempered_softmax(Tensor(np.zeros((1, 4))), r.theta)
    assert np.allclose(w.data, 0.25, atol=1e-15)


def test_soft_merge_analytic():
    r = make_router(n=2)
    w = tempered_softmax(Tensor([[math.log(2.0), 0.0]]), r.theta)
    assert np.allclose(w.data, [[2 / 3, 1 / 3]], atol=1e-12)


def test_soft_merge_high_tau_flattens():
    r = make_router(n=2)
    r.theta.data[0] = 1000.0 - TAU_MIN  # softplus(t) == t in float64 for t this large
    w = tempered_softmax(Tensor([[5.0, 0.0]]), r.theta)
    tau = tau_of(r.theta.data[0])
    expect = math.exp(5.0 / tau) / (math.exp(5.0 / tau) + 1.0)
    assert abs(w.data[0, 0] - expect) < 1e-9
    assert abs(w.data[0, 0] - 0.50125) < 1e-4


def test_soft_merge_sum_and_shift_invariance():
    r = make_router(n=6)
    for _ in range(100):
        s = RNG.normal(scale=8.0, size=(1, 6))
        w = tempered_softmax(Tensor(s), r.theta).data
        assert abs(w.sum() - 1.0) <= 1e-9
        shifted = tempered_softmax(Tensor(s + 77.7), r.theta).data
        assert np.max(np.abs(w - shifted)) <= 1e-12


def test_soft_merge_monotone_smoothing():
    s = Tensor([[2.0, 0.5, -1.0, 0.0]])
    thetas = [-3.0, -1.0, THETA_INIT, 3.0, 10.0, 100.0]  # tau = softplus(theta) + TAU_MIN rises with theta
    maxima = []
    r = make_router(n=4)
    for theta in thetas:
        r.theta.data[0] = theta
        maxima.append(tempered_softmax(s, r.theta).data.max())
    for lo, hi in zip(maxima, maxima[1:]):
        assert hi <= lo + 1e-15


def test_soft_merge_gradients_reach_logits_wg_and_tau():
    r = make_router(n=3, k_in=4)
    x = Tensor(RNG.normal(size=(1, 4)))
    pick = Tensor([[1.0, -0.5, 2.0]])

    def loss():
        s = linear(x, r.w_g)
        return (tempered_softmax(s, r.theta) * pick).sum()

    loss().backward()
    gw = r.w_g.grad.copy()
    gt = r.theta.grad.copy()
    nw = finite_diff_grad(lambda t: loss().item(), r.w_g).data
    nt = finite_diff_grad(lambda t: loss().item(), r.theta).data
    assert np.max(np.abs(gw - nw)) < 1e-7
    assert np.max(np.abs(gt - nt)) < 1e-7
    assert abs(gt[0]) > 0  # temperature actually learns


# -- top-k ----------------------------------------------------------------------


def test_topk_equals_softmax_when_k_is_n():
    for _ in range(50):
        s = Tensor(RNG.normal(scale=5.0, size=(1, 6)))
        assert np.array_equal(topk_weights(s, 6).data, softmax(s).data)


def test_topk_argmax():
    w = topk_weights(Tensor([[3.0, 1.0, 2.0]]), 1)
    assert np.array_equal(w.data, [[1.0, 0.0, 0.0]])


def test_topk_tie_breaks_low_index():
    w = topk_weights(Tensor([[1.0, 1.0, 0.0]]), 2)
    assert np.array_equal(w.data, [[0.5, 0.5, 0.0]])
    w2 = topk_weights(Tensor([[0.0, 1.0, 1.0, 1.0]]), 2)
    assert np.array_equal(w2.data == 0.0, [[True, False, False, True]])


def test_topk_support_and_normalization():
    for _ in range(100):
        n = int(RNG.integers(1, 9))
        k = int(RNG.integers(1, n + 1))
        s = RNG.normal(scale=4.0, size=(1, n))
        w = topk_weights(Tensor(s), k).data
        assert int(np.sum(w > 0)) == k
        assert np.all(w[w == 0] == 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


def test_topk_rows_batch():
    s = Tensor(RNG.normal(size=(5, 4)))
    w = topk_weights(s, 2).data
    assert np.all((w > 0).sum(axis=1) == 2)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ShapeError):  # one token's logits are a [1 x N] row, never a 1-D vector
        topk_weights(Tensor(s.data[0]), 2)


def test_topk_k_out_of_range():
    with pytest.raises(ConfigError):
        topk_weights(Tensor([[1.0, 2.0]]), 0)
    with pytest.raises(ConfigError):
        topk_weights(Tensor([[1.0, 2.0]]), 3)
    # True used to select one expert and 1.5 to raise TypeError from the slice
    for k in (True, 1.5, 2.0, np.float64(1.0)):
        with pytest.raises(ConfigError, match="top-k"):
            topk_weights(Tensor([[1.0, 2.0]]), k)
    assert np.array_equal(topk_weights(Tensor([[1.0, 2.0]]), np.int32(1)).data, [[0.0, 1.0]])


@pytest.mark.parametrize("at", [0, 2])
def test_topk_rejects_a_nan_logit(at):
    # sorted as the smallest logit, a NaN would go unselected and hide the fault
    s = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
    s[1, at] = np.nan
    with pytest.raises(DomainError, match="NaN"):
        topk_weights(Tensor(s), 1)


def test_topk_gradient_matches_finite_diff_on_support():
    s = Tensor(RNG.normal(size=(1, 5)), requires_grad=True)
    pick = Tensor(RNG.normal(size=(1, 5)))
    (topk_weights(s, 3) * pick).sum().backward()
    numeric = finite_diff_grad(lambda t: (topk_weights(t, 3) * pick).sum().item(), s).data
    assert np.max(np.abs(s.grad - numeric)) < 1e-7


# -- load balance loss ------------------------------------------------------------


def test_load_balance_zero_on_uniform():
    gates = Tensor(np.full((6, 4), 0.25))
    assert load_balance_loss(gates).item() == 0.0


def test_load_balance_full_collapse_n2():
    gates = Tensor(np.tile([1.0, 0.0], (5, 1)))
    assert load_balance_loss(gates).item() == 1.0


def test_load_balance_permutation_invariant():
    g = RNG.dirichlet(np.ones(4), size=8)
    base = load_balance_loss(Tensor(g)).item()
    perm = RNG.permutation(4)
    assert abs(load_balance_loss(Tensor(g[:, perm])).item() - base) < 1e-12


def test_load_balance_empty_batch_rejected():
    with pytest.raises(DomainError):
        load_balance_loss([])
    with pytest.raises(DomainError):
        load_balance_loss(Tensor(np.zeros((0, 3))))
    with pytest.raises(DomainError):  # no experts: 1/N would divide by zero
        load_balance_loss(Tensor(np.zeros((3, 0))))


def test_load_balance_gradient_step_reduces_loss():
    # one gradient step on the logits must push mean loads toward uniform
    logits = Tensor(RNG.normal(scale=2.0, size=(12, 4)), requires_grad=True)
    loss = load_balance_loss(softmax(logits))
    loss.backward()
    before = loss.item()
    assert before > 0
    stepped = Tensor(logits.data - 0.5 * logits.grad)
    after = load_balance_loss(softmax(stepped)).item()
    assert after < before


def test_load_balance_gradient_matches_finite_diff():
    logits = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    load_balance_loss(softmax(logits)).backward()
    numeric = finite_diff_grad(
        lambda t: load_balance_loss(softmax(t)).item(), logits
    ).data
    assert np.max(np.abs(logits.grad - numeric)) < 1e-7


# -- run record -------------------------------------------------------------------


def four_expert_model():
    """Two routed layers of four experts each."""
    cfg = BackboneConfig(num_layers=2, d_model=8, n_heads=2, d_ff=8, vocab_size=8, max_seq_len=4)
    alloc = AllocationConfig(num_layers=2, n_min=4, n_max=4, base_rank=2, specialist_ranks=(2,))
    return build_model(cfg, build_plan(alloc), seed=0)


def test_entropy_uniform_and_onehot():
    uniform, onehot = np.full((5, 4), 0.25), np.tile([0.0, 1.0, 0.0, 0.0], (5, 1))
    layers = run_record(four_expert_model(), [(1, Tensor(uniform)), (2, Tensor(onehot))], Soft())["layers"]
    assert abs(layers[0]["mean_entropy"] - math.log(4)) < 1e-12
    assert layers[1]["mean_entropy"] == 0.0  # 0 * log 0 counts as 0
    assert [layer["live_experts"] for layer in layers] == [[4, 4], [1, 1]]
    assert layers[0]["load_balance"] == 0.0 and layers[1]["load_balance"] == 3.0


def test_routing_stats_loads_sum_to_one():
    # layer 1 appears twice, as after two forwards; its rows are stacked
    model = four_expert_model()
    model.moe_layers[1].theta.data[0] = math.log(math.expm1(0.5 - TAU_MIN))
    g1a, g1b, g2 = (RNG.dirichlet(np.ones(4), size=16) for _ in range(3))
    g2[0] = [1.0, 0.0, 0.0, 0.0]  # a one-hot row: 0 * log 0 counts as 0
    rec = run_record(model, [(1, Tensor(g1a)), (2, Tensor(g2)), (1, Tensor(g1b))], Soft())
    stats = {layer["layer"]: layer for layer in rec["layers"]}
    assert sorted(stats) == [1, 2]
    for st in stats.values():
        assert abs(sum(st["mean_load"]) - 1.0) <= 1e-9
        assert st["mean_entropy"] > 0
    stacked = np.vstack([g1a, g1b])
    assert np.allclose(stats[1]["mean_load"], stacked.mean(axis=0), rtol=0, atol=1e-15)
    for layer, rows in ((1, stacked), (2, g2)):
        per_row = [-sum(p * math.log(p) for p in row if p > 0) for row in rows]
        assert abs(stats[layer]["mean_entropy"] - np.mean(per_row)) <= 1e-12
        assert stats[layer]["load_balance"] == load_balance_loss(Tensor(rows)).item()
    assert stats[1]["tau"] == 1.0 and abs(stats[2]["tau"] - 0.5) < 1e-12
    assert stats[1]["live_experts"] == [4, 4] and stats[2]["live_experts"] == [1, 4]
