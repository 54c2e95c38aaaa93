"""Adapted model: zero-init equivalence, routing modes, audits, checkpoints."""

import dataclasses
import io
import json
import math
import os
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest

from moelora.allocation import (
    AllocationConfig,
    AllocationPlan,
    ExpertSlot,
    StepProfile,
    build_plan,
)
from moelora.errors import ConfigError, DomainError, ShapeError
from moelora.lora import ExpertRole
from moelora.model import (
    BackboneConfig,
    MoeLoraLayer,
    Soft,
    TopK,
    attach_plan,
    backbone_state,
    build_model,
    count_params,
    load_checkpoint,
    measured_active_params,
    mode_to_str,
    restore_backbone_state,
    save_checkpoint,
)
import moelora.model as model_mod
from moelora.routing import ROUTER_INIT_STD, topk_weights
from moelora.tensor import Tensor, cross_entropy, finite_diff_grad, matmul, no_grad, softmax
from moelora.utils import derive_seed

RNG = np.random.default_rng(1234)

SMALL_CFG = BackboneConfig(
    num_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=32, max_seq_len=12
)


def small_alloc(**kw):
    defaults = dict(num_layers=2, n_min=2, n_max=3, gamma=1.0,
                    base_experts_per_layer=1, base_rank=2, specialist_ranks=(2,))
    defaults.update(kw)
    return AllocationConfig(**defaults)


def small_model(seed=0, **attach_kw):
    return build_model(SMALL_CFG, build_plan(small_alloc()), seed=seed, **attach_kw)


def rand_tokens(n=8, vocab=32, rng=RNG):
    return [int(t) for t in rng.integers(0, vocab, size=n)]


# -- mode names ----------------------------------------------------------------


def test_mode_to_str():
    assert mode_to_str(TopK(3)) == "topk:3"
    assert mode_to_str(Soft()) == "soft"


# -- zero-init equivalence ----------------------------------------------------------


def test_zero_init_matches_bare_backbone_exactly():
    bare = build_model(SMALL_CFG, None, seed=7)
    adapted = small_model(seed=7)
    for _ in range(20):
        toks = rand_tokens()
        ref, _ = bare.forward(toks)
        out, gates = adapted.forward(toks)
        assert np.array_equal(ref.data, out.data)
        assert len(gates) == SMALL_CFG.num_layers


# -- single-expert reduction ----------------------------------------------------------


def test_single_expert_layer_reduces_to_plain_lora():
    plan = build_plan(small_alloc(n_min=1, n_max=1, base_experts_per_layer=0))
    model = build_model(SMALL_CFG, plan, seed=5)
    layer = model.moe_layers[0]
    layer.experts[0].b.data[:] = RNG.normal(size=layer.experts[0].b.shape)
    x = Tensor(RNG.normal(size=(6, layer.k_in)))
    out, gates = layer.forward(x, Soft())
    assert np.array_equal(gates.data, np.ones((6, 1)))  # softmax over one logit
    from moelora.lora import lora_forward

    expect = (matmul(x, layer.w0.T) + lora_forward(layer.experts[0], x)).data
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_one_expert_gate_is_exactly_one_and_router_gets_zero_gradient():
    # softmax over one logit: the router neither scales the expert nor learns
    plan = build_plan(small_alloc(n_min=1, n_max=1, base_experts_per_layer=0))
    model = build_model(SMALL_CFG, plan, seed=5)
    for layer in model.moe_layers:
        layer.experts[0].b.data[:] = RNG.normal(size=layer.experts[0].b.shape)
        layer.router.w_g.data[:] = RNG.normal(size=layer.router.w_g.shape)
    toks = rand_tokens()
    for mode in (Soft(), TopK(1)):
        for t in model.named_tensors().values():
            t.grad = None
        logits, gates = model.forward(toks, mode)
        cross_entropy(logits, toks).backward()
        assert len(gates) == 2 and all(np.all(g.data == 1.0) for _, g in gates)
        for layer in model.moe_layers:
            assert np.any(layer.experts[0].b.grad != 0)
            assert np.all(layer.router.w_g.grad == 0.0), mode
            tau_grad = layer.router.tau_param.grad  # top-k does not use tau
            assert tau_grad is None if isinstance(mode, TopK) else np.all(tau_grad == 0.0)


def test_forward_rejects_non_integer_tokens():
    model = small_model(seed=5)
    with pytest.raises(DomainError):
        model.forward([1.7, 2.2])  # not truncated to tokens 1 and 2


# -- mixed-rank weighted sum vs dense oracle -------------------------------------------


def test_moe_forward_matches_dense_brute_force():
    w0 = Tensor(RNG.normal(size=(3, 3)))
    layer = MoeLoraLayer(w0, layer_index=1)
    layer.attach([ExpertSlot(ExpertRole.BASE, 1), ExpertSlot(ExpertRole.SPECIALIST, 2)], seed=4)
    e1, e2 = layer.experts
    e1.a.data[...] = [[1.0, -2.0, 0.5]]
    e1.b.data[...] = [[0.3], [1.0], [-0.7]]
    e2.a.data[...] = [[0.2, 0.0, -1.0], [1.5, 0.4, 0.9]]
    e2.b.data[...] = [[1.0, 0.1], [-0.2, 2.0], [0.0, -1.0]]
    x = RNG.normal(size=(5, 3))
    # independent dense evaluation with materialized per-expert updates
    d1, d2 = [(e.b.data @ e.a.data) * e.scaling() for e in (e1, e2)]
    for mode in (Soft(), TopK(1), TopK(2)):
        out, gates = layer.forward(Tensor(x), mode)
        g = gates.data
        expect = x @ w0.data.T
        for t in range(5):
            expect[t] += g[t, 0] * (d1 @ x[t]) + g[t, 1] * (d2 @ x[t])
        assert np.max(np.abs(out.data - expect)) < 1e-12, mode


def test_delta_linearity_doubling_b_doubles_delta():
    model = small_model(seed=9)
    for layer in model.moe_layers:
        for e in layer.experts:
            e.b.data[:] = RNG.normal(size=e.b.shape)
    x = Tensor(RNG.normal(size=(4, model.moe_layers[0].k_in)))
    layer = model.moe_layers[0]
    base = matmul(x, layer.w0.T).data
    out1 = layer.forward(x, Soft())[0].data
    for e in layer.experts:
        e.b.data[:] *= 2.0
    out2 = layer.forward(x, Soft())[0].data
    # gates depend on x only, so the adapter delta scales exactly
    assert np.max(np.abs((out2 - base) - 2.0 * (out1 - base))) < 1e-12


# -- gradient isolation -----------------------------------------------------------------


def test_gradient_isolation_w0_and_base_experts():
    model = small_model(seed=11)
    toks = rand_tokens()
    logits, gates = model.forward(toks)
    loss = cross_entropy(logits, toks)
    loss.backward()
    for layer in model.moe_layers:
        assert layer.w0.grad is None
        for e in layer.experts:
            if e.role is ExpertRole.BASE:
                assert e.a.grad is None and e.b.grad is None
            else:
                assert e.a.grad is not None
    for name, t in model.backbone_tensors().items():
        assert t.grad is None, name
    for layer in model.moe_layers:
        assert layer.router.w_g.grad is not None
        assert layer.router.tau_param.grad is not None


def test_topk_unselected_experts_get_no_gradient():
    alloc = small_alloc(n_min=4, n_max=6)
    model = build_model(SMALL_CFG, build_plan(alloc), seed=21)
    assert [layer.num_experts for layer in model.moe_layers] == [5, 6]
    for layer in model.moe_layers:
        for e in layer.experts:
            e.b.data[:] = RNG.normal(size=e.b.shape)
    toks = rand_tokens(2)
    logits, gates = model.forward(toks, TopK(2))
    cross_entropy(logits, toks).backward()
    idle_seen = 0
    for layer_index, g in gates:
        hot = g.data.any(axis=0)
        for e, selected in zip(model.moe_layers[layer_index - 1].experts, hot):
            if not selected:
                idle_seen += 1
                assert e.a.grad is None and e.b.grad is None
            elif e.trainable:
                assert e.a.grad is not None and np.any(e.b.grad != 0)
    assert idle_seen >= 2  # 2 tokens with k = 2 select at most 4 of layer 2's 6 experts


def test_stacked_layer_gradients_match_finite_diff():
    # mixed ranks 1 and 2 behind a frozen rank-2 base expert, soft routing
    d, k = 4, 5
    layer = MoeLoraLayer(Tensor(RNG.normal(size=(d, k))), layer_index=1)
    layer.attach([ExpertSlot(ExpertRole.BASE, 2), ExpertSlot(ExpertRole.SPECIALIST, 1),
                  ExpertSlot(ExpertRole.SPECIALIST, 2)], seed=31)
    base, spec1, spec2 = layer.experts
    for e in (base, spec1, spec2):
        e.b.data[...] = RNG.normal(size=e.b.shape)
    router = layer.router
    router.w_g.data[...] = RNG.normal(size=router.w_g.shape)
    x = Tensor(RNG.normal(size=(6, k)))
    w = Tensor(RNG.normal(size=(6, d)))

    def loss():
        return (layer.forward(x, Soft())[0] * w).sum()

    loss().backward()
    assert base.a.grad is None and base.b.grad is None
    for t in (spec1.a, spec1.b, spec2.a, router.w_g, router.tau_param):
        numeric = finite_diff_grad(lambda _: loss().item(), t).data
        scale = max(np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(t.grad - numeric)) / scale < 1e-6


TINY_CFG = BackboneConfig(num_layers=2, d_model=4, n_heads=2, d_ff=8, vocab_size=8, max_seq_len=6)


@pytest.mark.parametrize("case", ["bare backbone", "soft", "topk:1"])
def test_whole_model_gradients_match_finite_diff(case, monkeypatch):
    # every trainable tensor, through embeddings, attention, rms_norm, each MoE layer, the head and the loss
    rng = np.random.default_rng(2026)  # a fixed draw: the top-k case asserts its selection margin below
    if case == "bare backbone":
        model = build_model(TINY_CFG, None, seed=5, trainable_backbone=True)
        assert [n for n, _ in model.trainable_params()] == list(model.named_tensors())
    else:
        model = build_model(TINY_CFG, build_plan(small_alloc()), seed=5, train_base_experts=True)
        assert [n for n, _ in model.trainable_params()] == list(model.adapter_tensors())
        for layer in model.moe_layers:
            layer.b_stack[...] = rng.normal(size=layer.b_stack.shape)
            layer.router.w_g.data[...] = rng.normal(size=layer.router.w_g.shape)
    mode = TopK(1) if case == "topk:1" else Soft()
    tokens, targets = rng.integers(0, 8, size=(2, 6)).tolist()
    h = 1e-5
    margins = []  # smallest gap between the k-th and (k+1)-th router logit, per top-k call

    def spy(s, k):
        top = -np.sort(-s.data, axis=1)
        margins.append(np.min(top[:, k - 1] - top[:, k]))
        return topk_weights(s, k)

    monkeypatch.setattr(model_mod, "topk_weights", spy)

    def loss():
        return cross_entropy(model.forward(tokens, mode)[0], targets)

    loss().backward()
    for name, t in model.trainable_params():
        numeric = finite_diff_grad(lambda _: loss().item(), t, h=h).data
        analytic = np.zeros_like(numeric) if t.grad is None else t.grad  # top-k leaves idle experts None
        scale = max(np.max(np.abs(numeric)), np.max(np.abs(analytic)), 1e-8)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6, name
    if mode == TopK(1):  # no step of size h can flip a selection, which would pass unnoticed
        assert len(margins) > 2 and min(margins) > 1e3 * h


# -- stacked expert storage ------------------------------------------------------------


def test_attached_experts_view_the_layer_stacks():
    model = small_model(seed=3)
    for layer in model.moe_layers:
        assert layer.a_stack.base is None and layer.b_stack.base is None  # the layer owns them
        assert layer.rows[-1].stop == layer.a_stack.shape[0] == layer.b_stack.shape[1]
        assert layer.spread.shape == (layer.a_stack.shape[0], layer.num_experts)
        for i, (e, r) in enumerate(zip(layer.experts, layer.rows)):
            assert e.a.data.base is layer.a_stack and e.b.data.base is layer.b_stack
            assert np.shares_memory(e.a.data, layer.a_stack[r])
            assert np.shares_memory(e.b.data, layer.b_stack[:, r])
            assert np.all(layer.spread[r, i] == e.alpha / e.rank)
            assert np.count_nonzero(layer.spread[r]) == e.rank  # only expert i's gate column
        e = layer.experts[-1]
        e.b.data[0, -1] = 7.0  # an in-place write lands in the stack
        assert layer.b_stack[0, layer.rows[-1].stop - 1] == 7.0


def test_in_place_b_update_reaches_the_next_forward():
    layer = small_model(seed=4).moe_layers[1]
    x = Tensor(RNG.normal(size=(5, layer.k_in)))
    before = layer.forward(x, Soft())[0].data
    e = layer.experts[-1]
    e.b.data -= 0.1 * RNG.normal(size=e.b.shape)  # an SGD-shaped step on one expert's b
    out, gates = layer.forward(x, Soft())
    a_cat = np.concatenate([f.a.data for f in layer.experts])  # fresh copies, not the stacks
    b_cat = np.concatenate([f.b.data for f in layer.experts], axis=1)
    spread = np.zeros((a_cat.shape[0], layer.num_experts))
    row = 0
    for i, f in enumerate(layer.experts):
        spread[row:row + f.rank, i] = f.alpha / f.rank
        row += f.rank
    xd = x.data
    expect = xd @ layer.w0.data.T + ((xd @ a_cat.T) * (gates.data @ spread.T)) @ b_cat.T
    assert np.array_equal(out.data, expect) and not np.array_equal(out.data, before)


def test_rebound_expert_data_raises():
    # rebinding .data instead of writing into it would leave the stack stale
    for part in ("a", "b"):
        model = small_model(seed=6)
        t = getattr(model.moe_layers[0].experts[1], part)
        t.data = t.data.copy()
        with pytest.raises(ConfigError, match="view"):
            model.forward(rand_tokens())


def test_forward_passes_the_layer_stacks_without_copying(monkeypatch):
    import moelora.model as model_mod

    model = small_model(seed=8)
    stacks = [(layer.a_stack, layer.b_stack, layer.spread) for layer in model.moe_layers]
    seen = []
    real = model_mod.moe_lora

    def spy(*args):
        seen.append(args[3:6])
        return real(*args)

    monkeypatch.setattr(model_mod, "moe_lora", spy)
    for mode in (Soft(), TopK(1), Soft()):
        model.forward(rand_tokens(), mode)
    assert len(seen) == 3 * len(stacks)
    for got, want in zip(seen, stacks * 3):
        assert all(g is w for g, w in zip(got, want, strict=True))


def test_train_step_tape_node_count():
    # structural guard: the one-node moe_lora layer, the fused attention,
    # linear's untaped weight transpose, the one-node rms_norm and the one-node
    # soft gate keep a default step at 81 tape nodes (108 with an eight-op
    # expert chain and concat, 124 with a five-op gate, 159 with a six-op norm,
    # 171 with a transpose node per trainable weight, 276 with per-head attention)
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
    toks = [int(t) for t in np.random.default_rng(0).integers(0, 256, size=32)]
    logits, _ = model.forward(toks[:-1], Soft())
    loss = cross_entropy(logits, toks[1:])
    assert len(loss._toposort()) <= 81


@pytest.mark.parametrize("name, value", [("d_model", 64.0), ("n_heads", True), ("n_heads", 0),
                                         ("num_layers", 2.5), ("vocab_size", np.float64(256.0))])
def test_backbone_config_rejects_non_integer_or_small_sizes(name, value):
    # d_model=64.0 used to build and then fail in ToyBackbone, n_heads=True was
    # accepted and n_heads=0 raised ZeroDivisionError
    with pytest.raises(ConfigError, match=name):
        BackboneConfig(**{name: value})


@pytest.mark.parametrize("eps", [0.0, -1.0, float("inf"), float("nan"), True, "1e-6"])
def test_backbone_config_rejects_bad_rmsnorm_eps(eps):
    # -1 gives NaN logits, 0 divides a zero row by zero, inf zeroes every normed row,
    # and a string used to escape as a TypeError
    with pytest.raises(ConfigError):
        BackboneConfig(rmsnorm_eps=eps)


def test_configs_cannot_change_after_validation():
    # a field set after __post_init__ was never checked: n_max = 1 built a layer below n_min
    alloc = AllocationConfig(num_layers=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        alloc.n_max = 1
    assert [len(slots) for slots in build_plan(alloc).per_layer] == [2, 3, 5, 8]
    with pytest.raises(dataclasses.FrozenInstanceError):
        BackboneConfig().n_heads = 3
    assert AllocationConfig(num_layers=2, specialist_ranks=[8, 4]).specialist_ranks == (8, 4)


def test_fused_qkv_holds_the_per_head_draws():
    # per-head weights were drawn in the order q0, k0, v0, q1, ... from the
    # backbone stream; the fused [3d x d] weight keeps every one of them
    model = build_model(SMALL_CFG, None, seed=5)
    d, n_heads = SMALL_CFG.d_model, SMALL_CFG.n_heads
    d_head, std = d // n_heads, 1.0 / np.sqrt(d)
    rng = np.random.default_rng(derive_seed(5, "backbone"))
    rng.normal(0.0, 0.5, size=(SMALL_CFG.vocab_size + SMALL_CFG.max_seq_len, d))  # wte, wpe
    for block in model.blocks:
        for h in range(n_heads):
            for part in range(3):  # q, k, v
                start = part * d + h * d_head
                draw = rng.normal(0.0, std, size=(d_head, d))
                assert np.array_equal(block.wqkv.data[start : start + d_head], draw)
        rng.normal(0.0, std, size=(d + SMALL_CFG.d_ff, d))  # attn_out, ffn_in
        rng.normal(0.0, 1.0 / np.sqrt(SMALL_CFG.d_ff), size=(d, SMALL_CFG.d_ff))  # ffn_out
    assert np.array_equal(model.head.data, rng.normal(0.0, std, size=(SMALL_CFG.vocab_size, d)))
    names = [n for n in model.backbone_tensors() if ".attn." in n]
    assert names == ["block1.attn.qkv", "block1.attn.out", "block2.attn.qkv", "block2.attn.out"]


def test_train_base_experts_makes_base_experts_trainable():
    for flag in (False, True):
        model = small_model(seed=11, train_base_experts=flag)
        for layer in model.moe_layers:
            base = [e for e in layer.experts if e.role is ExpertRole.BASE]
            assert base and all(e.trainable is flag and e.a.requires_grad is flag for e in base)


# -- routing mode consistency ---------------------------------------------------------


def test_topk_full_equals_soft_at_unit_tau():
    # constant N, so TopK(N) is full routing at every layer
    model = build_model(SMALL_CFG, build_plan(small_alloc(n_min=3, n_max=3)), seed=13)
    for layer in model.moe_layers:
        assert layer.num_experts == 3
        for e in layer.experts:
            e.b.data[:] = RNG.normal(size=e.b.shape)
        assert layer.router.tau() == 1.0
    toks = rand_tokens()
    soft_logits, _ = model.forward(toks, Soft())
    topk_logits, _ = model.forward(toks, TopK(3))
    assert np.array_equal(soft_logits.data, topk_logits.data)


def test_topk_full_equals_soft_per_layer_exact():
    # exercised at the layer level so k can match each layer's own N
    model = small_model(seed=13)
    for layer in model.moe_layers:
        for e in layer.experts:
            e.b.data[:] = RNG.normal(size=e.b.shape)
        x = Tensor(RNG.normal(size=(5, layer.k_in)))
        soft_out, _ = layer.forward(x, Soft())
        topk_out, _ = layer.forward(x, TopK(layer.num_experts))
        assert np.array_equal(soft_out.data, topk_out.data)


def test_topk_k_too_large_rejected():
    model = small_model(seed=13)
    with pytest.raises(ConfigError):
        model.forward(rand_tokens(), TopK(99))


@pytest.mark.parametrize("k", [2.0, True, 0, -1, np.float64(1.0)])
def test_topk_rejects_a_k_that_is_not_an_integer_of_at_least_one(k):
    # 2.0 used to fail with TypeError inside forward and count_params, True ran as k = 1
    with pytest.raises(ConfigError, match="top-k"):
        TopK(k)


def test_numpy_integer_sizes_compute_what_python_integers_do():
    sizes = dict(num_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=32, max_seq_len=12)
    cfg = BackboneConfig(**{name: np.int64(v) for name, v in sizes.items()})
    toks = rand_tokens()
    plan = build_plan(small_alloc())
    logits, _ = build_model(cfg, plan, seed=3).forward(toks, TopK(np.int32(2)))
    expect, _ = build_model(SMALL_CFG, plan, seed=3).forward(toks, TopK(2))
    assert np.array_equal(logits.data, expect.data)


def test_causal_masking_blocks_future_tokens():
    model = small_model(seed=17)
    toks = rand_tokens(8)
    logits1, _ = model.forward(toks)
    toks2 = list(toks)
    toks2[-1] = (toks2[-1] + 1) % SMALL_CFG.vocab_size
    logits2, _ = model.forward(toks2)
    assert np.array_equal(logits1.data[:-1], logits2.data[:-1])
    assert not np.array_equal(logits1.data[-1], logits2.data[-1])


def test_nan_adapter_weight_raises_instead_of_vanishing():
    # a relu that maps NaN to 0 would erase a NaN row of the last layer's B
    # stack and return finite logits; the NaN must reach rms_norm and raise
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
    toks = [int(t) for t in np.random.default_rng(0).integers(0, 256, size=31)]
    layer = model.moe_layers[-1]
    assert layer.layer_index == 4
    for mode in (Soft(), TopK(2)):
        assert np.isfinite(model.forward(toks, mode)[0].data).all()
    layer.b_stack[5] = np.nan
    for mode in (Soft(), TopK(2)):
        with pytest.raises(DomainError):
            model.forward(toks, mode)
        with no_grad(), pytest.raises(DomainError):
            model.forward(toks, mode)


# -- parameter accounting ----------------------------------------------------------------


def test_count_params_single_expert_closed_form():
    cfg = BackboneConfig(num_layers=1, d_model=64, n_heads=4, d_ff=64,
                         vocab_size=32, max_seq_len=8)
    plan = build_plan(AllocationConfig(
        num_layers=1, n_min=1, n_max=1, gamma=1.0,
        base_experts_per_layer=0, specialist_ranks=(8,)))
    model = build_model(cfg, plan, seed=0)
    # expert 8 * (64 + 64), router 1 * 64 weights plus its temperature
    pc = count_params(model)
    assert pc.trainable == pc.active == 8 * 128 + 64 * 1 + 1 == 1089
    assert count_params(model, TopK(1)) == pc


def test_count_params_matches_brute_force_enumeration():
    rng = np.random.default_rng(5)
    for trial in range(50):
        L = int(rng.integers(1, 4))
        d_model = int(rng.choice([8, 16, 32]))
        d_ff = int(rng.choice([8, 16, 32]))
        cfg = BackboneConfig(num_layers=L, d_model=d_model, n_heads=2, d_ff=d_ff,
                             vocab_size=16, max_seq_len=8)
        ranks = [int(r) for r in rng.integers(1, min(d_ff, d_model) + 1, size=3)]
        n_min = int(rng.integers(1, 3))
        n_max = n_min + int(rng.integers(0, 3))
        base = int(rng.integers(0, n_min))
        alloc = AllocationConfig(num_layers=L, n_min=n_min, n_max=n_max,
                                 gamma=float(rng.uniform(1, 3)),
                                 base_experts_per_layer=base,
                                 base_rank=ranks[0], specialist_ranks=ranks[1:])
        model = build_model(cfg, build_plan(alloc), seed=trial)
        pc = count_params(model)
        # brute force: enumerate actual tensor elements by trainability
        trainable = sum(t.data.size for _, t in model.named_tensors().items() if t.requires_grad)
        frozen = sum(t.data.size for _, t in model.named_tensors().items() if not t.requires_grad)
        assert pc.trainable == trainable
        assert pc.frozen == frozen
        assert pc.active == pc.trainable  # soft mode


def test_count_params_topk_worst_case_and_measured():
    cfg = BackboneConfig(num_layers=2, d_model=16, n_heads=2, d_ff=16,
                         vocab_size=32, max_seq_len=12)
    alloc = AllocationConfig(num_layers=2, n_min=3, n_max=3, gamma=1.0,
                             base_experts_per_layer=1, base_rank=4, specialist_ranks=(4,))
    model = build_model(cfg, build_plan(alloc), seed=1)
    d, k = cfg.d_ff, cfg.d_model
    per_expert = 4 * (d + k)
    router = 3 * k + 1
    pc = count_params(model, TopK(2))
    # worst case: both selected experts are trainable specialists
    assert pc.trainable == 2 * (router + 2 * per_expert)
    assert pc.active == 2 * (router + 2 * per_expert)
    measured = measured_active_params(model, [rand_tokens(6)], TopK(2))
    assert measured <= pc.active
    assert measured >= 2 * router  # routers always touched
    soft_measured = measured_active_params(model, [rand_tokens(6)], Soft())
    assert soft_measured == count_params(model, Soft()).active


def test_count_params_rejects_k_that_forward_rejects():
    # the default plan has 2, 3, 5 and 8 experts, so top-k needs 1 <= k <= 2
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
    assert count_params(model, TopK(2)).active > 0
    for k in (0, 3):
        with pytest.raises(ConfigError):
            model.forward(rand_tokens(4, vocab=256), TopK(k))
        with pytest.raises(ConfigError):
            count_params(model, TopK(k))


def test_count_params_rejects_a_mode_that_forward_rejects():
    # "topk:2" used to be counted as Soft; gate_weights rejects it
    model = small_model()
    for mode in ("topk:2", None, 2):
        with pytest.raises(ConfigError):
            model.forward(rand_tokens(), mode)
        with pytest.raises(ConfigError):
            count_params(model, mode)


def test_frozen_base_expert_counts_zero_trainable():
    model = small_model(seed=2)
    pc = count_params(model)
    hand = 0
    for layer in model.moe_layers:
        hand += layer.router.w_g.data.size + 1
        hand += sum(e.param_count() for e in layer.experts if e.trainable)
    assert pc.trainable == hand


# -- which tensors train -----------------------------------------------------------------


def test_requires_grad_follows_tensor_role():
    # every named tensor is a backbone weight (each w0 included), an expert's A or B, or a router's;
    # only the routers and the specialist experts train
    model = small_model(seed=3)
    named = model.named_tensors()
    experts = {f"layer{layer.layer_index}.expert{i}.{ab}": (e, getattr(e, ab.lower()))
               for layer in model.moe_layers for i, e in enumerate(layer.experts) for ab in "AB"}
    routers = {n for n in named if ".router." in n}
    backbone = model.backbone_tensors()
    assert set(backbone) | set(experts) | routers == set(named)
    assert len(backbone) + len(experts) + len(routers) == len(named)
    assert {f"layer{li}.w0" for li in (1, 2)} <= set(backbone)
    for name, t in named.items():
        if name in experts:
            e, view = experts[name]
            assert t is view and t.requires_grad == (e.role is ExpertRole.SPECIALIST), name
        else:
            assert t.requires_grad == (name in routers), name
    assert {e.role for e, _ in experts.values()} == {ExpertRole.BASE, ExpertRole.SPECIALIST}


# -- checkpoints ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_identical(tmp_path):
    model = small_model(seed=19)
    for layer in model.moe_layers:
        for e in layer.experts:
            e.b.data[:] = RNG.normal(size=e.b.shape)
        layer.router.tau_param.data[0] = 0.37
    toks = rand_tokens()
    ref, _ = model.forward(toks)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt, config_hash="abc123")
    assert os.listdir(ckpt) == ["checkpoint.npz"]
    with np.load(os.path.join(ckpt, "checkpoint.npz"), allow_pickle=False) as archive:
        manifest = json.loads(str(archive["manifest"]))
    assert manifest["config_hash"] == "abc123"
    assert manifest.keys() == {"format", "config_hash", "experts", "tensors"}
    clone = small_model(seed=999)  # different seed: all weights differ before load
    load_checkpoint(clone, ckpt, expect_hash="abc123")
    out, _ = clone.forward(toks)
    assert np.array_equal(ref.data, out.data)


def test_checkpoint_load_reaches_the_stacks(tmp_path):
    # compares forwards, not tensors: a load that missed the stacks would show here
    model = small_model(seed=19)
    for layer in model.moe_layers:
        for e in layer.experts:
            e.a.data += RNG.normal(scale=0.1, size=e.a.shape)
            e.b.data[...] = RNG.normal(size=e.b.shape)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    clone = small_model(seed=999)
    load_checkpoint(clone, ckpt)
    toks = rand_tokens()
    for mode in (Soft(), TopK(1), TopK(2)):
        assert np.array_equal(model.forward(toks, mode)[0].data, clone.forward(toks, mode)[0].data)
    for src, dst in zip(model.moe_layers, clone.moe_layers):
        assert np.array_equal(src.a_stack, dst.a_stack) and np.array_equal(src.b_stack, dst.b_stack)


def tensor_bytes(model):
    return {name: t.data.tobytes() for name, t in model.named_tensors().items()}


def test_checkpoint_round_trip_extreme_values_bit_exact(tmp_path):
    model = small_model(seed=19)
    tensors = model.named_tensors()
    extremes = [-0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 5e-324, -1.0e-12]
    tensors["backbone.wte"].data[0, : len(extremes)] = extremes
    tensors["layer1.w0"].data[...] = RNG.normal(size=tensors["layer1.w0"].shape) * 1e-12
    tensors["layer2.expert1.B"].data[...] = RNG.normal(size=tensors["layer2.expert1.B"].shape) * 1e9
    tensors["layer1.router.tau"].data[0] = 3.141592653589793
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    clone = small_model(seed=999)
    load_checkpoint(clone, ckpt)
    # byte comparison, so -0.0 must come back as -0.0 and not as 0.0
    assert tensor_bytes(clone) == tensor_bytes(model)
    assert np.signbit(clone.named_tensors()["backbone.wte"].data[0, 0])


def read_archive(ckpt):
    """(manifest, flat tensors array) of a saved checkpoint."""
    with np.load(os.path.join(ckpt, "checkpoint.npz"), allow_pickle=False) as archive:
        assert archive.files == ["manifest", "tensors"]
        return json.loads(str(archive["manifest"])), archive["tensors"]


def write_archive(ckpt, manifest, data, header=None, compression=zipfile.ZIP_STORED):
    """checkpoint.npz holding ``manifest`` and a tensors member of raw ``data`` bytes.

    ``header`` is the tensors member's .npy header dict; by default 1-D <f8 of len(data) // 8.
    ``compression`` is the tensors member's zip method.
    """
    header = header or dict(descr="<f8", fortran_order=False, shape=(len(data) // 8,))
    man, tensors = io.BytesIO(), io.BytesIO()
    np.save(man, np.array(json.dumps(manifest)))
    np.lib.format.write_array_header_1_0(tensors, header)
    with zipfile.ZipFile(os.path.join(ckpt, "checkpoint.npz"), "w") as zf:
        zf.writestr("manifest.npy", man.getvalue())
        zf.writestr("tensors.npy", tensors.getvalue() + data, compress_type=compression)


def write_archive_without(ckpt, drop):
    """Rewrite the checkpoint without table entry ``drop`` and without its values."""
    manifest, flat = read_archive(ckpt)
    sizes = [math.prod(shape) for _, shape in manifest["tensors"]]
    i = [name for name, _ in manifest["tensors"]].index(drop)
    start = sum(sizes[:i])
    del manifest["tensors"][i]
    write_archive(ckpt, manifest, np.delete(flat, np.s_[start:start + sizes[i]]).tobytes())


def test_manifest_with_a_plan_csv_still_loads_bit_exactly(tmp_path):
    # the previous writer of format 4 also stored the plan as CSV; the expert records carry
    # the same facts, so the key is ignored on load
    model = small_model(seed=19)
    for t in model.named_tensors().values():
        t.data[...] += RNG.normal(size=t.shape)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    manifest, flat = read_archive(ckpt)
    manifest["plan"] = "layer,slot,role,rank\n" + "".join(
        f"{li},{i},{e.role.value},{e.rank}\n"
        for li, layer in enumerate(model.moe_layers, start=1) for i, e in enumerate(layer.experts))
    write_archive(ckpt, manifest, flat.tobytes())
    clone = small_model(seed=999)
    load_checkpoint(clone, ckpt)
    assert tensor_bytes(clone) == tensor_bytes(model)


def uniform_rank_model(rank, seed):
    alloc = small_alloc(base_rank=rank, specialist_ranks=(rank,))
    return build_model(SMALL_CFG, build_plan(alloc), seed=seed)


def test_rejected_load_leaves_model_unchanged(tmp_path):
    donor = uniform_rank_model(4, seed=3)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(donor, ckpt)
    # same names, different expert shapes: the backbone tensors come first in
    # the archive and match, the first expert does not
    model = uniform_rank_model(8, seed=5)
    before = tensor_bytes(model)
    assert before.keys() == tensor_bytes(donor).keys()
    with pytest.raises(ShapeError):
        load_checkpoint(model, ckpt)
    assert tensor_bytes(model) == before

    same = uniform_rank_model(4, seed=5)
    write_archive_without(ckpt, "layer2.router.w_g")
    before = tensor_bytes(same)
    with pytest.raises(ConfigError):
        load_checkpoint(same, ckpt)
    assert tensor_bytes(same) == before

    # an otherwise valid archive marked with the per-head format 2
    save_checkpoint(donor, ckpt)
    manifest, flat = read_archive(ckpt)
    assert manifest["format"] == 4
    manifest["format"] = 2
    write_archive(ckpt, manifest, flat.tobytes())
    with pytest.raises(ConfigError):
        load_checkpoint(same, ckpt)
    assert tensor_bytes(same) == before

    # a format-3 archive: one .npy member per tensor, no table, no tensors member
    del manifest["tensors"]
    manifest["format"] = 3
    with open(os.path.join(ckpt, "checkpoint.npz"), "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(manifest)),
                 **{name: t.data for name, t in donor.named_tensors().items()})
    with pytest.raises(ConfigError, match="format 3"):
        load_checkpoint(same, ckpt)
    assert tensor_bytes(same) == before


@pytest.mark.parametrize("manifest", [None, "{not json", "[3]"], ids=["missing", "not-json", "not-object"])
def test_bad_manifest_rejected(tmp_path, manifest):
    # a broken manifest is a ConfigError, like every other rejected checkpoint
    donor = uniform_rank_model(4, seed=3)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(donor, ckpt)
    path = os.path.join(ckpt, "checkpoint.npz")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files if name != "manifest"}
    if manifest is not None:
        arrays["manifest"] = np.array(manifest)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    model = uniform_rank_model(4, seed=5)
    before = tensor_bytes(model)
    with pytest.raises(ConfigError):
        load_checkpoint(model, ckpt)
    assert tensor_bytes(model) == before


@pytest.mark.parametrize("damage", ["truncated", "empty", "bare-array"])
def test_unreadable_archive_rejected(tmp_path, damage):
    # np.load raises zipfile.BadZipFile for a cut archive and EOFError for an
    # empty one, and returns a plain array for a .npy file, which has no manifest
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(uniform_rank_model(4, seed=3), ckpt)
    path = os.path.join(ckpt, "checkpoint.npz")
    if damage == "bare-array":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    else:
        os.truncate(path, os.path.getsize(path) // 2 if damage == "truncated" else 0)
    model = uniform_rank_model(4, seed=5)
    before = tensor_bytes(model)
    with pytest.raises(ConfigError):
        load_checkpoint(model, ckpt)
    assert tensor_bytes(model) == before


def test_checkpoint_archive_holds_a_manifest_and_one_tensor_stream(tmp_path):
    model = small_model(seed=19)
    for layer in model.moe_layers:
        layer.b_stack[...] = RNG.normal(size=layer.b_stack.shape)  # each B is a strided view
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    with zipfile.ZipFile(os.path.join(ckpt, "checkpoint.npz")) as zf:
        assert zf.namelist() == ["manifest.npy", "tensors.npy"]
    manifest, flat = read_archive(ckpt)
    tensors = model.named_tensors()
    assert manifest["format"] == 4
    assert manifest["tensors"] == [[name, list(t.shape)] for name, t in tensors.items()]
    assert flat.dtype == np.dtype("<f8") and flat.ndim == 1
    assert flat.tobytes() == b"".join(t.data.tobytes() for t in tensors.values())


def saved_archive(tmp_path):
    """A checkpoint of a rank-4 donor, its (manifest, flat) and a model to load into."""
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(uniform_rank_model(4, seed=3), ckpt)
    return ckpt, *read_archive(ckpt), uniform_rank_model(4, seed=5)


def assert_every_load_rejected(model, ckpt):
    before = tensor_bytes(model)
    with pytest.raises(ConfigError):
        load_checkpoint(model, ckpt)
    assert tensor_bytes(model) == before


@pytest.mark.parametrize("damage", ["short", "trailing", "header-length", "header-f4",
                                    "header-big-endian", "header-2d", "huge-table"])
def test_misshapen_tensors_member_rejected(tmp_path, damage):
    ckpt, manifest, flat, model = saved_archive(tmp_path)
    data, header = flat.tobytes(), dict(descr="<f8", fortran_order=False, shape=flat.shape)
    if damage == "huge-table":  # table and header agree on 2**40 more values than the member holds
        manifest["tensors"][0][1] = [2**40 + math.prod(manifest["tensors"][0][1])]
        header["shape"] = (flat.size + 2**40,)
    elif damage == "short":  # the header promises the table's total, the data stops one value early
        data = data[:-8]
    elif damage == "trailing":
        data += np.zeros(1).tobytes()
    elif damage == "header-length":
        data, header["shape"] = data + data[:8], (flat.size + 1,)
    elif damage == "header-f4":
        header["descr"] = "<f4"
    elif damage == "header-big-endian":
        data, header["descr"] = flat.astype(">f8").tobytes(), ">f8"
    else:
        header["shape"] = (flat.size, 1)
    write_archive(ckpt, manifest, data, header)
    assert_every_load_rejected(model, ckpt)


@pytest.mark.parametrize("table", [
    None, 3, [["backbone.wte"]], [[1, [32, 16]]], [["backbone.wte", [-32, 16]]],
    [["backbone.wte", [True, 16]]], [["backbone.wte", [32.0, 16]]], [["backbone.wte", None]],
    "duplicate",
], ids=["missing", "not-a-list", "no-shape", "int-name", "negative-dim", "bool-dim", "float-dim",
        "null-shape", "duplicate-name"])
def test_malformed_tensor_table_rejected(tmp_path, table):
    ckpt, manifest, flat, model = saved_archive(tmp_path)
    if table is None:
        del manifest["tensors"]
    elif table == "duplicate":
        manifest["tensors"][-1][0] = manifest["tensors"][0][0]
    elif isinstance(table, list):
        manifest["tensors"][:1] = table  # the first entry replaced, the rest kept
    else:
        manifest["tensors"] = table
    write_archive(ckpt, manifest, flat.tobytes())
    assert_every_load_rejected(model, ckpt)


def tensors_member(path):
    """(file bytes, tensors member's ZipInfo, offset of the member's first .npy byte)."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("tensors.npy")
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    name_len, extra_len = struct.unpack("<HH", raw[info.header_offset + 26:info.header_offset + 30])
    start = info.header_offset + 30 + name_len + extra_len
    assert raw[start:start + 8] == b"\x93NUMPY\x01\x00"
    return raw, info, start


@pytest.mark.parametrize("damage", ["deflated", "local-name", "local-signature", "cut-inside"])
def test_tensors_member_the_mapping_cannot_read_rejected(tmp_path, damage):
    ckpt, manifest, flat, model = saved_archive(tmp_path)
    path = os.path.join(ckpt, "checkpoint.npz")
    if damage == "deflated":  # a valid archive, but the loader reads only stored bytes
        write_archive(ckpt, manifest, flat.tobytes(), compression=zipfile.ZIP_DEFLATED)
    else:
        raw, info, start = tensors_member(path)
        if damage == "local-name":  # the local header names another member than the directory
            raw[info.header_offset + 30:info.header_offset + 37] = b"weights"
        elif damage == "local-signature":
            raw[info.header_offset + 3] ^= 0x01
        else:  # the directory survives, but the member's data stops halfway
            cd_offset = struct.unpack("<L", raw[-6:-2])[0]  # end record, no archive comment
            cut = start + info.file_size // 2
            raw = raw[:cut] + raw[cd_offset:]
            raw[-6:-2] = struct.pack("<L", cut)
        with open(path, "wb") as fh:
            fh.write(raw)
        with zipfile.ZipFile(path) as zf:  # the directory still parses
            assert zf.getinfo("tensors.npy").header_offset == info.header_offset
        if damage == "cut-inside":
            assert start + info.file_size > len(raw)
    assert_every_load_rejected(model, ckpt)


def test_rejected_loads_leave_a_later_load_bit_exact(tmp_path):
    # a rejection inside the mapped read must release the mapping, so the next load works
    def rank4(seed, **kw):
        return build_model(SMALL_CFG, build_plan(small_alloc(base_rank=4, specialist_ranks=(4,))),
                           seed=seed, **kw)

    donor = rank4(3)
    for t in donor.named_tensors().values():
        t.data[...] += RNG.normal(size=t.shape)
    model = rank4(5)
    before = tensor_bytes(model)
    rejected = [(uniform_rank_model(8, seed=3), ShapeError),
                (rank4(3, train_base_experts=True), ConfigError)]  # same shapes, other records
    for i, (other, error) in enumerate(rejected):
        save_checkpoint(other, str(tmp_path / f"bad{i}"))
        with pytest.raises(error):
            load_checkpoint(model, str(tmp_path / f"bad{i}"))
        assert tensor_bytes(model) == before
    save_checkpoint(donor, str(tmp_path / "good"))
    load_checkpoint(model, str(tmp_path / "good"))
    assert tensor_bytes(model) == tensor_bytes(donor)


def test_load_stages_no_copy_of_the_tensors(tmp_path):
    # tracemalloc sees numpy's buffers, so a staged copy of the tensors peaks at their size
    # or more; the mapped reader copies each tensor from the file straight into the model
    def wide(seed):
        return build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4, n_min=4, n_max=16)),
                           seed=seed)

    donor, model = wide(0), wide(1)
    assert [layer.num_experts for layer in model.moe_layers] == [4, 7, 10, 16]
    for t in donor.named_tensors().values():
        t.data[...] += 1.0
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(donor, ckpt)
    nbytes = sum(t.data.nbytes for t in model.named_tensors().values())
    tracemalloc.start()
    try:
        load_checkpoint(model, ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tensor_bytes(model) == tensor_bytes(donor)
    assert peak < 0.1 * nbytes, (peak, nbytes)


@pytest.mark.parametrize("where", ["first-tensor", "last-tensor"])
def test_corrupted_tensor_bytes_rejected(tmp_path, where):
    # a flipped bit still parses as a finite float; only the member's CRC shows it
    ckpt, _, _, model = saved_archive(tmp_path)
    path = os.path.join(ckpt, "checkpoint.npz")
    raw, info, start = tensors_member(path)  # start: the member's first .npy byte
    data = start + 10 + struct.unpack("<H", raw[start + 8:start + 10])[0]  # past the .npy header
    raw[data + 3 if where == "first-tensor" else start + info.file_size - 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(raw)
    with zipfile.ZipFile(path) as zf:
        assert zf.testzip() == "tensors.npy"  # the archive is intact but for the CRC
    assert_every_load_rejected(model, ckpt)


def test_expert_role_mismatch_rejected(tmp_path):
    # same names and shapes, different expert records: nothing may load
    def model(base, **kw):
        alloc = small_alloc(n_min=3, n_max=3, base_experts_per_layer=base)
        return build_model(SMALL_CFG, build_plan(alloc), seed=3, **kw)

    donor = model(1)
    for t in donor.named_tensors().values():
        t.data[...] += 1.0  # so a load that wrote anything would show
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(donor, ckpt)
    for other in (model(0), model(1, train_base_experts=True), build_model(SMALL_CFG, None, seed=3)):
        before = tensor_bytes(other)
        with pytest.raises(ConfigError):
            load_checkpoint(other, ckpt)
        assert tensor_bytes(other) == before


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = small_model(seed=19)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    first = tensor_bytes(model)
    for t in model.named_tensors().values():
        t.data[...] += 1.0

    # the tensors member fails after its header and two tensors have been streamed
    written = []
    real_open = zipfile.ZipFile.open

    def open_with_failing_tensors(self, name, mode="r", **kw):
        fh = real_open(self, name, mode, **kw)
        if name == "tensors.npy" and mode == "w":
            real_write = fh.write

            def write(data):
                if len(written) == 3:
                    raise OSError("disk full")
                written.append(real_write(data))
                return written[-1]

            fh.write = write
        return fh

    monkeypatch.setattr(zipfile.ZipFile, "open", open_with_failing_tensors)
    with pytest.raises(OSError):
        save_checkpoint(model, ckpt)
    monkeypatch.undo()
    assert len(written) == 3 and all(written)
    assert os.listdir(ckpt) == ["checkpoint.npz"]
    clone = small_model(seed=999)
    load_checkpoint(clone, ckpt)
    assert tensor_bytes(clone) == first


def test_checkpoint_hash_mismatch_rejected(tmp_path):
    model = small_model(seed=19)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt, config_hash="abc123")
    with pytest.raises(ConfigError):
        load_checkpoint(small_model(seed=19), ckpt, expect_hash="zzz")


def test_backbone_state_round_trip_and_partial_load(tmp_path):
    donor = build_model(SMALL_CFG, None, seed=23, trainable_backbone=True)
    state = backbone_state(donor)
    model = small_model(seed=41)
    restore_backbone_state(model, state)
    toks = rand_tokens()
    donor.set_backbone_trainable(False)
    ref, _ = donor.forward(toks)
    out, _ = model.forward(toks)  # adapters are zero-init, so outputs match donor
    assert np.array_equal(ref.data, out.data)

    # from a file: the bare donor's checkpoint loads into a bare model, then the plan attaches
    ckpt = str(tmp_path / "bb")
    save_checkpoint(donor, ckpt)
    model2 = build_model(SMALL_CFG, None, seed=77)
    load_checkpoint(model2, ckpt)
    attach_plan(model2, build_plan(small_alloc()), seed=77)
    out2, _ = model2.forward(toks)
    assert np.array_equal(ref.data, out2.data)

    # the bare checkpoint lacks every adapter tensor, so an adapted model rejects it whole
    model3 = small_model(seed=77)
    before = tensor_bytes(model3)
    with pytest.raises(ConfigError, match="missing tensor"):
        load_checkpoint(model3, ckpt)
    assert tensor_bytes(model3) == before

    # a missing base matrix is an error, not a silent skip, and loads nothing
    write_archive_without(ckpt, "layer2.w0")
    model4 = build_model(SMALL_CFG, None, seed=77)
    before = tensor_bytes(model4)
    with pytest.raises(ConfigError, match="layer2.w0"):
        load_checkpoint(model4, ckpt)
    assert tensor_bytes(model4) == before


def test_restore_backbone_state_checks_everything_before_writing():
    model = small_model(seed=41)
    before = tensor_bytes(model)
    state = backbone_state(small_model(seed=23))
    assert list(state)[-1] == "backbone.head"
    state["backbone.head"] = state["backbone.head"][:, :-1]  # only the last entry is bad
    with pytest.raises(ShapeError):
        restore_backbone_state(model, state)
    assert tensor_bytes(model) == before
    del state["backbone.head"]
    with pytest.raises(ConfigError):
        restore_backbone_state(model, state)
    assert tensor_bytes(model) == before


def test_restore_backbone_state_rejects_non_array_values():
    model = small_model(seed=41)
    before = tensor_bytes(model)
    state = backbone_state(small_model(seed=23))
    listed = {name: arr.tolist() for name, arr in state.items()}
    with pytest.raises(ConfigError, match="backbone.wte"):
        restore_backbone_state(model, listed)
    assert tensor_bytes(model) == before
    head = state["backbone.head"]
    # right shape, wrong dtype: writing one could fail after other tensors were written, or write NaN
    for bad in (head.tolist(), np.full(head.shape, "x"), head + 1j, np.full(head.shape, None)):
        state["backbone.head"] = bad  # only the last entry is bad
        with pytest.raises(ConfigError, match="backbone.head"):
            restore_backbone_state(model, state)
        assert tensor_bytes(model) == before


# -- attach validation -----------------------------------------------------------------------


def test_attach_requires_frozen_backbone():
    plan = build_plan(small_alloc())
    model = build_model(SMALL_CFG, None, seed=1, trainable_backbone=True)
    with pytest.raises(ConfigError):
        attach_plan(model, plan, seed=1)
    # the rejected call left the model as it was, still trainable
    assert all(layer.num_experts == 0 and layer.router is None for layer in model.moe_layers)
    assert all(t.requires_grad for t in model.backbone_tensors().values())

    # any trainable backbone tensor is refused, not only an adapted layer's w0
    model = build_model(SMALL_CFG, None, seed=1)
    model.wte.requires_grad = True
    with pytest.raises(ConfigError):
        attach_plan(model, plan, seed=1)
    assert model.moe_layers[0].num_experts == 0

    with pytest.raises(ConfigError):
        build_model(SMALL_CFG, plan, seed=1, trainable_backbone=True)

    # raw layer misuse is caught by the layer itself
    layer = MoeLoraLayer(Tensor(np.zeros((4, 4)), requires_grad=True), layer_index=1)
    with pytest.raises(ConfigError):
        layer.attach([ExpertSlot(ExpertRole.SPECIALIST, 2)], seed=0)


def test_attach_rejects_oversized_rank():
    cfg = BackboneConfig(num_layers=1, d_model=8, n_heads=2, d_ff=4,
                         vocab_size=16, max_seq_len=8)
    alloc = AllocationConfig(num_layers=1, n_min=1, n_max=1, gamma=1.0,
                             base_experts_per_layer=0, specialist_ranks=(8,))
    with pytest.raises(ConfigError):
        build_model(cfg, build_plan(alloc), seed=0)  # rank 8 > min(4, 8)


def test_rejected_attach_leaves_every_layer_bare():
    # layer 1 is valid; layer 2's last slot exceeds min(d_ff, d_model) = 16
    plan = AllocationPlan([[ExpertSlot(ExpertRole.SPECIALIST, 2)],
                           [ExpertSlot(ExpertRole.BASE, 2), ExpertSlot(ExpertRole.SPECIALIST, 17)]])
    model = build_model(SMALL_CFG, None, seed=0)
    with pytest.raises(ConfigError, match="layer 2"):
        attach_plan(model, plan, seed=0)
    assert [(layer.num_experts, layer.router) for layer in model.moe_layers] == [(0, None)] * 2


SPEC = ExpertRole.SPECIALIST


@pytest.mark.parametrize("slots, unfreeze", [
    ([], False),
    ([ExpertSlot(SPEC, 0)], False),
    ([ExpertSlot(SPEC, 2), ExpertSlot(SPEC, 17)], False),  # 17 > min(d_ff, d_model) = 16
    ([ExpertSlot(SPEC, 2.0)], False),
    ([ExpertSlot(SPEC, True)], False),
    ([ExpertSlot(SPEC, 2)], True),
    ([ExpertSlot("base", 2), ExpertSlot("specialist", 2)], False),  # save would fail on .value later
], ids=["empty", "rank0", "rank17", "float-rank", "bool-rank", "unfrozen-w0", "str-role"])
def test_rejected_attach_leaves_experts_router_and_stacks_untouched(slots, unfreeze):
    attached = small_model(seed=2).moe_layers[0]
    bare = build_model(SMALL_CFG, None, seed=2).moe_layers[0]
    for layer in (attached, bare):
        layer.w0.requires_grad = unfreeze
        before = (layer.experts, layer.router, layer.a_stack, layer.b_stack, layer.spread, layer.rows)
        saved = [None if arr is None else arr.tobytes() for arr in before[2:5]]
        with pytest.raises(ConfigError):
            layer.attach(slots, seed=0)
        after = (layer.experts, layer.router, layer.a_stack, layer.b_stack, layer.spread, layer.rows)
        assert all(now is then for now, then in zip(after, before))
        assert [None if arr is None else arr.tobytes() for arr in after[2:5]] == saved
    assert bare.experts == [] and bare.router is None and bare.a_stack is None
    if not unfreeze:  # attach_plan runs the same slot check on every layer before it attaches any
        plan = AllocationPlan([[ExpertSlot(SPEC, 2)], slots])
        with pytest.raises(ConfigError, match="layer 2"):
            build_model(SMALL_CFG, plan, seed=0)


def test_attach_draws_each_a_from_its_slot_seed_and_starts_b_at_zero():
    seed = 7
    plan = build_plan(small_alloc(n_max=4, specialist_ranks=(1, 3)))
    model = build_model(SMALL_CFG, plan, seed=seed)
    for layer, slots in zip(model.moe_layers, plan.per_layer):
        li = layer.layer_index
        assert [e.rank for e in layer.experts] == [slot.rank for slot in slots]
        assert not layer.b_stack.any()
        for i, (slot, rows) in enumerate(zip(slots, layer.rows)):
            rng = np.random.default_rng(derive_seed(seed, "expert", li, i))
            draw = rng.normal(0.0, 1.0 / np.sqrt(slot.rank), size=(slot.rank, layer.k_in))
            assert layer.a_stack[rows].tobytes() == draw.tobytes()
        rng = np.random.default_rng(derive_seed(seed, "router", li))
        draw = rng.normal(0.0, ROUTER_INIT_STD, size=(len(slots), layer.k_in))
        assert layer.router.w_g.data.tobytes() == draw.tobytes()
