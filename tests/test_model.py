"""Adapted model: zero-init equivalence, routing modes, audits, checkpoints."""

import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from gradcheck import finite_diff_grad
from moelora.allocation import (
    AllocationConfig,
    ExpertRole,
    ExpertSlot,
    PowerLaw,
    StepProfile,
    build_plan,
)
from moelora.errors import ConfigError, DomainError, ShapeError
from moelora.lora import SCALE
from moelora.model import (
    BackboneConfig,
    MoeLoraLayer,
    Soft,
    TopK,
    attach_plan,
    build_model,
    count_params,
    load_checkpoint,
    run_record,
    save_checkpoint,
)
import moelora.model as model_mod
import moelora.tensor as tensor_mod
from moelora.routing import ROUTER_INIT_STD, THETA_INIT, topk_weights
from moelora.tensor import Tensor, cross_entropy, matmul, no_grad, softmax
from moelora.utils import canonical_json, config_digest, derive_seed

RNG = np.random.default_rng(1234)

SMALL_CFG = BackboneConfig(
    num_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=32, max_seq_len=12
)


def small_alloc(**kw):
    defaults = dict(num_layers=2, n_min=2, n_max=3, profile=PowerLaw(gamma=1.0),
                    base_experts_per_layer=1, base_rank=2, specialist_ranks=(2,))
    defaults.update(kw)
    return AllocationConfig(**defaults)


def small_model(seed=0):
    return build_model(SMALL_CFG, build_plan(small_alloc()), seed=seed)


def train_base_experts(model):
    """``model`` with the base experts trainable: both tensors of each require grad."""
    for layer in model.moe_layers:
        for e in layer.experts:
            if e.role is ExpertRole.BASE:
                e.a.requires_grad = e.b.requires_grad = True
    return model


def record(model, tokens, mode=Soft()):
    return run_record(model, model.forward(tokens, mode)[1], mode)


def rand_tokens(n=8, vocab=32, rng=RNG):
    return [int(t) for t in rng.integers(0, vocab, size=n)]


# -- run record ----------------------------------------------------------------


def test_run_record_mode():
    model = build_model(SMALL_CFG, build_plan(small_alloc(n_min=3, n_max=3)), seed=1)
    toks = rand_tokens()
    assert record(model, toks, TopK(3))["mode"] == "topk:3"
    assert record(model, toks, TopK(1))["mode"] == "topk:1"
    assert record(model, toks)["mode"] == "soft"
    _, gates = model.forward(toks)
    for mode in ("soft", TopK(4), None):  # what count_params and forward reject
        with pytest.raises(ConfigError):
            run_record(model, gates, mode)


def test_run_record_keys_and_types():
    model = small_model(seed=4)
    rec = record(model, rand_tokens())
    assert set(rec) == {"config", "mode", "params", "layers"}
    assert rec["config"] == config_digest(dataclasses.asdict(SMALL_CFG)) and rec["mode"] == "soft"
    assert set(rec["params"]) == {"trainable", "active", "frozen", "measured_active"}
    assert all(type(v) is int for v in rec["params"].values())
    assert [layer["layer"] for layer in rec["layers"]] == [1, 2]
    for entry, layer in zip(rec["layers"], model.moe_layers):
        assert set(entry) == {"layer", "ranks", "roles", "mean_load", "mean_entropy", "tau",
                              "load_balance", "live_experts"}
        n = layer.num_experts
        assert entry["ranks"] == [e.rank for e in layer.experts] and {type(r) for r in entry["ranks"]} == {int}
        assert entry["roles"] == ["base"] + ["specialist"] * (n - 1)
        assert len(entry["mean_load"]) == n and {type(v) for v in entry["mean_load"]} == {float}
        assert all(type(entry[k]) is float for k in ("mean_entropy", "tau", "load_balance"))
        assert entry["tau"] == 1.0 and layer.theta.data[0] == THETA_INIT
        assert entry["live_experts"] == [n, n] and {type(v) for v in entry["live_experts"]} == {int}
    assert json.loads(canonical_json(rec)) == rec


def test_run_record_is_byte_identical_across_seeded_runs_and_leaves_the_step_unchanged():
    def run(with_record):
        model = small_model(seed=6)
        for layer in model.moe_layers:
            layer.b_stack[...] = np.random.default_rng(layer.layer_index).normal(size=layer.b_stack.shape)
        toks = list(range(10))
        logits, gates = model.forward(toks, TopK(2))
        line = canonical_json(run_record(model, gates, TopK(2))) if with_record else None
        cross_entropy(logits, toks).backward()
        return line, [t.grad.tobytes() for _, t in model.trainable_params() if t.grad is not None]

    (first, grads), (second, _), (_, bare_grads) = run(True), run(True), run(False)
    assert first == second and len(first) > 100
    assert grads == bare_grads


@pytest.mark.parametrize("k", [1, 2])
def test_run_record_topk_shows_k_live_experts_per_token(k):
    # the default plan: 2, 3, 5 and 8 experts per layer
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=1)
    rec = record(model, rand_tokens(31, vocab=256, rng=np.random.default_rng(k)), TopK(k))
    assert [len(entry["ranks"]) for entry in rec["layers"]] == [2, 3, 5, 8]
    assert [entry["live_experts"] for entry in rec["layers"]] == [[k, k]] * 4
    assert rec["params"]["measured_active"] <= rec["params"]["trainable"]


def test_run_record_rejects_gates_that_miss_a_routed_layer():
    model = small_model(seed=2)
    _, gates = model.forward(rand_tokens())
    for bad in (gates[:1], gates + [(3, gates[0][1])], []):
        with pytest.raises(ConfigError):
            run_record(model, bad, Soft())
    # gates of another width than the layer's 2 and 3 experts, not 2-D, or not Tensors
    for bad in ([(li, Tensor(np.full((3, 2), 0.5))) for li, _ in gates],
                [(li, Tensor(g.data[0])) for li, g in gates], [(li, g.data) for li, g in gates]):
        with pytest.raises(ShapeError):
            run_record(model, bad, Soft())
    for value in (np.nan, np.inf):
        with pytest.raises(DomainError):
            run_record(model, [(li, Tensor(np.full(g.shape, value))) for li, g in gates], Soft())
    assert run_record(build_model(SMALL_CFG, None, seed=2), [], Soft())["layers"] == []


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
        layer.w_g.data[:] = RNG.normal(size=layer.w_g.shape)
    toks = rand_tokens()
    for mode in (Soft(), TopK(1)):
        for t in model.named_tensors().values():
            t.grad = None
        logits, gates = model.forward(toks, mode)
        cross_entropy(logits, toks).backward()
        assert len(gates) == 2 and all(np.all(g.data == 1.0) for _, g in gates)
        for layer in model.moe_layers:
            assert np.any(layer.experts[0].b.grad != 0)
            assert np.all(layer.w_g.grad == 0.0), mode
            tau_grad = layer.theta.grad  # top-k does not use tau
            assert tau_grad is None if isinstance(mode, TopK) else np.all(tau_grad == 0.0)


def test_forward_rejects_non_integer_tokens():
    model = small_model(seed=5)
    with pytest.raises(DomainError):
        model.forward([1.7, 2.2])  # not truncated to tokens 1 and 2
    with pytest.raises(DomainError):
        model.forward([True, 1])  # not read as token 1


# -- mixed-rank weighted sum vs dense oracle -------------------------------------------


def test_moe_forward_matches_dense_brute_force():
    w0 = Tensor(RNG.normal(size=(3, 3)))
    layer = MoeLoraLayer(w0, 1, [ExpertSlot(ExpertRole.BASE, 1), ExpertSlot(ExpertRole.SPECIALIST, 2)], seed=4)
    e1, e2 = layer.experts
    e1.a.data[...] = [[1.0, -2.0, 0.5]]
    e1.b.data[...] = [[0.3], [1.0], [-0.7]]
    e2.a.data[...] = [[0.2, 0.0, -1.0], [1.5, 0.4, 0.9]]
    e2.b.data[...] = [[1.0, 0.1], [-0.2, 2.0], [0.0, -1.0]]
    x = RNG.normal(size=(5, 3))
    # independent dense evaluation with materialized per-expert updates
    d1, d2 = [(e.b.data @ e.a.data) * SCALE for e in (e1, e2)]
    for mode in (Soft(), TopK(1), TopK(2)):
        out, gates = layer.forward(Tensor(x), mode)
        g = gates.data
        expect = x @ w0.data.T
        for t in range(5):
            expect[t] += g[t, 0] * (d1 @ x[t]) + g[t, 1] * (d2 @ x[t])
        assert np.max(np.abs(out.data - expect)) < 1e-12, mode


def test_a_zero_row_layer_input_gives_zero_row_output_and_gates():
    layer = small_model(seed=4).moe_layers[1]
    d_out, n = layer.w0.shape[0], layer.num_experts
    for mode in (Soft(), TopK(1)):
        out, gates = layer.forward(Tensor(np.zeros((0, layer.k_in))), mode)
        assert out.shape == (0, d_out) and gates.shape == (0, n), mode


def test_layer_forward_rejects_an_input_of_another_shape():
    layer = small_model(seed=4).moe_layers[0]
    for x in (np.zeros((3, layer.k_in + 1)), np.zeros(layer.k_in), np.zeros((1, 1, layer.k_in))):
        for mode in (Soft(), TopK(1)):
            with pytest.raises(ShapeError):
                layer.forward(Tensor(x), mode)


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
        assert layer.w_g.grad is not None
        assert layer.theta.grad is not None


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
    layer = MoeLoraLayer(Tensor(RNG.normal(size=(d, k))), 1, [ExpertSlot(ExpertRole.BASE, 2),
                         ExpertSlot(ExpertRole.SPECIALIST, 1), ExpertSlot(ExpertRole.SPECIALIST, 2)], seed=31)
    base, spec1, spec2 = layer.experts
    for e in (base, spec1, spec2):
        e.b.data[...] = RNG.normal(size=e.b.shape)
    layer.w_g.data[...] = RNG.normal(size=layer.w_g.shape)
    x = Tensor(RNG.normal(size=(6, k)))
    w = Tensor(RNG.normal(size=(6, d)))

    def loss():
        return (layer.forward(x, Soft())[0] * w).sum()

    loss().backward()
    assert base.a.grad is None and base.b.grad is None
    for t in (spec1.a, spec1.b, spec2.a, layer.w_g, layer.theta):
        numeric = finite_diff_grad(lambda _: loss().item(), t).data
        scale = max(np.max(np.abs(numeric)), 1e-8)
        assert np.max(np.abs(t.grad - numeric)) / scale < 1e-6


TINY_CFG = BackboneConfig(num_layers=2, d_model=4, n_heads=2, d_ff=8, vocab_size=8, max_seq_len=6)


@pytest.mark.parametrize("case", ["bare backbone", "soft", "topk:1"])
def test_whole_model_gradients_match_finite_diff(case, monkeypatch):
    # every trainable tensor, through embeddings, attention, rms_norm, each MoE layer, the head and the loss
    rng = np.random.default_rng(2026)  # a fixed draw: the top-k case asserts its selection margin below
    if case == "bare backbone":
        model = build_model(TINY_CFG, None, seed=5)
        model.set_backbone_trainable(True)
        assert [n for n, _ in model.trainable_params()] == list(model.named_tensors())
    else:
        model = train_base_experts(build_model(TINY_CFG, build_plan(small_alloc()), seed=5))
        assert [n for n, _ in model.trainable_params()] == list(model.adapter_tensors())
        for layer in model.moe_layers:
            layer.b_stack[...] = rng.normal(size=layer.b_stack.shape)
            layer.w_g.data[...] = rng.normal(size=layer.w_g.shape)
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
            assert np.all(layer.spread[r, i] == SCALE)
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
        spread[row:row + f.rank, i] = SCALE
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


def default_model():
    return build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)


def default_train_step(model):
    """Forward and cross-entropy of a default train-soft step (31 tokens, Soft routing)."""
    toks = [int(t) for t in np.random.default_rng(0).integers(0, 256, size=32)]
    logits, _ = model.forward(toks[:-1], Soft())
    return cross_entropy(logits, toks[1:])


def test_train_step_tape_node_count():
    # structural guard: the one-node moe_lora layer, the fused attention,
    # linear's untaped weight transpose and its in-place residual add, the
    # one-node rms_norm and the one-node soft gate keep a default step at 74
    # tape nodes (81 with a node per residual add, 108 with an eight-op expert
    # chain and concat, 124 with a five-op gate, 159 with a six-op norm, 171
    # with a transpose node per trainable weight, 276 with per-head attention)
    assert len(default_train_step(default_model())._toposort()) <= 74


def test_train_step_op_count(monkeypatch):
    # every op builds its output through tensor._result, which the benchmark's tracer wraps to
    # count ops: a default step builds 46, frozen ones included (54 with a node per residual add)
    model = default_model()
    real, ops = tensor_mod._result, []

    def counted(*args):
        ops.append(args)
        return real(*args)

    monkeypatch.setattr(tensor_mod, "_result", counted)
    default_train_step(model).backward()
    assert len(ops) == 46


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
    assert [len(slots) for slots in build_plan(alloc)] == [2, 3, 5, 8]
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


def test_base_experts_train_once_both_tensors_require_grad():
    for flag in (False, True):
        model = small_model(seed=11)
        if flag:
            train_base_experts(model)
        toks = rand_tokens()
        cross_entropy(model.forward(toks)[0], toks).backward()
        for layer in model.moe_layers:
            base = [e for e in layer.experts if e.role is ExpertRole.BASE]
            assert base and all(e.trainable is flag and e.a.requires_grad is flag for e in base)
            assert all((e.b.grad is not None and bool(np.any(e.b.grad != 0))) is flag for e in base)


# -- routing mode consistency ---------------------------------------------------------


def test_topk_full_equals_soft_at_unit_tau():
    # constant N, so TopK(N) is full routing at every layer
    model = build_model(SMALL_CFG, build_plan(small_alloc(n_min=3, n_max=3)), seed=13)
    for layer in model.moe_layers:
        assert layer.num_experts == 3
        for e in layer.experts:
            e.b.data[:] = RNG.normal(size=e.b.shape)
        assert layer.theta.data[0] == THETA_INIT  # tau = 1
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


@pytest.mark.parametrize("k", [2.0, True, 0, -1, np.float64(1.0), 1.5])
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
    # a NaN router row: top-k must not sort its logit last and leave the expert unselected
    layer.b_stack[5] = 0.0
    layer.w_g.data[2] = np.nan
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
        num_layers=1, n_min=1, n_max=1, base_experts_per_layer=0, specialist_ranks=(8,)))
    model = build_model(cfg, plan, seed=0)
    # expert 8 * (64 + 64), router 1 * 64 weights plus its temperature
    pc = count_params(model)
    assert pc["trainable"] == pc["active"] == 8 * 128 + 64 * 1 + 1 == 1089
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
                                 profile=PowerLaw(gamma=float(rng.uniform(1, 3))),
                                 base_experts_per_layer=base,
                                 base_rank=ranks[0], specialist_ranks=ranks[1:])
        model = build_model(cfg, build_plan(alloc), seed=trial)
        pc = count_params(model)
        # brute force: enumerate actual tensor elements by trainability
        trainable = sum(t.data.size for _, t in model.named_tensors().items() if t.requires_grad)
        frozen = sum(t.data.size for _, t in model.named_tensors().items() if not t.requires_grad)
        assert pc == {"trainable": trainable, "active": trainable, "frozen": frozen}  # soft mode


def test_count_params_topk_worst_case_and_measured():
    cfg = BackboneConfig(num_layers=2, d_model=16, n_heads=2, d_ff=16,
                         vocab_size=32, max_seq_len=12)
    alloc = AllocationConfig(num_layers=2, n_min=3, n_max=3, base_experts_per_layer=1,
                             base_rank=4, specialist_ranks=(4,))
    model = build_model(cfg, build_plan(alloc), seed=1)
    d, k = cfg.d_ff, cfg.d_model
    per_expert = 4 * (d + k)
    router = 3 * k + 1
    pc = count_params(model, TopK(2))
    # worst case: both selected experts are trainable specialists
    assert pc["trainable"] == 2 * (router + 2 * per_expert)
    assert pc["active"] == 2 * (router + 2 * per_expert)
    measured = record(model, rand_tokens(6), TopK(2))["params"]["measured_active"]
    assert measured <= pc["trainable"]
    assert measured >= 2 * router  # routers always touched
    assert (measured - 2 * router) % per_expert == 0  # whole experts only
    soft = record(model, rand_tokens(6))["params"]
    assert soft["measured_active"] == soft["active"] == count_params(model, Soft())["active"]
    # active is a bound per token; on the default plan (2, 3, 5 and 8 experts) ten tokens under
    # TopK(2) together select more experts than any one token can, so measured exceeds it
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
    params = record(model, list(range(10)), TopK(2))["params"]
    assert (params["active"], params["measured_active"], params["trainable"]) == (28804, 36484, 42628)


def test_count_params_rejects_k_that_forward_rejects():
    # the default plan has 2, 3, 5 and 8 experts, so top-k needs 1 <= k <= 2
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
    assert count_params(model, TopK(2))["active"] > 0
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
        hand += layer.w_g.data.size + 1
        hand += sum(e.a.size + e.b.size for e in layer.experts if e.trainable)
    assert pc["trainable"] == hand


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
        layer.theta.data[0] = 0.37
    toks = rand_tokens()
    ref, _ = model.forward(toks)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    assert os.listdir(ckpt) == ["checkpoint.bin"]
    manifest, _ = read_checkpoint(ckpt)
    assert manifest["config_hash"] == config_digest(dataclasses.asdict(SMALL_CFG))
    assert manifest.keys() == {"format", "config_hash", "experts", "tensors"}
    clone = small_model(seed=999)  # different seed: all weights differ before load
    load_checkpoint(clone, ckpt)
    out, _ = clone.forward(toks)
    assert np.array_equal(ref.data, out.data)


@pytest.mark.parametrize("alloc, digest", [
    ({}, "1c30e5f25cb0d102"),
    ({"n_min": 4, "n_max": 16}, "55cc97944bd948b8"),
], ids=["default", "n4-16"])
def test_checkpoint_bytes_are_pinned(alloc, digest, tmp_path):
    # every byte of the file: header, manifest, tensor names, order and values of a seed-0 model
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4, **alloc)), seed=0)
    save_checkpoint(model, str(tmp_path))
    assert hashlib.sha256((tmp_path / "checkpoint.bin").read_bytes()).hexdigest()[:16] == digest


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


HEADER = struct.Struct("<8sQQI")  # magic, manifest bytes, tensor bytes, CRC-32 of the rest of the file
MAGIC = b"MoELoRA\x05"


def read_checkpoint(ckpt):
    """(manifest, flat tensors array) of a saved checkpoint, after checking its header and CRC."""
    with open(os.path.join(ckpt, "checkpoint.bin"), "rb") as fh:
        raw = fh.read()
    magic, n_manifest, n_tensors, crc = HEADER.unpack_from(raw)
    assert magic == MAGIC and len(raw) == HEADER.size + n_manifest + n_tensors
    assert crc == zlib.crc32(raw[:HEADER.size - 4] + raw[HEADER.size:])
    manifest = json.loads(raw[HEADER.size:HEADER.size + n_manifest])
    return manifest, np.frombuffer(raw, "<f8", offset=HEADER.size + n_manifest)


def write_checkpoint(ckpt, manifest, data, lengths=None, header=HEADER):
    """checkpoint.bin of ``manifest`` (a dict, or the manifest's bytes) and raw ``data``, with a valid CRC.

    ``lengths`` replaces the header's (manifest, tensor) byte counts; ``header`` is its layout.
    """
    text = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
    lengths = lengths or (len(text), len(data))
    crc = zlib.crc32(text + data, zlib.crc32(header.pack(MAGIC, *lengths, 0)[:-4]))
    with open(os.path.join(ckpt, "checkpoint.bin"), "wb") as fh:
        fh.write(header.pack(MAGIC, *lengths, crc) + text + data)


def write_checkpoint_without(ckpt, drop):
    """Rewrite the checkpoint without table entry ``drop`` and without its values."""
    manifest, flat = read_checkpoint(ckpt)
    sizes = [math.prod(shape) for _, shape in manifest["tensors"]]
    i = [name for name, _ in manifest["tensors"]].index(drop)
    start = sum(sizes[:i])
    del manifest["tensors"][i]
    write_checkpoint(ckpt, manifest, np.delete(flat, np.s_[start:start + sizes[i]]).tobytes())


def flip_bit(ckpt, at):
    """Flip the lowest bit of byte ``at`` (negative: from the end) of checkpoint.bin."""
    path = os.path.join(ckpt, "checkpoint.bin")
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    raw[at] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(raw)


def saved_checkpoint(tmp_path):
    """A checkpoint of a rank-4 donor, its (manifest, flat) and a model to load into."""
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(uniform_rank_model(4, seed=3), ckpt)
    return ckpt, *read_checkpoint(ckpt), uniform_rank_model(4, seed=5)


def assert_every_load_rejected(model, ckpt, match=None):
    before = tensor_bytes(model)
    with pytest.raises(ConfigError, match=match):
        load_checkpoint(model, ckpt)
    assert tensor_bytes(model) == before


def test_manifest_with_a_plan_csv_still_loads_bit_exactly(tmp_path):
    # the previous writer of format 4 also stored the plan as CSV; the expert records carry
    # the same facts, so the key is ignored on load
    model = small_model(seed=19)
    for t in model.named_tensors().values():
        t.data[...] += RNG.normal(size=t.shape)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    manifest, flat = read_checkpoint(ckpt)
    manifest["plan"] = "layer,slot,role,rank\n" + "".join(
        f"{li},{i},{e.role.value},{e.rank}\n"
        for li, layer in enumerate(model.moe_layers, start=1) for i, e in enumerate(layer.experts))
    write_checkpoint(ckpt, manifest, flat.tobytes())
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
    # the file and match, the first expert does not
    model = uniform_rank_model(8, seed=5)
    before = tensor_bytes(model)
    assert before.keys() == tensor_bytes(donor).keys()
    with pytest.raises(ShapeError):
        load_checkpoint(model, ckpt)
    assert tensor_bytes(model) == before

    same = uniform_rank_model(4, seed=5)
    write_checkpoint_without(ckpt, "layer2.router.w_g")
    before = tensor_bytes(same)
    with pytest.raises(ConfigError):
        load_checkpoint(same, ckpt)
    assert tensor_bytes(same) == before

    # an otherwise valid file marked with the per-head format 2
    save_checkpoint(donor, ckpt)
    manifest, flat = read_checkpoint(ckpt)
    assert manifest["format"] == 5
    manifest["format"] = 2
    write_checkpoint(ckpt, manifest, flat.tobytes())
    with pytest.raises(ConfigError):
        load_checkpoint(same, ckpt)
    assert tensor_bytes(same) == before

    # a format-3 manifest: no table (format 3 stored one .npy member per tensor)
    del manifest["tensors"]
    manifest["format"] = 3
    write_checkpoint(ckpt, manifest, flat.tobytes())
    with pytest.raises(ConfigError, match="format 3"):
        load_checkpoint(same, ckpt)
    assert tensor_bytes(same) == before


@pytest.mark.parametrize("manifest", [b"", b"{not json", b"[3]", "utf-16"],
                         ids=["missing", "not-json", "not-object", "not-utf8"])
def test_bad_manifest_rejected(tmp_path, manifest):
    # a broken manifest is a ConfigError, like every other rejected checkpoint
    ckpt, good, flat, model = saved_checkpoint(tmp_path)
    if manifest == "utf-16":  # the saved manifest as valid JSON text, but not UTF-8
        manifest = json.dumps(good).encode("utf-16")
        assert json.loads(manifest) == good
    write_checkpoint(ckpt, manifest, flat.tobytes())
    assert_every_load_rejected(model, ckpt)


def write_format4(path, manifest, flat):
    """A format-4 archive: a zip of a JSON manifest .npy and one flat <f8 tensors .npy."""
    with open(path, "wb") as fh:
        np.savez(fh, manifest=np.array(json.dumps(dict(manifest, format=4))), tensors=flat)


@pytest.mark.parametrize("damage", ["truncated", "empty", "bare-array", "format-4", "cut-header"])
def test_unreadable_archive_rejected(tmp_path, damage):
    # a cut file fails the header's lengths, an empty one cannot be mapped, and a .npy file or a
    # format-4 zip under the checkpoint's name fails the magic
    ckpt, manifest, flat, model = saved_checkpoint(tmp_path)
    path = os.path.join(ckpt, "checkpoint.bin")
    if damage == "bare-array":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif damage == "format-4":
        write_format4(path, manifest, flat)
    else:
        cut = {"truncated": os.path.getsize(path) // 2, "empty": 0, "cut-header": HEADER.size - 1}
        os.truncate(path, cut[damage])
    assert_every_load_rejected(model, ckpt)


@pytest.mark.parametrize("damage", ["missing", "directory", "format-4-only"])
def test_missing_or_unreadable_checkpoint_file_rejected(tmp_path, damage):
    ckpt, manifest, flat, model = saved_checkpoint(tmp_path)
    path = os.path.join(ckpt, "checkpoint.bin")
    os.remove(path)
    if damage == "directory":
        os.mkdir(path)
    elif damage == "format-4-only":  # what format 4 wrote, with nothing else in the directory
        write_format4(os.path.join(ckpt, "checkpoint.npz"), manifest, flat)
    assert_every_load_rejected(model, ckpt, "format 4" if damage == "format-4-only" else "cannot read")


def test_checkpoint_file_is_header_manifest_and_tensor_bytes(tmp_path):
    model = small_model(seed=19)
    for layer in model.moe_layers:
        layer.b_stack[...] = RNG.normal(size=layer.b_stack.shape)  # each B is a strided view
    assert not model.moe_layers[0].experts[0].b.data.flags.c_contiguous
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    assert os.listdir(ckpt) == ["checkpoint.bin"]
    with open(os.path.join(ckpt, "checkpoint.bin"), "rb") as fh:
        raw = fh.read()
    tensors = model.named_tensors()
    magic, n_manifest, n_tensors, crc = struct.unpack_from("<8sQQI", raw)
    assert magic == b"MoELoRA\x05" and n_tensors == 8 * sum(t.data.size for t in tensors.values())
    assert len(raw) == 28 + n_manifest + n_tensors
    assert crc == zlib.crc32(raw[:24] + raw[28:])  # every byte but the CRC field
    manifest = json.loads(raw[28:28 + n_manifest].decode("utf-8"))
    assert manifest.keys() == {"format", "config_hash", "experts", "tensors"}
    assert manifest["format"] == 5 and manifest["config_hash"] == config_digest(dataclasses.asdict(SMALL_CFG))
    assert manifest["tensors"] == [[name, list(t.shape)] for name, t in tensors.items()]
    assert raw[28 + n_manifest:] == b"".join(t.data.astype("<f8").tobytes() for t in tensors.values())


@pytest.mark.parametrize("damage", ["short", "trailing", "header-length", "header-f4", "header-big-endian",
                                    "huge-table", "shift-to-manifest", "shift-to-tensors"])
def test_misshapen_tensors_member_rejected(tmp_path, damage):
    # every file here has a valid CRC, so only the lengths and the table can reject it
    ckpt, manifest, flat, model = saved_checkpoint(tmp_path)
    data, header, lengths = flat.tobytes(), HEADER, None
    text = json.dumps(manifest).encode()
    if damage == "huge-table":  # table and header agree on 2**40 more values than the file holds
        manifest["tensors"][0][1] = [2**40 + math.prod(manifest["tensors"][0][1])]
        text = json.dumps(manifest).encode()
        lengths = len(text), len(data) + 8 * 2**40
    elif damage in ("short", "trailing"):  # the header counts the table's bytes, the file one value less/more
        lengths, data = (len(text), len(data)), data[:-8] if damage == "short" else data + data[:8]
    elif damage == "header-length":  # header and data agree on one value more than the table
        data += data[:8]
    elif damage == "header-f4":  # the values as <f4, and the header counts their bytes
        data = flat.astype("<f4").tobytes()
    elif damage == "header-big-endian":
        header = struct.Struct(">8sQQI")
    else:  # 8 bytes move between manifest and tensors; the lengths still add up to the file size
        shift = 8 if damage == "shift-to-manifest" else -8
        lengths = len(text) + shift, len(data) - shift
    write_checkpoint(ckpt, text, data, lengths, header)
    assert_every_load_rejected(model, ckpt)


@pytest.mark.parametrize("table", [
    None, 3, [["backbone.wte"]], [[1, [32, 16]]], [["backbone.wte", [-32, 16]]],
    [["backbone.wte", [True, 16]]], [["backbone.wte", [32.0, 16]]], [["backbone.wte", None]],
    "duplicate",
], ids=["missing", "not-a-list", "no-shape", "int-name", "negative-dim", "bool-dim", "float-dim",
        "null-shape", "duplicate-name"])
def test_malformed_tensor_table_rejected(tmp_path, table):
    ckpt, manifest, flat, model = saved_checkpoint(tmp_path)
    if table is None:
        del manifest["tensors"]
    elif table == "duplicate":
        manifest["tensors"][-1][0] = manifest["tensors"][0][0]
    elif isinstance(table, list):
        manifest["tensors"][:1] = table  # the first entry replaced, the rest kept
    else:
        manifest["tensors"] = table
    write_checkpoint(ckpt, manifest, flat.tobytes())
    assert_every_load_rejected(model, ckpt)


@pytest.mark.parametrize("damage", ["deflated", "cut-inside"])
def test_tensors_member_the_mapping_cannot_read_rejected(tmp_path, damage):
    ckpt, manifest, flat, model = saved_checkpoint(tmp_path)
    if damage == "deflated":  # a valid header and CRC, but the loader reads only raw <f8 values
        write_checkpoint(ckpt, manifest, zlib.compress(flat.tobytes()))
    else:  # the header survives, but the data stops inside the first tensor
        path = os.path.join(ckpt, "checkpoint.bin")
        os.truncate(path, os.path.getsize(path) - 8 * flat.size + 4)
    assert_every_load_rejected(model, ckpt)


@pytest.mark.parametrize("at, error", [
    (3, "not format 5"), (8, "not format 5"), (16, "not format 5"), (24, "CRC"), (None, "CRC"),
], ids=["magic", "manifest-length", "tensor-length", "crc", "manifest-json"])
def test_flipped_bit_rejected(tmp_path, at, error):
    # the header's own checks catch a flipped magic or length bit; the CRC catches the rest
    ckpt, manifest, flat, model = saved_checkpoint(tmp_path)
    text = json.dumps(manifest, sort_keys=True)  # the saved manifest's bytes
    digest = manifest["config_hash"]
    flip_bit(ckpt, HEADER.size + text.index(f'"{digest}"') + 5 if at is None else at)
    if at is None:  # one character of the digest flips: still valid JSON, and the CRC runs first
        with open(os.path.join(ckpt, "checkpoint.bin"), "rb") as fh:
            flipped = json.loads(fh.read()[HEADER.size:HEADER.size + len(text)])["config_hash"]
        assert len(flipped) == len(digest) and sum(a != b for a, b in zip(flipped, digest)) == 1
    assert_every_load_rejected(model, ckpt, error)


def test_rejected_loads_leave_a_later_load_bit_exact(tmp_path):
    # a rejection inside the mapped read must release the mapping, so the next load works
    def rank4(seed):
        return build_model(SMALL_CFG, build_plan(small_alloc(base_rank=4, specialist_ranks=(4,))), seed=seed)

    donor = rank4(3)
    for t in donor.named_tensors().values():
        t.data[...] += RNG.normal(size=t.shape)
    model = rank4(5)
    before = tensor_bytes(model)
    rejected = [(uniform_rank_model(8, seed=3), ShapeError),
                (train_base_experts(rank4(3)), ConfigError)]  # same shapes, other records
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
    # a flipped bit still parses as a finite float; only the CRC shows it
    ckpt, _, flat, model = saved_checkpoint(tmp_path)
    flip_bit(ckpt, -8 * flat.size + 3 if where == "first-tensor" else -2)
    with open(os.path.join(ckpt, "checkpoint.bin"), "rb") as fh:
        flipped = np.frombuffer(fh.read()[-8 * flat.size:], "<f8")
    assert np.isfinite(flipped).all() and np.count_nonzero(flipped != flat) == 1
    assert_every_load_rejected(model, ckpt)


def test_expert_role_mismatch_rejected(tmp_path):
    # same names and shapes, different expert records: nothing may load
    def model(base):
        alloc = small_alloc(n_min=3, n_max=3, base_experts_per_layer=base)
        return build_model(SMALL_CFG, build_plan(alloc), seed=3)

    donor = model(1)
    for t in donor.named_tensors().values():
        t.data[...] += 1.0  # so a load that wrote anything would show
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(donor, ckpt)
    for other in (model(0), train_base_experts(model(1)), build_model(SMALL_CFG, None, seed=3)):
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

    # the disk fills after the manifest and two tensors have been streamed; the header, written
    # last, never is
    written = []

    class FailingFile(io.FileIO):
        def write(self, data):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(super().write(data))
            return written[-1]

    monkeypatch.setattr(model_mod, "open", FailingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, ckpt)
    monkeypatch.undo()
    assert len(written) == 3 and all(written)
    assert os.listdir(ckpt) == ["checkpoint.bin"]
    clone = small_model(seed=999)
    load_checkpoint(clone, ckpt)
    assert tensor_bytes(clone) == first

    # a regular file where the directory belongs: ConfigError from both, and the file is kept
    path = tmp_path / "file"
    path.write_bytes(b"keep")
    for call in (save_checkpoint, load_checkpoint):
        with pytest.raises(ConfigError):
            call(model, str(path))
    assert path.read_bytes() == b"keep"


def test_checkpoint_hash_mismatch_rejected(tmp_path):
    # same tensor names and shapes, other BackboneConfig: the manifest's config digest rejects it
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(build_model(BackboneConfig(), None, seed=19), ckpt)
    for cfg in (BackboneConfig(n_heads=8), BackboneConfig(rmsnorm_eps=1e-3)):
        assert_every_load_rejected(build_model(cfg, None, seed=19), ckpt, "config digest")
    # the previous writer stored an empty config_hash by default
    manifest, flat = read_checkpoint(ckpt)
    manifest["config_hash"] = ""
    write_checkpoint(ckpt, manifest, flat.tobytes())
    assert_every_load_rejected(build_model(BackboneConfig(), None, seed=19), ckpt, "config digest")


def test_numpy_integer_config_checkpoint_loads_into_a_python_integer_model(tmp_path):
    sizes = dict(num_layers=2, d_model=16, n_heads=2, d_ff=24, vocab_size=32, max_seq_len=12)
    np_cfg = BackboneConfig(**{name: np.int64(v) for name, v in sizes.items()}, rmsnorm_eps=np.float64(1e-6))
    assert np_cfg == SMALL_CFG and all(type(getattr(np_cfg, n)) is int for n in sizes)
    assert type(np_cfg.rmsnorm_eps) is float
    plan = build_plan(small_alloc())
    for src_cfg, dst_cfg in ((np_cfg, SMALL_CFG), (SMALL_CFG, np_cfg)):
        donor = build_model(src_cfg, plan, seed=3)
        for t in donor.named_tensors().values():
            t.data[...] += RNG.normal(size=t.shape)
        ckpt = str(tmp_path / f"ckpt-{src_cfg is np_cfg}")
        save_checkpoint(donor, ckpt)
        model = build_model(dst_cfg, plan, seed=5)
        load_checkpoint(model, ckpt)
        assert tensor_bytes(model) == tensor_bytes(donor)


def test_bare_backbone_file_round_trip_and_partial_load(tmp_path):
    # the frozen path moves through the file: the bare donor's checkpoint loads into a bare
    # model, then the plan attaches
    donor = build_model(SMALL_CFG, None, seed=23)
    toks = rand_tokens()
    ref, _ = donor.forward(toks)
    ckpt = str(tmp_path / "bb")
    save_checkpoint(donor, ckpt)
    model = build_model(SMALL_CFG, None, seed=77)
    load_checkpoint(model, ckpt)
    attach_plan(model, build_plan(small_alloc()), seed=77)
    out, _ = model.forward(toks)  # adapters are zero-init, so outputs match donor
    assert np.array_equal(ref.data, out.data)

    # the bare checkpoint lacks every adapter tensor, so an adapted model rejects it whole
    assert_every_load_rejected(small_model(seed=77), ckpt, "missing tensor")

    # so is a tensor the model does not have
    manifest, flat = read_checkpoint(ckpt)
    manifest["tensors"].append(["backbone.extra", [3]])
    write_checkpoint(ckpt, manifest, flat.tobytes() + np.ones(3).tobytes())
    assert_every_load_rejected(build_model(SMALL_CFG, None, seed=77), ckpt, "backbone.extra")

    # a missing base matrix is an error, not a silent skip, and loads nothing
    save_checkpoint(donor, ckpt)
    write_checkpoint_without(ckpt, "layer2.w0")
    assert_every_load_rejected(build_model(SMALL_CFG, None, seed=77), ckpt, "layer2.w0")


def test_expert_trainable_flag_follows_its_tensors(tmp_path):
    # LoraExpert.trainable reads requires_grad, so flipping both tensors moves every audit with it
    model = small_model(seed=3)
    toks = rand_tokens()
    before = count_params(model), record(model, toks)["params"]["measured_active"]
    layer = model.moe_layers[1]
    base = next(e for e in layer.experts if e.role is ExpertRole.BASE)
    assert not base.trainable
    base.a.requires_grad = base.b.requires_grad = True
    assert base.trainable
    pc = count_params(model)
    size = base.a.size + base.b.size
    assert pc["trainable"] == before[0]["trainable"] + size
    assert pc["frozen"] == before[0]["frozen"] - size
    assert record(model, toks)["params"]["measured_active"] == before[1] + size
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    records = read_checkpoint(ckpt)[0]["experts"]
    assert [r["trainable"] for r in records if r["layer"] == 2] == [e.trainable for e in layer.experts]
    assert next(r for r in records if r["layer"] == 2 and r["role"] == "base")["trainable"] is True
    # a model whose base experts are frozen, as the file says they are not, rejects it
    assert_every_load_rejected(small_model(seed=3), ckpt, "expert records")


def freeze_layer1_router(model):
    layer = model.moe_layers[0]
    layer.w_g.requires_grad = layer.theta.requires_grad = False


def train_layer1_base_b(model):
    model.moe_layers[0].experts[0].b.requires_grad = True


# the default seed-0 model trains 42628 values, 18052 active under TopK(1). Layer 1 holds a
# rank-16 base expert (b: 128 x 16 = 2048 values), a rank-8 specialist (8 * (64 + 128) = 1536)
# and a router of 2 * 64 + 1 = 129 values, so a trainable b adds 2048 and lifts layer 1's
# top-1 expert from 1536 to 2048; a frozen router takes 129 from both
@pytest.mark.parametrize("flip, trainable, top1", [
    (train_layer1_base_b, 44676, 18564),
    (freeze_layer1_router, 42499, 17923),
], ids=["base-b-trainable", "router-frozen"])
def test_counts_read_every_requires_grad_flag(flip, trainable, top1, tmp_path):
    # counts once read only an expert's a flag and took every router as trainable
    model = default_model()
    flip(model)
    total = sum(t.size for t in model.named_tensors().values())
    assert sum(t.size for _, t in model.trainable_params()) == trainable
    for mode in (Soft(), TopK(1), TopK(2)):
        pc = count_params(model, mode)
        assert (pc["trainable"], pc["frozen"]) == (trainable, total - trainable), mode
    assert count_params(model)["active"] == trainable and count_params(model, TopK(1))["active"] == top1
    toks = [int(t) for t in np.random.default_rng(0).integers(0, 256, size=31)]
    assert record(model, toks)["params"]["measured_active"] == trainable
    _, gates = model.forward(toks, TopK(1))
    reached = []  # each router, and both tensors of each expert some token selects
    for (_, g), layer in zip(gates, model.moe_layers):
        reached += [layer.w_g, layer.theta]
        reached += [t for e, on in zip(layer.experts, g.data.any(axis=0)) if on for t in (e.a, e.b)]
    measured = run_record(model, gates, TopK(1))["params"]["measured_active"]
    assert measured == sum(t.size for t in reached if t.requires_grad) <= trainable
    experts = [e for layer in model.moe_layers for e in layer.experts]
    assert experts[0].trainable is (flip is train_layer1_base_b)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    assert [r["trainable"] for r in read_checkpoint(ckpt)[0]["experts"]] == [e.trainable for e in experts]


def test_expert_with_only_b_trainable_round_trips(tmp_path):
    model = default_model()
    train_layer1_base_b(model)
    base = model.moe_layers[0].experts[0]
    base.b.data[...] = RNG.normal(size=base.b.shape)
    toks = [int(t) for t in np.random.default_rng(1).integers(0, 256, size=31)]
    ref, _ = model.forward(toks)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    clone = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=5)
    train_layer1_base_b(clone)
    load_checkpoint(clone, ckpt)
    assert tensor_bytes(clone) == tensor_bytes(model)
    assert np.array_equal(clone.forward(toks)[0].data, ref.data)
    assert count_params(clone) == count_params(model)
    # a model whose base expert is frozen, as the file says it is not, rejects it
    assert_every_load_rejected(default_model(), ckpt, "expert records")


def test_counts_include_an_unfrozen_backbone():
    # count_params once audited the adapters alone: 42628 trainable after the backbone was
    # unfrozen, while trainable_params() summed to 208516
    model = default_model()
    model.set_backbone_trainable(True)
    trainable = sum(t.size for _, t in model.trainable_params())
    backbone = sum(t.size for t in model.backbone_tensors().values())
    assert (trainable, trainable - backbone) == (208516, 42628)
    total = sum(t.size for t in model.named_tensors().values())
    for mode in (Soft(), TopK(1), TopK(2)):
        pc = count_params(model, mode)
        assert (pc["trainable"], pc["frozen"]) == (trainable, total - trainable), mode
    # the frozen-backbone pins (28804, 36484, 42628), each plus the backbone
    params = record(model, list(range(10)), TopK(2))["params"]
    assert (params["active"], params["measured_active"]) == (28804 + backbone, 36484 + backbone)
    assert record(model, list(range(10)))["params"]["measured_active"] == trainable


# -- attach validation -----------------------------------------------------------------------


SPEC = ExpertRole.SPECIALIST


def test_attach_requires_frozen_backbone():
    plan = build_plan(small_alloc())
    model = build_model(SMALL_CFG, None, seed=1)
    assert not any(t.requires_grad for t in model.backbone_tensors().values())  # built frozen
    model.set_backbone_trainable(True)  # as for pretraining
    with pytest.raises(ConfigError):
        attach_plan(model, plan, seed=1)
    # the rejected call left the model as it was, still trainable
    assert model.moe_layers == [] and all(block.moe is None for block in model.blocks)
    assert all(t.requires_grad for t in model.backbone_tensors().values())

    # any trainable backbone tensor is refused, not only an adapted layer's w0
    model = build_model(SMALL_CFG, None, seed=1)
    model.wte.requires_grad = True
    with pytest.raises(ConfigError):
        attach_plan(model, plan, seed=1)
    assert model.moe_layers == []

    # raw layer misuse is caught by the layer itself
    with pytest.raises(ConfigError):
        MoeLoraLayer(Tensor(np.zeros((4, 4)), requires_grad=True), 1, [ExpertSlot(SPEC, 2)], seed=0)
    with pytest.raises(ShapeError):
        MoeLoraLayer(Tensor(np.zeros(4)), 1, [ExpertSlot(SPEC, 2)], seed=0)


def test_attach_rejects_oversized_rank():
    cfg = BackboneConfig(num_layers=1, d_model=8, n_heads=2, d_ff=4,
                         vocab_size=16, max_seq_len=8)
    alloc = AllocationConfig(num_layers=1, n_min=1, n_max=1, base_experts_per_layer=0,
                             specialist_ranks=(8,))
    with pytest.raises(ConfigError):
        build_model(cfg, build_plan(alloc), seed=0)  # rank 8 > min(4, 8)


def test_rejected_attach_leaves_every_layer_bare():
    # layer 1 is valid; layer 2's last slot exceeds min(d_ff, d_model) = 16
    plan = [[ExpertSlot(ExpertRole.SPECIALIST, 2)],
            [ExpertSlot(ExpertRole.BASE, 2), ExpertSlot(ExpertRole.SPECIALIST, 17)]]
    model = build_model(SMALL_CFG, None, seed=0)
    assert model.moe_layers == []
    with pytest.raises(ConfigError, match="layer 2"):
        attach_plan(model, plan, seed=0)
    assert model.moe_layers == [] and [block.moe for block in model.blocks] == [None, None]
    # two layers that are no slot lists, and plans that are no lists (TypeErrors, an AttributeError)
    for plan, match in (([None, None], "layer 1 slots"), ("ab", "plan must list"), (5, "plan must list"),
                        (None, "plan must list"), (iter(plan), "plan must list")):
        with pytest.raises(ConfigError, match=match):
            attach_plan(model, plan, seed=0)
        assert model.moe_layers == [] and [block.moe for block in model.blocks] == [None, None]


@pytest.mark.parametrize("slots, unfreeze", [
    ([], False),
    ([ExpertSlot(SPEC, 0)], False),
    ([ExpertSlot(SPEC, 2), ExpertSlot(SPEC, 17)], False),  # 17 > min(d_ff, d_model) = 16
    ([ExpertSlot(SPEC, 2.0)], False),
    ([ExpertSlot(SPEC, True)], False),
    ([ExpertSlot(SPEC, 2)], True),
    ([ExpertSlot("base", 2), ExpertSlot("specialist", 2)], False),  # save would fail on .value later
    # a layer that is not a list or tuple of ExpertSlots raised TypeError or AttributeError
    (None, False),
    (5, False),
    ([(ExpertRole.BASE, 2), (SPEC, 2)], False),
    ("ab", False),
    ((ExpertSlot(SPEC, 2), None), False),
], ids=["empty", "rank0", "rank17", "float-rank", "bool-rank", "unfrozen-w0", "str-role", "none", "int",
        "tuple-slots", "str", "none-slot"])
def test_rejected_attach_leaves_experts_router_and_stacks_untouched(slots, unfreeze):
    with pytest.raises(ConfigError):
        MoeLoraLayer(Tensor(np.zeros((SMALL_CFG.d_ff, SMALL_CFG.d_model)), unfreeze), 2, slots, seed=0)
    # layer 1's slots are valid, layer 2's are the case's (or its w0 requires grad)
    plan = [[ExpertSlot(SPEC, 2)], slots if not unfreeze else [ExpertSlot(SPEC, 2)]]
    for model in (small_model(seed=2), build_model(SMALL_CFG, None, seed=2)):
        model.blocks[1].ffn_in.requires_grad = unfreeze
        layers, moes = list(model.moe_layers), [block.moe for block in model.blocks]
        saved = {n: t.data.tobytes() for n, t in model.named_tensors().items()}
        with pytest.raises(ConfigError, match="layer 2|layer2"):
            attach_plan(model, plan, seed=0)
        assert model.moe_layers == layers and all(block.moe is m for block, m in zip(model.blocks, moes))
        assert {n: t.data.tobytes() for n, t in model.named_tensors().items()} == saved
    if not unfreeze:
        with pytest.raises(ConfigError, match="layer 2"):
            build_model(SMALL_CFG, plan, seed=0)


def test_a_second_attach_plan_replaces_the_layers_with_a_fresh_build():
    model, fresh = small_model(seed=3), small_model(seed=3).named_tensors()
    old = model.moe_layers
    for layer in old:  # as after training
        layer.b_stack[...] = RNG.normal(size=layer.b_stack.shape)
        layer.theta.data[0] = 0.5
    attach_plan(model, build_plan(small_alloc()), seed=3)
    assert not any(new is was for new, was in zip(model.moe_layers, old))
    assert [block.moe for block in model.blocks] == model.moe_layers
    got = model.named_tensors()
    assert list(got) == list(fresh)
    assert all(got[n].data.tobytes() == fresh[n].data.tobytes() for n in got)
    assert [t.requires_grad for t in got.values()] == [t.requires_grad for t in fresh.values()]


def test_a_seed_that_is_not_an_integer_is_rejected_and_integer_streams_keep_their_values():
    # int(master) used to turn 1.9, True and "1" into the seed-1 model byte for byte
    plan = build_plan(small_alloc())
    for seed in (1.9, 1.0, True, np.float64(1.0), "1", None):
        with pytest.raises(ConfigError, match="seed"):
            build_model(SMALL_CFG, plan, seed)
        with pytest.raises(ConfigError, match="seed"):
            attach_plan(build_model(SMALL_CFG, None, 1), plan, seed)
    # values of the parent's derive_seed: every integer, numpy and negative ones too, keeps its stream
    assert derive_seed(0, "backbone") == 7465429650163292309
    assert derive_seed(np.int64(-3), "router", 2) == derive_seed(-3, "router", 2) == 4623563323309050511
    assert derive_seed(2**70, "expert", 1, 0) == 4449927779491334166
    a, b = small_model(seed=np.int32(1)).named_tensors(), small_model(seed=1).named_tensors()
    assert a.keys() == b.keys() and all(np.array_equal(a[k].data, b[k].data) for k in a)


def test_attach_draws_each_a_from_its_slot_seed_and_starts_b_at_zero():
    seed = 7
    plan = build_plan(small_alloc(n_max=4, specialist_ranks=(1, 3)))
    model = build_model(SMALL_CFG, plan, seed=seed)
    for layer, slots in zip(model.moe_layers, plan):
        li = layer.layer_index
        assert [e.rank for e in layer.experts] == [slot.rank for slot in slots]
        assert not layer.b_stack.any()
        for i, (slot, rows) in enumerate(zip(slots, layer.rows)):
            rng = np.random.default_rng(derive_seed(seed, "expert", li, i))
            draw = rng.normal(0.0, 1.0 / np.sqrt(slot.rank), size=(slot.rank, layer.k_in))
            assert layer.a_stack[rows].tobytes() == draw.tobytes()
        rng = np.random.default_rng(derive_seed(seed, "router", li))
        draw = rng.normal(0.0, ROUTER_INIT_STD, size=(len(slots), layer.k_in))
        assert layer.w_g.data.tobytes() == draw.tobytes() and layer.w_g.requires_grad
        assert layer.theta.data.tolist() == [THETA_INIT] and layer.theta.requires_grad
