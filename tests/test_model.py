"""Adapted model: zero-init equivalence, routing modes, audits, checkpoints."""

import json
import os

import numpy as np
import pytest

from moelora.allocation import (
    AllocationConfig,
    StepProfile,
    build_plan,
    plan_from_csv,
)
from moelora.errors import ConfigError, DomainError, ShapeError
from moelora.lora import ExpertRole, lora_delta_w, lora_init
from moelora.model import (
    BackboneConfig,
    MoeLoraLayer,
    Soft,
    TopK,
    attach_plan,
    backbone_state,
    build_model,
    count_params,
    freeze_report,
    load_backbone,
    load_checkpoint,
    measured_active_params,
    mode_to_str,
    parse_mode,
    restore_backbone_state,
    save_checkpoint,
)
from moelora.routing import Router
from moelora.tensor import Tensor, cross_entropy, finite_diff_grad, matmul, softmax
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


# -- mode parsing ----------------------------------------------------------------


def test_mode_parse_round_trip():
    assert parse_mode("soft") == Soft()
    assert parse_mode("topk:2") == TopK(2)
    assert mode_to_str(TopK(3)) == "topk:3"
    assert mode_to_str(Soft()) == "soft"
    with pytest.raises(ConfigError):
        parse_mode("topk")
    with pytest.raises(ConfigError):
        parse_mode("topk:x")
    with pytest.raises(ConfigError):
        parse_mode("base-only")


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
    e1 = lora_init(3, 3, 1, ExpertRole.BASE, seed=21)
    e2 = lora_init(3, 3, 2, ExpertRole.SPECIALIST, seed=22)
    e1.a.data[:] = [[1.0, -2.0, 0.5]]
    e1.b.data[:] = [[0.3], [1.0], [-0.7]]
    e2.a.data[:] = [[0.2, 0.0, -1.0], [1.5, 0.4, 0.9]]
    e2.b.data[:] = [[1.0, 0.1], [-0.2, 2.0], [0.0, -1.0]]
    router = Router(num_experts=2, k=3, seed=4)
    layer.attach([e1, e2], router)
    x = RNG.normal(size=(5, 3))
    # independent dense evaluation with materialized per-expert updates
    d1 = lora_delta_w(e1).data
    d2 = lora_delta_w(e2).data
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
    base = lora_init(d, k, 2, ExpertRole.BASE, seed=31, trainable=False)
    spec1 = lora_init(d, k, 1, ExpertRole.SPECIALIST, seed=32)
    spec2 = lora_init(d, k, 2, ExpertRole.SPECIALIST, seed=33)
    for e in (base, spec1, spec2):
        e.b.data[:] = RNG.normal(size=e.b.shape)
    router = Router(num_experts=3, k=k, seed=34)
    router.w_g.data[:] = RNG.normal(size=router.w_g.shape)
    layer.attach([base, spec1, spec2], router)
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


def test_train_step_tape_node_count():
    # structural guard: the stacked layer, the fused attention, linear's
    # untaped weight transpose and the one-node rms_norm keep a default step
    # at 124 tape nodes (159 with a six-op norm, 171 with a transpose node
    # per trainable weight, 276 with per-head attention)
    model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
    toks = [int(t) for t in np.random.default_rng(0).integers(0, 256, size=32)]
    logits, _ = model.forward(toks[:-1], Soft())
    loss = cross_entropy(logits, toks[1:])
    assert len(loss._toposort()) <= 124


@pytest.mark.parametrize("eps", [0.0, -1.0, float("inf"), float("nan")])
def test_backbone_config_rejects_bad_rmsnorm_eps(eps):
    # -1 gives NaN logits, 0 divides a zero row by zero, inf zeroes every normed row
    with pytest.raises(ConfigError):
        BackboneConfig(rmsnorm_eps=eps)


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


def test_causal_masking_blocks_future_tokens():
    model = small_model(seed=17)
    toks = rand_tokens(8)
    logits1, _ = model.forward(toks)
    toks2 = list(toks)
    toks2[-1] = (toks2[-1] + 1) % SMALL_CFG.vocab_size
    logits2, _ = model.forward(toks2)
    assert np.array_equal(logits1.data[:-1], logits2.data[:-1])
    assert not np.array_equal(logits1.data[-1], logits2.data[-1])


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


def test_frozen_base_expert_counts_zero_trainable():
    model = small_model(seed=2)
    pc = count_params(model)
    hand = 0
    for layer in model.moe_layers:
        hand += layer.router.num_experts * layer.router.k + 1
        hand += sum(e.param_count() for e in layer.experts if e.trainable)
    assert pc.trainable == hand


# -- freeze report -----------------------------------------------------------------------


def test_freeze_report_covers_all_tensors():
    model = small_model(seed=3)
    report = freeze_report(model)
    assert len(report) == len(model.named_tensors())
    by_kind = {}
    for name, frozen, kind in report:
        by_kind.setdefault(kind, []).append((name, frozen))
        if kind in ("backbone", "adapted_base_weight", "base_expert"):
            assert frozen, name
        if kind in ("router", "specialist_expert"):
            assert not frozen, name
    assert "adapted_base_weight" in by_kind
    assert "base_expert" in by_kind


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
    assert plan_from_csv(manifest["plan"]) == model.plan
    clone = small_model(seed=999)  # different seed: all weights differ before load
    load_checkpoint(clone, ckpt, expect_hash="abc123")
    out, _ = clone.forward(toks)
    assert np.array_equal(ref.data, out.data)


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


def write_archive_without(ckpt, drop):
    path = os.path.join(ckpt, "checkpoint.npz")
    with np.load(path, allow_pickle=False) as archive:
        kept = {name: archive[name] for name in archive.files if name != drop}
    assert len(kept) == len(archive.files) - 1
    with open(path, "wb") as fh:
        np.savez(fh, **kept)


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
    path = os.path.join(ckpt, "checkpoint.npz")
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    manifest = json.loads(str(arrays["manifest"]))
    assert manifest["format"] == 3
    manifest["format"] = 2
    arrays["manifest"] = np.array(json.dumps(manifest))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    for load in (load_checkpoint, load_backbone):
        with pytest.raises(ConfigError):
            load(same, ckpt)
        assert tensor_bytes(same) == before


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
    for other in (model(0), model(1, train_base_experts=True)):
        before = tensor_bytes(other)
        with pytest.raises(ConfigError):
            load_checkpoint(other, ckpt)
        assert tensor_bytes(other) == before
    bare = model(0)
    load_backbone(bare, ckpt)  # the frozen path does not depend on expert roles
    assert all(t.data.tobytes() == donor.backbone_tensors()[n].data.tobytes()
               for n, t in bare.backbone_tensors().items())


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    model = small_model(seed=19)
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(model, ckpt)
    first = tensor_bytes(model)
    for t in model.named_tensors().values():
        t.data[...] += 1.0

    def broken_savez(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", broken_savez)
    with pytest.raises(OSError):
        save_checkpoint(model, ckpt)
    monkeypatch.undo()
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
    donor.freeze_backbone()
    ref, _ = donor.forward(toks)
    out, _ = model.forward(toks)  # adapters are zero-init, so outputs match donor
    assert np.array_equal(ref.data, out.data)

    ckpt = str(tmp_path / "bb")
    save_checkpoint(donor, ckpt)
    model2 = small_model(seed=77)
    load_backbone(model2, ckpt)
    out2, _ = model2.forward(toks)
    assert np.array_equal(ref.data, out2.data)

    # a missing base matrix is an error, not a silent skip, and loads nothing
    write_archive_without(ckpt, "layer2.w0")
    model3 = small_model(seed=77)
    before = tensor_bytes(model3)
    with pytest.raises(ConfigError):
        load_backbone(model3, ckpt)
    assert tensor_bytes(model3) == before


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


# -- attach validation -----------------------------------------------------------------------


def test_attach_requires_frozen_backbone():
    plan = build_plan(small_alloc())
    model = build_model(SMALL_CFG, None, seed=1, trainable_backbone=True)
    with pytest.raises(ConfigError):
        attach_plan(model, plan, seed=1)
    # the rejected call left the model as it was, still trainable
    assert model.plan is None
    assert all(layer.num_experts == 0 and layer.router is None for layer in model.moe_layers)
    assert all(t.requires_grad for t in model.backbone_tensors().values())

    # any trainable backbone tensor is refused, not only an adapted layer's w0
    model = build_model(SMALL_CFG, None, seed=1)
    model.wte.requires_grad = True
    with pytest.raises(ConfigError):
        attach_plan(model, plan, seed=1)
    assert model.plan is None and model.moe_layers[0].num_experts == 0

    with pytest.raises(ConfigError):
        build_model(SMALL_CFG, plan, seed=1, trainable_backbone=True)

    # raw layer misuse is caught by the layer itself
    layer = MoeLoraLayer(Tensor(np.zeros((4, 4)), requires_grad=True), layer_index=1)
    with pytest.raises(ConfigError):
        layer.attach([], None)


def test_attach_rejects_oversized_rank():
    cfg = BackboneConfig(num_layers=1, d_model=8, n_heads=2, d_ff=4,
                         vocab_size=16, max_seq_len=8)
    alloc = AllocationConfig(num_layers=1, n_min=1, n_max=1, gamma=1.0,
                             base_experts_per_layer=0, specialist_ranks=(8,))
    with pytest.raises(ConfigError):
        build_model(cfg, build_plan(alloc), seed=0)  # rank 8 > min(4, 8)


def test_rejected_attach_leaves_every_layer_bare():
    # layer 1 is valid; layer 2's last slot exceeds min(d_ff, d_model) = 16
    plan = plan_from_csv("layer,slot,role,rank\n1,0,specialist,2\n"
                         "2,0,base,2\n2,1,specialist,17\n")
    model = build_model(SMALL_CFG, None, seed=0)
    with pytest.raises(ConfigError, match="layer 2"):
        attach_plan(model, plan, seed=0)
    assert model.plan is None
    assert [(layer.num_experts, layer.router) for layer in model.moe_layers] == [(0, None)] * 2
