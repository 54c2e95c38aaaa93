"""Adapted toy transformer: frozen base weights composed with expert sets.

Each transformer block wraps its FFN input projection in a
``MoeLoraLayer``: the frozen weight plus a list of low-rank experts and a
router. With every expert delta at zero the adapted model reproduces the
bare backbone bit for bit, which anchors all equivalence tests.

Layer indices are 1-based to match allocation plans and checkpoint names.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zipfile
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .allocation import AllocationPlan, plan_to_csv
from .errors import ConfigError, ShapeError
# lora_forward is unused here; perfbench/tracing.py wraps model.lora_forward, --trace 1 needs it
from .lora import ExpertRole, LoraExpert, expert_state, lora_forward, lora_init  # noqa: F401
from .routing import Router, gate_logits, soft_merge_weights, topk_weights
from .tensor import Tensor, causal_attention, linear, moe_lora, no_grad, rms_norm, take_rows
from .utils import derive_seed


# -- routing modes -----------------------------------------------------------


@dataclass(frozen=True)
class Soft:
    """Blend all experts with the learnable-temperature softmax."""


@dataclass(frozen=True)
class TopK:
    """Keep only the k strongest experts per token."""

    k: int


RoutingMode = Union[Soft, TopK]


def parse_mode(text: str) -> RoutingMode:
    t = text.strip().lower()
    if t == "soft":
        return Soft()
    if t.startswith("topk:"):
        try:
            return TopK(k=int(t.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad routing mode {text!r}; expected soft or topk:<k>") from exc
    raise ConfigError(f"bad routing mode {text!r}; expected soft or topk:<k>")


def mode_to_str(mode: RoutingMode) -> str:
    return "soft" if isinstance(mode, Soft) else f"topk:{mode.k}"


# -- configs ------------------------------------------------------------------


@dataclass
class BackboneConfig:
    num_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_size: int = 256
    max_seq_len: int = 32
    rmsnorm_eps: float = 1e-6

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        for name in ("num_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (math.isfinite(self.rmsnorm_eps) and self.rmsnorm_eps > 0):
            raise ConfigError(f"rmsnorm_eps must be finite and > 0, got {self.rmsnorm_eps}")


# -- adapted layer --------------------------------------------------------------


@dataclass
class ParamCount:
    trainable: int
    active: int
    frozen: int

    def __post_init__(self):
        if min(self.trainable, self.active, self.frozen) < 0:
            raise ConfigError("parameter counts must be nonnegative")
        if self.active > self.trainable:
            raise ConfigError(f"active {self.active} exceeds trainable {self.trainable}")


class MoeLoraLayer:
    """Frozen base weight plus its expert set and router.

    Built bare (no experts) so the backbone can be pretrained; experts may
    only be attached once the base weight is frozen, after which it never
    receives gradient again. ``attach`` builds the stacks ``a_stack`` [sum r
    x k_in] and ``b_stack`` [d_out x sum r], whose views ``a_stack[rows[i]]``
    and ``b_stack[:, rows[i]]`` become expert i's ``a`` and ``b``, and the
    spread [sum r x N] with expert i's alpha/rank in gate column i.
    """

    def __init__(self, w0: Tensor, layer_index: int):
        if w0.ndim != 2:
            raise ShapeError(f"base weight must be a matrix, got shape {w0.shape}")
        self.w0 = w0
        self.layer_index = layer_index
        self.experts: list[LoraExpert] = []
        self.router: Router | None = None
        self.a_stack = self.b_stack = self.spread = self.rows = None  # built by attach

    @property
    def d_out(self) -> int:
        return self.w0.shape[0]

    @property
    def k_in(self) -> int:
        return self.w0.shape[1]

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    def attach(self, experts: Sequence[LoraExpert], router: Router) -> None:
        """Build the stacks; an ``a`` not [r x k_in] or ``b`` not [d_out x r] raises ShapeError first."""
        if self.w0.requires_grad:
            raise ConfigError("freeze the base weight before attaching experts")
        experts = list(experts)
        for e in experts:
            r = e.a.shape[0] if e.a.ndim == 2 else 0
            if r < 1 or e.a.shape != (r, self.k_in) or e.b.shape != (self.d_out, r):
                raise ShapeError(f"expert a {e.a.shape}, b {e.b.shape} do not fit as "
                                 f"[r x {self.k_in}] and [{self.d_out} x r]")
        if router.num_experts != len(experts):
            raise ConfigError(f"router expects {router.num_experts} experts, layer has {len(experts)}")
        if router.k != self.k_in:
            raise ConfigError(f"router width {router.k} != layer input width {self.k_in}")
        ranks = [e.a.shape[0] for e in experts]
        self.rows = [slice(end - r, end) for r, end in zip(ranks, itertools.accumulate(ranks))]
        self.a_stack = np.concatenate([e.a.data for e in experts])
        self.b_stack = np.concatenate([e.b.data for e in experts], axis=1)
        self.spread = np.repeat(np.diag([e.scaling() for e in experts]), ranks, axis=0)
        for e, r in zip(experts, self.rows):
            e.a.data, e.b.data = self.a_stack[r], self.b_stack[:, r]
        self.experts = experts
        self.router = router

    def gate_weights(self, x: Tensor, mode: RoutingMode) -> Tensor | None:
        """[tokens x experts] blend weights for this layer under ``mode``.

        None for a bare layer. A one-expert layer gets gates of exactly 1.0
        (softmax over one logit) and its router exactly zero gradient.
        """
        if self.router is None:
            return None
        s = gate_logits(self.router, x)
        if isinstance(mode, Soft):
            return soft_merge_weights(s, self.router)
        if isinstance(mode, TopK):
            return topk_weights(s, mode.k)
        raise ConfigError(f"unknown routing mode {mode!r}")

    def forward(self, x: Tensor, mode: RoutingMode) -> tuple[Tensor, Tensor | None]:
        """h = W0 x + sum_i g_i(x) * expert_i(x) as one ``moe_lora`` op, and the gates G.

        G is None when no experts are attached. The op reads the layer's
        stacks as they are; only experts with a non-zero gate entry are its
        parents, so the others, like W0, get no gradient.
        """
        if x.ndim != 2 or x.shape[1] != self.k_in:
            raise ShapeError(f"layer input must be [tokens x {self.k_in}], got {x.shape}")
        gates = self.gate_weights(x, mode)
        live = [] if gates is None else np.flatnonzero(gates.data.any(axis=0)).tolist()
        if len(live) == 0:
            return linear(x, self.w0), gates  # no experts attached, or no token rows
        ex = [self.experts[i] for i in live]
        return moe_lora(x, self.w0, gates, self.a_stack, self.b_stack, self.spread, [e.a for e in ex],
                        [e.b for e in ex], [self.rows[i] for i in live]), gates


# -- backbone --------------------------------------------------------------------


@dataclass
class TransformerBlock:
    wqkv: Tensor  # [3d x d]: query, key and value rows, each split by head
    attn_out: Tensor
    ffn_in: MoeLoraLayer
    ffn_out: Tensor


class ToyBackbone:
    """Small causal transformer whose blocks each adapt their FFN input projection.

    Pre-norm blocks: x += attn(norm(x)); x += ffn(norm(x)); frozen output
    head. All weights are plain tensors except each block's [d_ff x d_model]
    FFN input projection, which lives inside a MoeLoraLayer.
    """

    def __init__(self, cfg: BackboneConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.plan: AllocationPlan | None = None
        d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
        rng = np.random.default_rng(derive_seed(seed, "backbone"))

        def mat(rows, cols, std):
            return Tensor(rng.normal(0.0, std, size=(rows, cols)), requires_grad=True)

        self.wte = mat(v, d, 0.5)
        self.wpe = mat(cfg.max_seq_len, d, 0.5)
        self.blocks: list[TransformerBlock] = []
        self.moe_layers: list[MoeLoraLayer] = []
        proj_std = 1.0 / math.sqrt(d)
        for li in range(1, cfg.num_layers + 1):
            # drawn per head as (q, k, v), then grouped as all queries, keys, values
            qkv = rng.normal(0.0, proj_std, size=(cfg.n_heads, 3, d // cfg.n_heads, d))
            wqkv = Tensor(qkv.transpose(1, 0, 2, 3).reshape(3 * d, d), requires_grad=True)
            attn_out = mat(d, d, proj_std)
            ffn_in = MoeLoraLayer(mat(ff, d, proj_std), layer_index=li)
            ffn_out = mat(d, ff, 1.0 / math.sqrt(ff))
            self.blocks.append(TransformerBlock(wqkv, attn_out, ffn_in, ffn_out))
            self.moe_layers.append(ffn_in)
        self.head = mat(v, d, proj_std)

    # -- structure ------------------------------------------------------------

    def backbone_tensors(self) -> dict[str, Tensor]:
        """All frozen-path weights, including each layer's base matrix."""
        out: dict[str, Tensor] = {"backbone.wte": self.wte, "backbone.wpe": self.wpe}
        for li, block in enumerate(self.blocks, start=1):
            out[f"block{li}.attn.qkv"] = block.wqkv
            out[f"block{li}.attn.out"] = block.attn_out
            out[f"layer{li}.w0"] = block.ffn_in.w0
            out[f"block{li}.ffn.w_out"] = block.ffn_out
        out["backbone.head"] = self.head
        return out

    def adapter_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for layer in self.moe_layers:
            li = layer.layer_index
            for i, e in enumerate(layer.experts):
                out[f"layer{li}.expert{i}.A"] = e.a
                out[f"layer{li}.expert{i}.B"] = e.b
            if layer.router is not None:
                out[f"layer{li}.router.w_g"] = layer.router.w_g
                out[f"layer{li}.router.tau"] = layer.router.tau_param
        return out

    def named_tensors(self) -> dict[str, Tensor]:
        out = self.backbone_tensors()
        out.update(self.adapter_tensors())
        return out

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_tensors().items() if t.requires_grad]

    def set_backbone_trainable(self, flag: bool) -> None:
        for t in self.backbone_tensors().values():
            t.requires_grad = flag

    def freeze_backbone(self) -> None:
        self.set_backbone_trainable(False)

    def taus(self) -> dict[int, float]:
        return {
            layer.layer_index: layer.router.tau()
            for layer in self.moe_layers
            if layer.router is not None
        }

    # -- forward ---------------------------------------------------------------

    def forward(self, tokens: Sequence[int], mode: RoutingMode = Soft()):
        """Causal forward over one token sequence.

        Returns (logits [T x vocab], gates) where gates lists
        (layer_index, [T x N] gate matrix) for each routed layer.
        """
        t = len(tokens)
        if t < 1 or t > self.cfg.max_seq_len:
            raise ShapeError(f"sequence length {t} outside [1, {self.cfg.max_seq_len}]")
        gates_sink: list[tuple[int, Tensor]] = []
        eps = self.cfg.rmsnorm_eps
        x = take_rows(self.wte, tokens) + take_rows(self.wpe, range(t))
        for li, block in enumerate(self.blocks, start=1):
            ctx = causal_attention(linear(rms_norm(x, eps), block.wqkv), self.cfg.n_heads)
            x = x + linear(ctx, block.attn_out)
            u, gates = block.ffn_in.forward(rms_norm(x, eps), mode)
            if gates is not None:
                gates_sink.append((li, gates))
            x = x + linear(u.relu(), block.ffn_out)
        logits = linear(rms_norm(x, eps), self.head)
        return logits, gates_sink


# -- assembly ----------------------------------------------------------------------


def attach_plan(
    model: ToyBackbone,
    plan: AllocationPlan,
    seed: int,
    train_base_experts: bool = False,
) -> None:
    """Instantiate the plan's experts and routers onto a frozen backbone.

    Base experts are frozen unless ``train_base_experts`` is set. Raises
    ConfigError if any backbone tensor still requires grad; the backbone is
    never frozen here, so the caller's ``requires_grad`` flags are left as
    they were. Every expert and router is built before any layer is touched,
    so a rejected call leaves the model unchanged.
    """
    if plan.num_layers != model.cfg.num_layers:
        raise ConfigError(
            f"plan has {plan.num_layers} layers, model has {model.cfg.num_layers}"
        )
    unfrozen = [n for n, t in model.backbone_tensors().items() if t.requires_grad]
    if unfrozen:
        raise ConfigError(
            f"freeze the backbone before attaching experts ({unfrozen[0]} requires grad)"
        )
    d_out, k_in = model.cfg.d_ff, model.cfg.d_model
    max_rank = min(d_out, k_in)
    built = []
    for layer, slots in zip(model.moe_layers, plan.per_layer):
        experts = []
        for slot_idx, slot in enumerate(slots):
            if slot.rank > max_rank:
                raise ConfigError(
                    f"rank {slot.rank} at layer {layer.layer_index} exceeds "
                    f"min(d_ff, d_model) = {max_rank}"
                )
            trainable = slot.role is ExpertRole.SPECIALIST or train_base_experts
            experts.append(
                lora_init(
                    d_out,
                    k_in,
                    slot.rank,
                    slot.role,
                    seed=derive_seed(seed, "expert", layer.layer_index, slot_idx),
                    trainable=trainable,
                )
            )
        router = Router(len(experts), k=k_in, seed=derive_seed(seed, "router", layer.layer_index))
        built.append((layer, experts, router))
    for layer, experts, router in built:
        layer.attach(experts, router)
    model.plan = plan


def build_model(
    cfg: BackboneConfig,
    plan: AllocationPlan | None,
    seed: int,
    train_base_experts: bool = False,
    trainable_backbone: bool = False,
) -> ToyBackbone:
    """Backbone plus (optionally) its adapters, deterministically seeded.

    The backbone is frozen before the plan is attached. ``trainable_backbone``
    applies only to a bare backbone (``plan=None``); combined with a plan it
    raises ConfigError before anything is built.
    """
    if plan is not None and trainable_backbone:
        raise ConfigError("backbone must stay frozen once experts are attached")
    model = ToyBackbone(cfg, seed=seed)
    model.set_backbone_trainable(trainable_backbone)
    if plan is not None:
        attach_plan(model, plan, seed=seed, train_base_experts=train_base_experts)
    return model


# -- audits ------------------------------------------------------------------------


def count_params(model: ToyBackbone, mode: RoutingMode = Soft()) -> ParamCount:
    """Closed-form parameter accounting.

    trainable: rank*(d+k) per trainable expert plus N*k + 1 per router.
    active: equal to trainable under soft merging; under top-k, router
    params plus the k largest per-layer trainable expert sizes (worst-case
    selection bound; a k that ``forward`` rejects raises ConfigError here too).
    Frozen experts count zero in both, as only the adapter population is
    audited here; everything else lands in ``frozen``.
    """
    trainable = 0
    active = 0
    frozen = sum(t.data.size for t in model.backbone_tensors().values())
    for layer in model.moe_layers:
        router_params = 0
        if layer.router is not None:
            router_params = layer.router.num_experts * layer.router.k + 1
            if isinstance(mode, TopK) and not 1 <= mode.k <= layer.num_experts:
                raise ConfigError(f"top-k must satisfy 1 <= k <= {layer.num_experts}, got {mode.k}")
        counted = [e.param_count() for e in layer.experts if e.trainable]
        frozen += sum(e.param_count() for e in layer.experts if not e.trainable)
        trainable += router_params + sum(counted)
        if isinstance(mode, TopK):
            counted = sorted(counted, reverse=True)[: mode.k]
        active += router_params + sum(counted)
    return ParamCount(trainable=trainable, active=active, frozen=frozen)


def measured_active_params(
    model: ToyBackbone, token_batches: Sequence[Sequence[int]], mode: RoutingMode
) -> int:
    """Exact adapter parameters touched by forwarding the given batch.

    Counts each router once and each trainable expert that receives a
    nonzero gate weight for at least one token.
    """
    used: dict[int, set[int]] = {layer.layer_index: set() for layer in model.moe_layers}
    with no_grad():
        for tokens in token_batches:
            _, gates = model.forward(tokens, mode)
            for layer_index, g in gates:
                hot = np.flatnonzero(np.any(g.data > 0, axis=0))
                used[layer_index].update(int(i) for i in hot)
    total = 0
    for layer in model.moe_layers:
        if layer.router is not None:
            total += layer.router.num_experts * layer.router.k + 1
        for i in used[layer.layer_index]:
            e = layer.experts[i]
            if e.trainable:
                total += e.param_count()
    return total


def freeze_report(model: ToyBackbone) -> list[tuple[str, bool, str]]:
    """(tensor name, frozen?, role) for every named tensor in the model."""
    rows = []
    for name, t in model.named_tensors().items():
        if ".expert" in name:
            li = int(name.split(".")[0].removeprefix("layer"))
            slot = int(name.split(".")[1].removeprefix("expert"))
            role = model.moe_layers[li - 1].experts[slot].role
            kind = "base_expert" if role is ExpertRole.BASE else "specialist_expert"
        elif ".router" in name:
            kind = "router"
        elif name.endswith(".w0"):
            kind = "adapted_base_weight"
        else:
            kind = "backbone"
        rows.append((name, not t.requires_grad, kind))
    return rows


# -- checkpoints ---------------------------------------------------------------------


CHECKPOINT_FILE = "checkpoint.npz"
MANIFEST_KEY = "manifest"  # tensor names all contain a dot, so this never collides
CHECKPOINT_FORMAT = 3  # bumped when tensor names change; 3 stores one block{i}.attn.qkv per block


def _expert_records(model: ToyBackbone) -> list[dict]:
    """Manifest records (layer, slot, rank, role, alpha, trainable) of every expert."""
    return [
        {"layer": layer.layer_index, "slot": i, **expert_state(e)}
        for layer in model.moe_layers
        for i, e in enumerate(layer.experts)
    ]


def save_checkpoint(model: ToyBackbone, path: str, config_hash: str = "") -> None:
    """Write every named tensor, the manifest and the plan to ``path/checkpoint.npz``.

    ``path`` is a directory. The archive is written to a temporary file and
    moved into place, so the directory holds either the previous complete
    checkpoint or the new one, never a partial write.
    """
    os.makedirs(path, exist_ok=True)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config_hash": config_hash,
        "plan": None if model.plan is None else plan_to_csv(model.plan),
        "experts": _expert_records(model),
    }
    arrays = {name: t.data for name, t in model.named_tensors().items()}
    arrays[MANIFEST_KEY] = np.array(json.dumps(manifest, sort_keys=True))
    final = os.path.join(path, CHECKPOINT_FILE)
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as fh:  # a file object, so savez does not append ".npz"
            np.savez(fh, **arrays)
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _stage(
    targets: dict[str, Tensor], source: Mapping[str, np.ndarray], origin: str
) -> dict[str, np.ndarray]:
    """``source[name]`` for every target name, after checking every name and shape.

    A missing name or a value that is not an np.ndarray raises ConfigError
    and a wrong shape ShapeError, all before the caller writes anything.
    """
    staged = {}
    for name, t in targets.items():
        if name not in source:
            raise ConfigError(f"{origin} is missing tensor {name!r}")
        staged[name] = source[name]
        if not isinstance(staged[name], np.ndarray):
            raise ConfigError(f"{origin} tensor {name} is {type(staged[name]).__name__}, not np.ndarray")
        if staged[name].shape != t.shape:
            raise ShapeError(
                f"{origin} tensor {name} has shape {staged[name].shape}, model expects {t.shape}"
            )
    return staged


def _load_tensors(
    targets: dict[str, Tensor],
    path: str,
    expect_hash: str | None,
    expect_experts: list[dict] | None,
) -> None:
    """Stage every target from the archive, validate all of them, then assign.

    Nothing is written into ``targets`` unless the format, the hash, every
    name, every shape and (when ``expect_experts`` is given) the manifest's
    expert records check out, so a rejected load leaves the model unchanged.
    """
    try:  # an empty, truncated or non-archive file or a bare array; no manifest, or not JSON
        archive = np.load(os.path.join(path, CHECKPOINT_FILE), allow_pickle=False)
        manifest = json.loads(str(archive[MANIFEST_KEY]))
    except (EOFError, IndexError, KeyError, ValueError, zipfile.BadZipFile) as e:
        raise ConfigError(f"checkpoint archive or its manifest is unreadable: {e}") from e
    with archive:
        if not isinstance(manifest, dict):
            raise ConfigError(f"checkpoint manifest is {type(manifest).__name__}, not a JSON object")
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {manifest.get('format')!r}")
        if expect_hash is not None and manifest.get("config_hash") != expect_hash:
            raise ConfigError(
                f"checkpoint hash {manifest.get('config_hash')!r} != expected {expect_hash!r}"
            )
        staged = _stage(targets, archive, "checkpoint")
    if expect_experts is not None and manifest.get("experts") != expect_experts:
        raise ConfigError(
            "checkpoint expert records (layer, slot, rank, role, alpha, trainable) "
            "differ from the model's"
        )
    for name, arr in staged.items():
        targets[name].data[...] = arr


def load_checkpoint(model: ToyBackbone, path: str, expect_hash: str | None = None) -> None:
    """Load every named tensor of a model built from the same config, all or nothing.

    A missing or unreadable manifest, another format, a hash mismatch (when
    ``expect_hash`` is given), a missing tensor or expert records (rank,
    role, alpha, trainable per layer and slot) that differ from the model's
    raise ConfigError, a wrong shape raises ShapeError; after any of them the
    model is unchanged.
    """
    _load_tensors(model.named_tensors(), path, expect_hash, _expert_records(model))


def load_backbone(model: ToyBackbone, path: str) -> None:
    """Restore only the frozen-path weights (backbone and each ``w0``), all or nothing.

    Adapter tensors in the archive are ignored; a missing or misshapen
    backbone tensor raises as in ``load_checkpoint`` and changes nothing.
    """
    _load_tensors(model.backbone_tensors(), path, None, None)


def backbone_state(model: ToyBackbone) -> dict[str, np.ndarray]:
    """In-memory copy of the frozen-path weights (for cross-arm reuse)."""
    return {name: t.data.copy() for name, t in model.backbone_tensors().items()}


def restore_backbone_state(model: ToyBackbone, state: dict[str, np.ndarray]) -> None:
    """Write a ``backbone_state`` copy back, all or nothing.

    Other names or a value that is not an np.ndarray raise ConfigError and a
    wrong shape ShapeError; after any of them the model is unchanged.
    """
    tensors = model.backbone_tensors()
    if set(tensors) != set(state):
        raise ConfigError("backbone state does not match model structure")
    for name, arr in _stage(tensors, state, "backbone state").items():
        tensors[name].data[...] = arr
