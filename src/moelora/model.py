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
import mmap
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .allocation import AllocationPlan, ExpertSlot
from .errors import ConfigError, ShapeError
# lora_forward is unused here; perfbench/tracing.py wraps model.lora_forward, --trace 1 needs it
from .lora import ExpertRole, LoraExpert, lora_forward  # noqa: F401
from .routing import TAU_MIN, Router, topk_weights
from .tensor import (Tensor, causal_attention, linear, moe_lora, no_grad, rms_norm, take_rows,
                     tempered_softmax)
from .utils import check_int, derive_seed, is_real


# -- routing modes -----------------------------------------------------------


@dataclass(frozen=True)
class Soft:
    """Blend all experts with the learnable-temperature softmax."""


@dataclass(frozen=True)
class TopK:
    """Keep only the k strongest experts per token."""

    k: int

    def __post_init__(self):
        check_int("top-k", self.k, 1)


RoutingMode = Union[Soft, TopK]


def mode_to_str(mode: RoutingMode) -> str:
    return "soft" if isinstance(mode, Soft) else f"topk:{mode.k}"


# -- configs ------------------------------------------------------------------


@dataclass(frozen=True)
class BackboneConfig:
    num_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_size: int = 256
    max_seq_len: int = 32
    rmsnorm_eps: float = 1e-6

    def __post_init__(self):
        for name in ("num_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            check_int(name, getattr(self, name), 1)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        eps = self.rmsnorm_eps
        if not (is_real(eps) and math.isfinite(eps) and eps > 0):
            raise ConfigError(f"rmsnorm_eps must be a finite number > 0, got {eps!r}")


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
    """Frozen base weight plus the expert set and router that ``attach`` builds.

    Built bare (no experts) so the backbone can be pretrained; experts may
    only be attached once the base weight is frozen, after which it never
    receives gradient again. ``attach`` builds everything the layer computes
    with: the stacks ``a_stack`` [sum r x k_in] and ``b_stack`` [d_out x sum
    r], expert i with views ``a_stack[rows[i]]`` and ``b_stack[:, rows[i]]``
    as its ``a`` and ``b``, the spread [sum r x N] with expert i's alpha/rank
    in gate column i, and the router.
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

    def check_slots(self, slots: Sequence[ExpertSlot]) -> None:
        """ConfigError unless slots exist, each with an ExpertRole and an int rank in [1, min(w0.shape)]."""
        if len(slots) == 0:
            raise ConfigError(f"layer {self.layer_index} has no expert slots")
        for i, slot in enumerate(slots):
            if not isinstance(slot.role, ExpertRole):
                raise ConfigError(f"layer {self.layer_index} slot {i}: {slot.role!r} is not an ExpertRole")
            check_int(f"layer {self.layer_index} slot {i} rank", slot.rank, 1, min(self.w0.shape))

    def attach(self, slots: Sequence[ExpertSlot], seed: int, train_base_experts: bool = False) -> None:
        """Build one expert per slot, the stacks and spread they use, and the router.

        Expert i's A is drawn with std 1/sqrt(rank) from derive_seed(seed, "expert", layer, i)
        straight into its rows of the A stack, and the B stack starts at zero, so every delta
        starts at zero. Base experts are frozen unless ``train_base_experts``. The router is
        drawn from derive_seed(seed, "router", layer). A w0 that requires grad, or slots that
        ``check_slots`` rejects, raise ConfigError before anything changes.
        """
        if self.w0.requires_grad:
            raise ConfigError("freeze the base weight before attaching experts")
        self.check_slots(slots)
        ranks = [slot.rank for slot in slots]
        self.rows = [slice(end - r, end) for r, end in zip(ranks, itertools.accumulate(ranks))]
        self.a_stack = np.empty((self.rows[-1].stop, self.k_in))
        self.b_stack = np.zeros((self.d_out, self.rows[-1].stop))
        self.experts = []
        for i, (slot, r) in enumerate(zip(slots, self.rows)):
            trainable = slot.role is ExpertRole.SPECIALIST or train_base_experts
            a, b = Tensor([], trainable), Tensor([], trainable)
            a.data, b.data = self.a_stack[r], self.b_stack[:, r]  # Tensor() copies a strided view
            rng = np.random.default_rng(derive_seed(seed, "expert", self.layer_index, i))
            rng.standard_normal(out=a.data)
            a.data *= 1.0 / np.sqrt(slot.rank)  # bit for bit what normal(0, 1/sqrt(rank)) draws
            self.experts.append(LoraExpert(a, b, slot.role, trainable))
        self.spread = np.repeat(np.diag([e.scaling() for e in self.experts]), ranks, axis=0)
        self.router = Router(len(slots), self.k_in, derive_seed(seed, "router", self.layer_index))

    def gate_weights(self, x: Tensor, mode: RoutingMode) -> Tensor | None:
        """[tokens x experts] blend weights for this layer under ``mode``.

        None for a bare layer. A one-expert layer gets gates of exactly 1.0
        (softmax over one logit) and its router exactly zero gradient.
        """
        if self.router is None:
            return None
        s = linear(x, self.router.w_g)
        if isinstance(mode, Soft):
            return tempered_softmax(s, self.router.tau_param, TAU_MIN)
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
    """Attach every layer's slots of ``plan`` to a frozen backbone, all or nothing.

    Base experts are frozen unless ``train_base_experts`` is set. A plan with
    another layer count, a backbone tensor that still requires grad or slots
    that ``MoeLoraLayer.check_slots`` rejects raise ConfigError; every check
    runs before any layer is touched, so a rejected call leaves the model
    unchanged. The backbone is never frozen here, so the caller's
    ``requires_grad`` flags are left as they were.
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
    for layer, slots in zip(model.moe_layers, plan.per_layer):
        layer.check_slots(slots)
    for layer, slots in zip(model.moe_layers, plan.per_layer):
        layer.attach(slots, seed, train_base_experts)


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
    selection bound). A mode or a k that ``forward`` rejects raises
    ConfigError here too. Frozen experts count zero in both, as only the
    adapter population is audited here; everything else lands in ``frozen``.
    """
    if not isinstance(mode, (Soft, TopK)):
        raise ConfigError(f"unknown routing mode {mode!r}")
    trainable = 0
    active = 0
    frozen = sum(t.data.size for t in model.backbone_tensors().values())
    for layer in model.moe_layers:
        router_params = 0
        if layer.router is not None:
            router_params = layer.router.w_g.size + 1
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
            total += layer.router.w_g.size + 1
        for i in used[layer.layer_index]:
            e = layer.experts[i]
            if e.trainable:
                total += e.param_count()
    return total


# -- checkpoints ---------------------------------------------------------------------


CHECKPOINT_FILE = "checkpoint.npz"
MANIFEST_MEMBER, TENSORS_MEMBER = "manifest.npy", "tensors.npy"  # the archive's only two members
CHECKPOINT_FORMAT = 4  # bumped when the layout or tensor names change; 4 streams every tensor in one member


def _expert_records(model: ToyBackbone) -> list[dict]:
    """Manifest records (layer, slot, rank, role, alpha, trainable) of every expert."""
    return [
        {"layer": layer.layer_index, "slot": i, "rank": e.rank, "role": e.role.value, "alpha": e.alpha,
         "trainable": e.trainable}
        for layer in model.moe_layers
        for i, e in enumerate(layer.experts)
    ]


def save_checkpoint(model: ToyBackbone, path: str, config_hash: str = "") -> None:
    """Write the manifest and every named tensor to ``path/checkpoint.npz``.

    ``path`` is a directory. The archive holds two .npy members: ``manifest``, JSON whose
    ``tensors`` table lists [name, shape] in ``named_tensors()`` order, and ``tensors``, one 1-D
    <f8 array of every tensor's C-order values back to back, streamed one tensor at a time. It
    is written to a temporary file and moved into place, so the directory holds either the
    previous complete checkpoint or the new one, never a partial write.
    """
    os.makedirs(path, exist_ok=True)
    tensors = model.named_tensors()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config_hash": config_hash,
        "experts": _expert_records(model),
        "tensors": [[name, list(t.shape)] for name, t in tensors.items()],
    }
    header = dict(descr="<f8", fortran_order=False, shape=(sum(t.data.size for t in tensors.values()),))
    final = os.path.join(path, CHECKPOINT_FILE)
    tmp = final + ".tmp"
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            with zf.open(MANIFEST_MEMBER, "w") as fh:
                np.lib.format.write_array(fh, np.array(json.dumps(manifest, sort_keys=True)))
            with zf.open(TENSORS_MEMBER, "w", force_zip64=True) as fh:  # size not known up front
                np.lib.format.write_array_header_1_0(fh, header)
                for t in tensors.values():
                    fh.write(np.ascontiguousarray(t.data, "<f8"))  # copies only the strided B views
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _check_shapes(targets: dict[str, Tensor], shapes: Mapping[str, tuple], origin: str) -> None:
    """Check that ``shapes`` names every target at the target's shape.

    A missing name raises ConfigError and a wrong shape ShapeError, both before the caller
    writes anything.
    """
    for name, t in targets.items():
        if name not in shapes:
            raise ConfigError(f"{origin} is missing tensor {name!r}")
        if shapes[name] != t.shape:
            raise ShapeError(f"{origin} tensor {name} has shape {shapes[name]}, model expects {t.shape}")


def load_checkpoint(model: ToyBackbone, path: str, expect_hash: str | None = None) -> None:
    """Load every named tensor of a model built from the same config, all or nothing.

    The ``tensors`` member is read from a read-only mapping of the archive: its zip CRC is
    checked over the mapped bytes, and each tensor is copied once, straight from the mapping
    into the model, after every check has passed. The file must not be modified in place while
    it loads (``save_checkpoint`` always replaces it). An unreadable archive or manifest,
    another format, a hash mismatch (when ``expect_hash`` is given), a malformed table, a
    tensors member that is compressed, whose local header does not match the directory or whose
    data ends past the file, a tensors header other than 1-D <f8 of the table's length, short
    or trailing data, a bad CRC, a missing tensor or expert records (rank, role, alpha,
    trainable per layer and slot) that differ from the model's raise ConfigError, a wrong shape
    raises ShapeError; after any of them the model is unchanged. Keys of the manifest that are
    not checked are ignored.
    """
    targets = model.named_tensors()
    try:  # an empty, truncated, corrupted or non-archive file; a missing or non-JSON manifest
        with open(os.path.join(path, CHECKPOINT_FILE), "rb") as f, zipfile.ZipFile(f) as zf:
            with zf.open(MANIFEST_MEMBER) as fh:
                manifest = json.loads(str(np.lib.format.read_array(fh, allow_pickle=False)))
            if not isinstance(manifest, dict):
                raise ConfigError(f"checkpoint manifest is {type(manifest).__name__}, not a JSON object")
            if manifest.get("format") != CHECKPOINT_FORMAT:
                raise ConfigError(f"unsupported checkpoint format {manifest.get('format')!r}")
            if expect_hash is not None and manifest.get("config_hash") != expect_hash:
                raise ConfigError(f"checkpoint hash {manifest.get('config_hash')!r} != {expect_hash!r}")
            table = [(name, tuple(shape)) for name, shape in manifest["tensors"]]
            if len(dict(table)) != len(table) or not all(
                    isinstance(n, str) and all(type(d) is int and d >= 0 for d in s) for n, s in table):
                raise ConfigError("checkpoint tensor table is not unique [name, shape] pairs")
            total = sum(math.prod(s) for _, s in table)
            member, size = zf.getinfo(TENSORS_MEMBER), os.fstat(f.fileno()).st_size
            with mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:  # no view may outlive it
                at = member.header_offset  # local header: signature, 22 bytes, name and extra lengths
                n, extra = struct.unpack_from("<HH", mm, at + 26)
                start = at + 30 + n + extra
                end = start + member.compress_size
                if (mm[at:at + 4] != b"PK\x03\x04" or mm[at + 30:at + 30 + n] != TENSORS_MEMBER.encode()
                        or member.compress_type != zipfile.ZIP_STORED or end > size):
                    raise ConfigError("checkpoint tensors member is compressed, mislocated or cut short")
                if zlib.crc32(memoryview(mm)[start:end]) != member.CRC:
                    raise ConfigError("checkpoint tensors member fails its CRC check")
                mm.seek(start)
                header = (np.lib.format.read_magic(mm), *np.lib.format.read_array_header_1_0(mm))
                if header != ((1, 0), (total,), False, np.dtype("<f8")):
                    raise ConfigError(f"checkpoint tensors member is not 1-D <f8 of {total}: {header}")
                if end - mm.tell() != 8 * total:
                    raise ConfigError(f"checkpoint tensors hold {end - mm.tell()} bytes, the table {8 * total}")
                _check_shapes(targets, dict(table), "checkpoint")
                if manifest.get("experts") != _expert_records(model):
                    raise ConfigError("checkpoint expert records (layer, slot, rank, role, alpha, "
                                      "trainable) differ from the model's")
                at = mm.tell()
                for name, shape in table:  # each view is gone before the next, and before close
                    if name in targets:
                        targets[name].data[...] = np.frombuffer(mm, "<f8", math.prod(shape), at).reshape(shape)
                    at += 8 * math.prod(shape)
    except (ConfigError, ShapeError):
        raise
    except (EOFError, KeyError, TypeError, ValueError, struct.error, zipfile.BadZipFile) as e:
        raise ConfigError(f"checkpoint archive or its manifest is unreadable: {e}") from e


def backbone_state(model: ToyBackbone) -> dict[str, np.ndarray]:
    """In-memory copy of the frozen-path weights (for cross-arm reuse)."""
    return {name: t.data.copy() for name, t in model.backbone_tensors().items()}


def restore_backbone_state(model: ToyBackbone, state: dict[str, np.ndarray]) -> None:
    """Write a ``backbone_state`` copy back, all or nothing.

    Other names or a value that is not a float64 np.ndarray raise ConfigError
    and a wrong shape ShapeError; after any of them the model is unchanged.
    """
    tensors = model.backbone_tensors()
    if set(tensors) != set(state):
        raise ConfigError("backbone state does not match model structure")
    for name, arr in state.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64):
            raise ConfigError(f"backbone state tensor {name} is not a float64 np.ndarray")
    _check_shapes(tensors, {name: arr.shape for name, arr in state.items()}, "backbone state")
    for name, t in tensors.items():
        t.data[...] = state[name]
