"""Adapted toy transformer: frozen base weights composed with expert sets.

``attach_plan`` adapts each transformer block's FFN input projection with a
``MoeLoraLayer`` built from the plan's slots for that layer: the frozen weight
plus a list of low-rank experts and the router's two tensors, ``w_g`` and the
temperature parameter ``theta``. A block without one is bare: it applies the
frozen weight alone. With every expert delta at zero the adapted model
reproduces the bare backbone bit for bit, which anchors all equivalence tests.

Layer indices are 1-based to match allocation plans (``build_plan``'s list of
each layer's slots) and checkpoint names.
"""

from __future__ import annotations

import itertools
import json
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .allocation import ExpertRole, ExpertSlot
from .errors import ConfigError, DomainError, ShapeError
# lora_forward is unused here; perfbench/tracing.py wraps model.lora_forward, --trace 1 needs it
from .lora import SCALE, LoraExpert, lora_forward  # noqa: F401
from .routing import ROUTER_INIT_STD, THETA_INIT, load_balance_loss, topk_weights
from .tensor import (TAU_MIN, Tensor, causal_attention, linear, moe_lora, no_grad, rms_norm, take_rows,
                     tempered_softmax)
from .utils import check_int, config_digest, derive_seed


# -- routing modes -----------------------------------------------------------


@dataclass(frozen=True)
class Soft:
    """Blend all experts with the learnable-temperature softmax."""


@dataclass(frozen=True)
class TopK:
    """Keep only the k strongest experts per token."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_int("top-k", self.k, 1))


RoutingMode = Union[Soft, TopK]


# -- configs ------------------------------------------------------------------


@dataclass(frozen=True)
class BackboneConfig:
    num_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_size: int = 256
    max_seq_len: int = 32

    def __post_init__(self):
        # stored as plain ints, so numpy integers hash (config_digest) like Python ones
        for name in ("num_layers", "d_model", "n_heads", "d_ff", "vocab_size", "max_seq_len"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


# -- adapted layer --------------------------------------------------------------


class MoeLoraLayer:
    """Frozen base weight plus the experts and router built from its slots.

    The constructor builds everything the layer computes with: the stacks ``a_stack`` [sum r x k_in] and
    ``b_stack`` [d_out x sum r], expert i with views ``a_stack[rows[i]]`` and
    ``b_stack[:, rows[i]]`` as its ``a`` and ``b``, the spread [sum r x N]
    with ``SCALE`` in expert i's rows of gate column i, and the router:
    ``w_g`` [N x k_in] and the temperature parameter ``theta`` [1].
    """

    def __init__(self, w0: Tensor, layer_index: int, slots: Sequence[ExpertSlot], seed: int):
        """Build one expert per slot, the stacks and spread they use, and the router.

        Expert i's A is drawn with std 1/sqrt(rank) from derive_seed(seed, "expert", layer, i)
        straight into its rows of the A stack, and the B stack starts at zero, so every delta
        starts at zero. Specialists are trainable and base experts frozen; setting ``requires_grad``
        on both tensors of an expert changes that. The router's ``w_g`` is drawn with std
        ROUTER_INIT_STD from derive_seed(seed, "router", layer) and ``theta`` starts at THETA_INIT,
        so tau = 1. A w0 that is not a matrix raises ShapeError; a layer index that is not an int
        >= 1, a w0 that requires grad, slots that are not a non-empty list or tuple of ExpertSlots,
        or a slot without an ExpertRole or an int rank in [1, min(w0.shape)] raise ConfigError.
        """
        self.layer_index = layer_index = check_int("layer index", layer_index, 1)  # derive_seed hashes str(int)
        if w0.ndim != 2:
            raise ShapeError(f"base weight must be a matrix, got shape {w0.shape}")
        if w0.requires_grad:
            raise ConfigError("freeze the base weight before attaching experts")
        if not isinstance(slots, (list, tuple)) or len(slots) == 0:
            raise ConfigError(f"layer {layer_index} slots must be a non-empty list of ExpertSlot, got {slots!r}")
        for i, slot in enumerate(slots):
            if not (isinstance(slot, ExpertSlot) and isinstance(slot.role, ExpertRole)):
                raise ConfigError(f"layer {layer_index} slot {i}: {slot!r} is not an ExpertSlot with an ExpertRole")
            check_int(f"layer {layer_index} slot {i} rank", slot.rank, 1, min(w0.shape))
        self.w0 = w0
        ranks = [slot.rank for slot in slots]
        self.rows = [slice(end - r, end) for r, end in zip(ranks, itertools.accumulate(ranks))]
        self.a_stack = np.empty((self.rows[-1].stop, self.k_in))
        self.b_stack = np.zeros((w0.shape[0], self.rows[-1].stop))
        self.experts: list[LoraExpert] = []
        for i, (slot, r) in enumerate(zip(slots, self.rows)):
            trainable = slot.role is ExpertRole.SPECIALIST
            a, b = Tensor([], trainable), Tensor([], trainable)
            a.data, b.data = self.a_stack[r], self.b_stack[:, r]  # Tensor() copies a strided view
            rng = np.random.default_rng(derive_seed(seed, "expert", layer_index, i))
            rng.standard_normal(out=a.data)
            a.data *= 1.0 / np.sqrt(slot.rank)  # bit for bit what normal(0, 1/sqrt(rank)) draws
            self.experts.append(LoraExpert(a, b, slot.role))
        self.spread = np.repeat(np.eye(len(slots)) * SCALE, ranks, axis=0)
        rng = np.random.default_rng(derive_seed(seed, "router", layer_index))
        self.w_g = Tensor(rng.normal(0.0, ROUTER_INIT_STD, size=(len(slots), self.k_in)), requires_grad=True)
        self.theta = Tensor([THETA_INIT], requires_grad=True)

    @property
    def k_in(self) -> int:
        return self.w0.shape[1]

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    def gate_weights(self, x: Tensor, mode: RoutingMode) -> Tensor:
        """[tokens x experts] blend weights for this layer under ``mode``.

        A one-expert layer gets gates of exactly 1.0 (softmax over one logit)
        and its router exactly zero gradient.
        """
        s = linear(x, self.w_g)
        if isinstance(mode, Soft):
            return tempered_softmax(s, self.theta)
        if isinstance(mode, TopK):
            return topk_weights(s, mode.k)
        raise ConfigError(f"unknown routing mode {mode!r}")

    def forward(self, x: Tensor, mode: RoutingMode) -> tuple[Tensor, Tensor]:
        """h = W0 x + sum_i g_i(x) * expert_i(x) as one ``moe_lora`` op, and the gates G.

        ``x`` is [tokens x k_in], else the router's ``linear`` raises ShapeError. The op reads the
        stacks as they are; an expert whose gate column is all zero (every one, for zero tokens)
        is not its parent and, like W0, gets no gradient.
        """
        gates = self.gate_weights(x, mode)
        return moe_lora(x, self.w0, gates, self.a_stack, self.b_stack, self.spread,
                        [e.a for e in self.experts], [e.b for e in self.experts], self.rows), gates


# -- backbone --------------------------------------------------------------------


@dataclass
class TransformerBlock:
    wqkv: Tensor  # [3d x d]: query, key and value rows, each split by head
    attn_out: Tensor
    ffn_in: Tensor  # the base weight that ``moe``, once attached, adapts
    ffn_out: Tensor
    moe: MoeLoraLayer | None = None


class ToyBackbone:
    """Small causal transformer whose blocks each adapt their FFN input projection.

    Pre-norm blocks: x += attn(norm(x)); x += ffn(norm(x)); frozen output
    head. Every weight is built frozen; pretraining calls
    ``set_backbone_trainable(True)``. ``attach_plan`` gives each block a
    MoeLoraLayer on its FFN input projection as ``block.moe``; ``moe_layers``
    reads them back from the blocks and is empty until then.
    """

    def __init__(self, cfg: BackboneConfig, seed: int):
        self.cfg = cfg
        d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
        rng = np.random.default_rng(derive_seed(seed, "backbone"))

        def mat(rows, cols, std):
            return Tensor(rng.normal(0.0, std, size=(rows, cols)))

        self.wte = mat(v, d, 0.5)
        self.wpe = mat(cfg.max_seq_len, d, 0.5)
        self.blocks: list[TransformerBlock] = []
        proj_std = 1.0 / math.sqrt(d)
        for _ in range(cfg.num_layers):
            # drawn per head as (q, k, v), then grouped as all queries, keys, values
            qkv = rng.normal(0.0, proj_std, size=(cfg.n_heads, 3, d // cfg.n_heads, d))
            wqkv = Tensor(qkv.transpose(1, 0, 2, 3).reshape(3 * d, d))
            attn_out = mat(d, d, proj_std)
            ffn_in = mat(ff, d, proj_std)
            ffn_out = mat(d, ff, 1.0 / math.sqrt(ff))
            self.blocks.append(TransformerBlock(wqkv, attn_out, ffn_in, ffn_out))
        self.head = mat(v, d, proj_std)

    # -- structure ------------------------------------------------------------

    @property
    def moe_layers(self) -> list[MoeLoraLayer]:
        return [block.moe for block in self.blocks if block.moe is not None]

    def backbone_tensors(self) -> dict[str, Tensor]:
        """All frozen-path weights, including each layer's base matrix."""
        out: dict[str, Tensor] = {"backbone.wte": self.wte, "backbone.wpe": self.wpe}
        for li, block in enumerate(self.blocks, start=1):
            out[f"block{li}.attn.qkv"] = block.wqkv
            out[f"block{li}.attn.out"] = block.attn_out
            out[f"layer{li}.w0"] = block.ffn_in
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
            out[f"layer{li}.router.w_g"] = layer.w_g
            out[f"layer{li}.router.tau"] = layer.theta
        return out

    def named_tensors(self) -> dict[str, Tensor]:
        out = self.backbone_tensors()
        out.update(self.adapter_tensors())
        return out

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_tensors().items() if t.requires_grad]

    def set_backbone_trainable(self, flag: bool) -> None:
        """Set every backbone tensor's ``requires_grad`` to ``flag``, a bool (numpy's too), else ConfigError."""
        if not isinstance(flag, (bool, np.bool_)):
            raise ConfigError(f"backbone trainable flag must be a bool, got {flag!r}")
        for t in self.backbone_tensors().values():
            t.requires_grad = bool(flag)

    # -- forward ---------------------------------------------------------------

    def forward(self, tokens: Sequence[int], mode: RoutingMode = Soft()):
        """Causal forward over one token sequence.

        Returns (logits [T x vocab], gates) where gates lists
        (layer_index, [T x N] gate matrix) for each routed layer. A mode that is neither
        ``Soft`` nor ``TopK`` raises ConfigError, on a bare model too.
        """
        if not isinstance(mode, (Soft, TopK)):
            raise ConfigError(f"unknown routing mode {mode!r}")
        t = len(tokens)
        if t < 1 or t > self.cfg.max_seq_len:
            raise ShapeError(f"sequence length {t} outside [1, {self.cfg.max_seq_len}]")
        gates_sink: list[tuple[int, Tensor]] = []
        x = take_rows(self.wte, tokens) + take_rows(self.wpe, range(t))
        for li, block in enumerate(self.blocks, start=1):
            ctx = causal_attention(linear(rms_norm(x), block.wqkv), self.cfg.n_heads)
            x = linear(ctx, block.attn_out, x)
            if block.moe is None:
                u = linear(rms_norm(x), block.ffn_in)
            else:
                u, gates = block.moe.forward(rms_norm(x), mode)
                gates_sink.append((li, gates))
            x = linear(u.relu(), block.ffn_out, x)
        logits = linear(rms_norm(x), self.head)
        return logits, gates_sink


# -- assembly ----------------------------------------------------------------------


def attach_plan(model: ToyBackbone, plan: list[list[ExpertSlot]], seed: int) -> None:
    """Give every block a MoeLoraLayer built from its slots of ``plan``, all or nothing.

    A plan that is not a list or tuple of one entry per layer, a backbone tensor that still
    requires grad or slots (or a seed) that the ``MoeLoraLayer`` constructor rejects raise
    ConfigError; every layer is built before any block gets its layer, so a rejected call
    leaves the model unchanged. Each block's ``moe`` is the only place a layer is kept, so a
    second call replaces the layers. The backbone is never frozen here, so the caller's
    ``requires_grad`` flags are left as they were.
    """
    if not isinstance(plan, (list, tuple)) or len(plan) != model.cfg.num_layers:
        raise ConfigError(f"plan must list the slots of {model.cfg.num_layers} layers, got {plan!r:.80}")
    unfrozen = [n for n, t in model.backbone_tensors().items() if t.requires_grad]
    if unfrozen:
        raise ConfigError(
            f"freeze the backbone before attaching experts ({unfrozen[0]} requires grad)"
        )
    layers = [MoeLoraLayer(block.ffn_in, li, slots, seed)
              for li, (block, slots) in enumerate(zip(model.blocks, plan), start=1)]
    for block, layer in zip(model.blocks, layers):
        block.moe = layer


def build_model(cfg: BackboneConfig, plan: list[list[ExpertSlot]] | None, seed: int) -> ToyBackbone:
    """Frozen backbone plus (optionally) its adapters, deterministically seeded."""
    model = ToyBackbone(cfg, seed=seed)
    if plan is not None:
        attach_plan(model, plan, seed=seed)
    return model


# -- audits ------------------------------------------------------------------------


def _grad_size(*tensors: Tensor) -> int:
    """How many values of ``tensors`` require grad."""
    return sum(t.size for t in tensors if t.requires_grad)


def count_params(model: ToyBackbone, mode: RoutingMode = Soft()) -> dict[str, int]:
    """Parameter counts read from the ``requires_grad`` flags: ``trainable``, ``active``, ``frozen``.

    trainable: the values of every ``named_tensors()`` tensor that requires grad, the sizes of
    ``trainable_params()``. active: equal to trainable under soft merging; under top-k, trainable
    minus each routed layer's trainable expert sizes beyond its k largest, the most one token can
    reach: a bound per token that the rows of a batch may exceed together (``run_record``'s
    ``measured_active``). frozen: every other value of ``named_tensors()``. A mode or a k that
    ``forward`` rejects raises ConfigError here too.
    """
    if not isinstance(mode, (Soft, TopK)):
        raise ConfigError(f"unknown routing mode {mode!r}")
    tensors = model.named_tensors().values()
    trainable = active = _grad_size(*tensors)
    for layer in model.moe_layers:
        if isinstance(mode, TopK):
            check_int("top-k", mode.k, 1, layer.num_experts)
            active -= sum(sorted((_grad_size(e.a, e.b) for e in layer.experts), reverse=True)[mode.k:])
    return {"trainable": trainable, "active": active, "frozen": sum(t.size for t in tensors) - trainable}


def run_record(model: ToyBackbone, gates: Sequence[tuple[int, Tensor]], mode: RoutingMode) -> dict:
    """One ``canonical_json``-ready record of how ``model`` routed ``gates`` under ``mode``.

    ``gates`` is the (layer_index, [tokens x N] gate matrix) list that ``forward`` returns, with
    rows for every routed layer; the rows of a layer listed more than once are stacked. Computed
    in numpy from ``.data`` (the load balance under no_grad), so it adds no tape node.
    ``measured_active`` is ``count_params``'s ``trainable`` minus the values that require grad of
    every expert with no non-zero gate in any row: a union over rows, so under top-k it can
    exceed the per-token ``active`` but never ``trainable``. Each layer's ``live_experts`` is the
    [min, max] count of non-zero gates per row. Gates that miss a routed layer or name another,
    or under ``TopK(k)`` hold a row of more than k non-zero gates, raise ConfigError, a gate that
    is not a 2-D Tensor as wide as its layer's expert count ShapeError, and a non-finite entry or
    a theta with no finite tau DomainError.
    """
    params = count_params(model, mode)  # rejects a bad mode first
    measured = params["trainable"]
    rows: dict[int, list[Tensor]] = {}
    for li, g in gates:
        rows.setdefault(li, []).append(g)
    if sorted(rows) != (want := [layer.layer_index for layer in model.moe_layers]):
        raise ConfigError(f"gates hold rows of layers {sorted(rows)}, the model routes layers {want}")
    layers = []
    for layer in model.moe_layers:
        li = layer.layer_index
        for g in rows[li]:
            if not isinstance(g, Tensor) or g.ndim != 2 or g.shape[1] != layer.num_experts:
                raise ShapeError(f"layer {li} gates must be [tokens x {layer.num_experts}] Tensors, got {g!r}")
        p = np.concatenate([g.data for g in rows[li]])
        theta = float(layer.theta.data[0])
        if not (np.isfinite(p).all() and theta < math.inf):  # NaN or +inf theta; logaddexp would warn
            raise DomainError(f"layer {li} has a non-finite gate entry or a theta ({theta}) with no finite tau")
        with no_grad():
            balance = load_balance_loss(Tensor(p)).item()  # DomainError on zero rows
        live = np.count_nonzero(p, axis=1)
        if isinstance(mode, TopK) and live.max() > mode.k:
            raise ConfigError(f"layer {li} has a row of {live.max()} non-zero gates, more than top-{mode.k} keeps")
        measured -= _grad_size(*[t for e, on in zip(layer.experts, p.any(axis=0)) if not on for t in (e.a, e.b)])
        layers.append({
            "layer": li, "ranks": [e.rank for e in layer.experts],
            "roles": [e.role.value for e in layer.experts], "mean_load": p.mean(axis=0).tolist(),
            "mean_entropy": float(-np.mean(np.sum(p * np.log(p, out=np.zeros_like(p), where=p > 0), axis=1))),
            "tau": float(np.logaddexp(0.0, theta)) + TAU_MIN,  # softplus(theta) + TAU_MIN
            "load_balance": balance, "live_experts": [int(live.min()), int(live.max())],
        })
    mode_name = "soft" if isinstance(mode, Soft) else f"topk:{mode.k}"
    params["measured_active"] = measured
    return {"config": config_digest(vars(model.cfg)), "mode": mode_name, "params": params, "layers": layers}


# -- checkpoints ---------------------------------------------------------------------


CHECKPOINT_FILE = "checkpoint.bin"
CHECKPOINT_FORMAT = 6  # bumped when the layout or tensor names change; 6 adds requires_grad to the table
MAGIC = b"MoELoRA" + bytes([CHECKPOINT_FORMAT])
# magic, manifest byte count, tensor byte count, CRC-32 of every byte of the file but this field
HEADER = struct.Struct("<8sQQI")


def _description(model: ToyBackbone, tensors: dict[str, Tensor]) -> dict:
    """What a file says of ``model``: each layer's ExpertRole ``roles`` and a [name, shape, requires_grad] row
    per entry of ``tensors``, which is ``model.named_tensors()``."""
    return {"roles": [[e.role.value for e in layer.experts] for layer in model.moe_layers],
            "tensors": [[name, list(t.shape), t.requires_grad] for name, t in tensors.items()]}


def _differs(got, want) -> bool:  # as JSON text, where 32.0 is not 32 and true is not 1
    return json.dumps(got) != json.dumps(want)


def save_checkpoint(model: ToyBackbone, path: str) -> None:
    """Write the manifest and every named tensor to ``path/checkpoint.bin``.

    ``path`` is a directory, made if missing; ConfigError if it cannot be made (a file is in the
    way, say). The file is ``HEADER``, the UTF-8 JSON manifest (``format``, the ``config_hash`` that
    binds it to the model's BackboneConfig, and ``_description``'s ``roles`` and ``tensors``) and
    every tensor's C-order <f8 values in table order, streamed through a running CRC; the header goes
    in last. The file is written to a temporary name and moved into place, so the directory holds
    the previous complete checkpoint or the new one, never a partial write.
    """
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:  # a file, or a path under one
        raise ConfigError(f"cannot write a checkpoint into {path}: {e}") from e
    tensors = model.named_tensors()
    manifest = {"format": CHECKPOINT_FORMAT, "config_hash": config_digest(vars(model.cfg)),
                **_description(model, tensors)}
    text = json.dumps(manifest, sort_keys=True).encode()
    lengths = len(text), 8 * sum(t.data.size for t in tensors.values())
    crc = zlib.crc32(text, zlib.crc32(HEADER.pack(MAGIC, *lengths, 0)[:-4]))
    final = os.path.join(path, CHECKPOINT_FILE)
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.seek(HEADER.size)
            fh.write(text)
            for t in tensors.values():
                fh.write(data := np.ascontiguousarray(t.data, "<f8"))  # copies only the strided B views
                crc = zlib.crc32(data, crc)
            fh.seek(0)
            fh.write(HEADER.pack(MAGIC, *lengths, crc))
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(model: ToyBackbone, path: str) -> None:
    """Load every named tensor of a model built from the same BackboneConfig, all or nothing.

    The file is read from a read-only mapping: its magic and header lengths are checked against
    the file size, then its CRC over the mapped bytes, then the manifest, and only then is each
    tensor copied once, straight from the mapping into the model. The file must not be modified
    in place while it loads (``save_checkpoint`` always replaces it). A missing or unreadable
    file (an error names a format-4 ``checkpoint.npz`` found instead), a bad magic (so any other
    format), lengths that do not add up to the file size, a bad CRC, a manifest that is not a UTF-8
    JSON object of this format with the model's ``config_hash``, ``roles`` and ``tensors`` that are
    not the model's ``_description`` as JSON text (so a ``32.0`` or ``true`` dimension or a flag of
    ``1`` differs) or a byte count other than the table's raise ConfigError, and a table that differs
    only in well-formed shapes ShapeError; the model is then unchanged. Other keys are ignored.

    A bare model (``build_model(cfg, None, seed)``) loads the frozen path alone from a bare
    model's file; ``attach_plan`` then adds the experts.
    """
    targets = model.named_tensors()
    file = os.path.join(path, CHECKPOINT_FILE)
    try:  # an empty, cut, corrupted or foreign file; a manifest that is not UTF-8 JSON
        with open(file, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            magic, n_manifest, n_tensors, crc = HEADER.unpack_from(mm)
            if magic != MAGIC or HEADER.size + n_manifest + n_tensors != len(mm):
                raise ConfigError(f"{file} is not format {CHECKPOINT_FORMAT}: magic {magic!r}, "
                                  f"{n_manifest} + {n_tensors} bytes after the header, {len(mm)} in the file")
            if zlib.crc32(memoryview(mm)[HEADER.size:], zlib.crc32(mm[:HEADER.size - 4])) != crc:
                raise ConfigError("checkpoint fails its CRC check")
            manifest = json.loads(mm[HEADER.size:HEADER.size + n_manifest].decode("utf-8"))
            if not isinstance(manifest, dict):
                raise ConfigError(f"checkpoint manifest is {type(manifest).__name__}, not a JSON object")
            if manifest.get("format") != CHECKPOINT_FORMAT:
                raise ConfigError(f"unsupported checkpoint format {manifest.get('format')!r}")
            if manifest.get("config_hash") != (digest := config_digest(vars(model.cfg))):
                raise ConfigError(f"checkpoint config digest {manifest.get('config_hash')!r} is not the "
                                  f"model's {digest!r}")
            want = _description(model, targets)
            got = {key: manifest.get(key) for key in want}
            if _differs(got, want):  # roles and every row's name, shape and flag, in one comparison
                pairs = itertools.zip_longest([got["roles"], *got["tensors"]], [want["roles"], *want["tensors"]])
                first = next(((g, w) for g, w in pairs if _differs(g, w)), (got, want))
                rows = [[n, w, g] for (n, _, g), (_, w, _) in zip(got["tensors"], want["tensors"])]
                shape_only = len(rows) == len(got["tensors"]) and not _differs(dict(got, tensors=rows), want) and all(
                    type(d) is int and d >= 0 for _, shape, _ in got["tensors"] for d in shape)  # no 32.0 or True
                raise (ShapeError if shape_only else ConfigError)(
                    f"checkpoint roles or [name, shape, requires_grad] rows differ from the model's: "
                    f"{first[0]} in the file, {first[1]} in the model")
            if (total := 8 * sum(t.size for t in targets.values())) != n_tensors:
                raise ConfigError(f"checkpoint tensors hold {n_tensors} bytes, the table {total}")
            at = HEADER.size + n_manifest
            for t in targets.values():  # each view is gone before the next, and before close
                t.data[...] = np.frombuffer(mm, "<f8", t.size, at).reshape(t.shape)
                at += 8 * t.size
    except (ConfigError, ShapeError):
        raise
    except OSError as e:  # missing, a directory or unreadable
        old = os.path.join(path, "checkpoint.npz")  # the file format 4 wrote
        hint = f"; {old} is format 4, which is no longer read" if os.path.isfile(old) else ""
        raise ConfigError(f"cannot read {file}: {e}{hint}") from e
    except (KeyError, TypeError, ValueError, struct.error) as e:
        raise ConfigError(f"checkpoint or its manifest is unreadable: {e}") from e
