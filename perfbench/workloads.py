"""Workload definitions and the closed-loop driver behind ``run.py``.

One caller issues each training step or inference request only after the
previous one returned. The seed chooses the token ids and nothing else: the
model weights come from a fixed seed, so runs with different seeds do the
same work on different inputs.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import moelora.allocation as allocation
import moelora.model as model_mod
from moelora.lora import snapshot_experts, experts_unchanged
from moelora.model import BackboneConfig, Soft, TopK
from moelora.tensor import cross_entropy, no_grad

import speed

MODEL_SEED = 0
LR = 0.01
POOL = 64  # distinct token sequences per run, cycled
MIN_OPS = 200  # at least 10 samples beyond p95
DIGEST_AT = MIN_OPS  # fixed op index, so runs of any length give comparable digests
COUNT_OPS = 50  # traced ops whose counts are averaged; fixed, so counts repeat exactly
SETUP_REPEATS = 25
BLOCK = 20  # operations per block when the traced and untraced runners alternate


@dataclass(frozen=True)
class Workload:
    name: str
    train: bool
    mode: object
    seq_len: int  # tokens per sequence; training uses seq_len - 1 inputs
    ckpt_every: int  # ops between checkpoint round trips
    alloc: dict = field(default_factory=dict)
    max_seq_len: int = 32

    def backbone_cfg(self) -> BackboneConfig:
        return BackboneConfig(max_seq_len=self.max_seq_len)

    def alloc_cfg(self) -> allocation.AllocationConfig:
        return allocation.AllocationConfig(num_layers=4, **self.alloc)

    def tokens_per_op(self) -> int:
        return self.seq_len - 1 if self.train else self.seq_len


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-soft", train=True, mode=Soft(), seq_len=32, ckpt_every=40),
        Workload("train-topk-wide", train=True, mode=TopK(2), seq_len=32, ckpt_every=30,
                 alloc=dict(n_min=4, n_max=16)),
        Workload("infer-long", train=False, mode=Soft(), seq_len=127, ckpt_every=25,
                 max_seq_len=128),
    )
}


def token_stream(wl: Workload, seed: int) -> list[list[int]]:
    """The ``POOL`` token sequences a run cycles through, fixed by ``seed``."""
    rng = np.random.default_rng([seed, wl.seq_len])
    vocab = wl.backbone_cfg().vocab_size
    return [rng.integers(0, vocab, size=wl.seq_len).tolist() for _ in range(POOL)]


class Checks:
    """Counts attempted and failed checks and operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def setup(wl: Workload):
    """Build plan and model ``SETUP_REPEATS`` times, probing machine speed after each.

    Returns the plan, the last model, each set-up time and each probe.
    """
    alloc_cfg, bb_cfg = wl.alloc_cfg(), wl.backbone_cfg()
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = allocation.build_plan(alloc_cfg)
        model = model_mod.build_model(bb_cfg, plan, MODEL_SEED)
        times.append(time.perf_counter() - t0)
        probes.append(speed.probe())
    return plan, model, times, probes


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclass
class LoopResult:
    op_s: list[float] = field(default_factory=list)
    op_probe_s: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    save_probe_s: list[float] = field(default_factory=list)
    load_probe_s: list[float] = field(default_factory=list)
    ckpt_files: int = 0
    ckpt_bytes: int = 0
    ops_attempted: int = 0
    ops_failed: int = 0
    digest: str = ""


class Runner:
    """One workload's model, inputs and correctness state inside one process."""

    def __init__(self, wl: Workload, seed: int, checks: Checks, scratch: str):
        self.wl = wl
        self.checks = checks
        self.scratch = scratch
        self.stream = token_stream(wl, seed)
        self._reference: dict[int, bytes] = {}
        self._bare = None
        self.plan, self.model, self.setup_s, self.setup_probe_s = setup(wl)
        self.params = [t for _, t in self.model.trainable_params()]
        self._check_zero_init()
        self._frozen = {n: t.data.copy() for n, t in self.model.backbone_tensors().items()}
        self._base = [
            (layer, snapshot_experts([e for e in layer.experts if not e.trainable]))
            for layer in self.model.moe_layers
        ]
        self._shadow = [p.data.copy() for p in self.params]
        self.res = LoopResult()
        self.ops = 0

    def _bare_model(self):
        if self._bare is None:
            self._bare = model_mod.build_model(self.wl.backbone_cfg(), None, MODEL_SEED)
        return self._bare

    def _check_zero_init(self) -> None:
        tokens = self.stream[0][: self.wl.tokens_per_op()]
        with no_grad():
            adapted, _ = self.model.forward(tokens, self.wl.mode)
            bare, _ = self._bare_model().forward(tokens, self.wl.mode)
        self.checks.check(_same_bytes(adapted.data, bare.data),
                          "zero-init adapted logits differ from the bare backbone")

    # -- one operation ------------------------------------------------------------

    def train_step(self, tokens: list[int]):
        for p in self.params:
            p.grad = None
        logits, gates = self.model.forward(tokens[:-1], self.wl.mode)
        loss = cross_entropy(logits, tokens[1:])
        loss.backward()
        sgd_update(self.params, LR)
        return loss.item(), logits, gates

    def infer(self, tokens: list[int]):
        with no_grad():
            logits, gates = self.model.forward(tokens, self.wl.mode)
        return math.nan, logits, gates

    # -- checks after each operation (untimed) --------------------------------------

    def check_op(self, idx: int, loss: float, logits, gates) -> None:
        c = self.checks
        if self.wl.train:
            c.check(math.isfinite(loss), f"op {idx}: non-finite loss {loss}")
            untouched = True
            for i, p in enumerate(self.params):
                if p.grad is None:
                    untouched &= _same_bytes(p.data, self._shadow[i])
                else:
                    self._shadow[i] = p.data.copy()
            c.check(untouched, f"op {idx}: SGD moved a tensor that has no gradient")
        else:
            c.check(self._logits_match_reference(idx, logits), f"op {idx}: logits differ from reference")
        if isinstance(self.wl.mode, TopK):
            self._check_topk(idx, gates)

    def _logits_match_reference(self, idx: int, logits) -> bool:
        # The served model is zero-init, so the bare backbone is its reference.
        slot = idx % POOL
        got = hashlib.sha256(logits.data.tobytes()).digest()
        if slot not in self._reference:
            with no_grad():
                ref, _ = self._bare_model().forward(self.stream[slot], self.wl.mode)
            self._reference[slot] = hashlib.sha256(ref.data.tobytes()).digest()
        return got == self._reference[slot]

    def _check_topk(self, idx: int, gates) -> None:
        k = self.wl.mode.k
        layers = {layer.layer_index: layer for layer in self.model.moe_layers}
        exact, no_grad_ok = True, True
        for li, g in gates:
            nonzero = g.data != 0
            exact &= bool((nonzero.sum(axis=1) <= k).all())
            idle = [e for e, hot in zip(layers[li].experts, nonzero.any(axis=0)) if not hot]
            no_grad_ok &= all(e.a.grad is None and e.b.grad is None for e in idle)
        self.checks.check(exact, f"op {idx}: more than {k} non-zero gate entries in a row")
        self.checks.check(no_grad_ok, f"op {idx}: an unselected expert got a gradient")

    def check_frozen(self) -> None:
        tensors = self.model.backbone_tensors()
        self.checks.check(all(_same_bytes(tensors[n].data, a) for n, a in self._frozen.items()),
                          "a frozen backbone tensor or w0 changed")
        self.checks.check(all(experts_unchanged([e for e in layer.experts if not e.trainable], snap)
                              for layer, snap in self._base),
                          "a frozen base expert changed")

    # -- checkpoints -----------------------------------------------------------------

    def checkpoint_round_trip(self, n: int) -> None:
        res = self.res
        path = os.path.join(self.scratch, f"ckpt{n}")
        gc.collect()  # every round trip starts from the same collector state
        before = speed.probe_text()
        t0 = time.perf_counter()
        model_mod.save_checkpoint(self.model, path)
        t1 = time.perf_counter()
        between = speed.probe_text()
        fresh = model_mod.build_model(self.wl.backbone_cfg(), self.plan, MODEL_SEED)
        for t in fresh.named_tensors().values():
            t.data[...] = np.nan  # so every tensor that matches after the load came from the file
        t2 = time.perf_counter()
        model_mod.load_checkpoint(fresh, path)
        t3 = time.perf_counter()
        res.save_s.append(t1 - t0)
        res.load_s.append(t3 - t2)
        res.save_probe_s.append((before + between) / 2)
        res.load_probe_s.append((between + speed.probe_text()) / 2)
        if not res.ckpt_files:
            entries = list(os.scandir(path))
            res.ckpt_files = len(entries)
            res.ckpt_bytes = sum(e.stat().st_size for e in entries)
        a, b = self.model.named_tensors(), fresh.named_tensors()
        self.checks.check(a.keys() == b.keys() and all(_same_bytes(a[k].data, b[k].data) for k in a),
                          f"checkpoint {n} round trip is not bit-identical")
        shutil.rmtree(path)

    # -- closed loop -------------------------------------------------------------------

    def step(self, tracer=None) -> None:
        """Issue the next operation, check it, maybe checkpoint, then probe speed.

        The probe runs after the operation's results are released, so it does
        not share the heap with them.
        """
        i = self.ops
        self.ops += 1
        if tracer is not None:
            tracer.set_tag(i)
        if not self._timed_op(i, tracer):
            return
        if (i + 1) % self.wl.ckpt_every == 0:
            if tracer is not None:
                tracer.set_tag("ckpt")
            self.checkpoint_round_trip(i + 1)
        self.res.op_probe_s.append(speed.probe())

    def _timed_op(self, i: int, tracer) -> bool:
        """Run, time and check operation ``i``; its results are released on return."""
        res = self.res
        op = self.train_step if self.wl.train else self.infer
        res.ops_attempted += 1
        t0 = time.perf_counter()
        try:
            loss, logits, gates = op(self.stream[i % POOL])
        except Exception as exc:  # a failed op is counted and the loop goes on
            res.ops_failed += 1
            if len(self.checks.messages) < 20:
                self.checks.messages.append(f"op {i}: {type(exc).__name__}: {exc}")
            return False
        res.op_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.set_tag("check")
        self.check_op(i, loss, logits, gates)
        if i + 1 == DIGEST_AT:
            res.digest = _digest(np.asarray(loss), logits.data)
        return True

    def loop(self, seconds: float) -> LoopResult:
        """Closed loop for ``seconds`` (and at least ``MIN_OPS`` operations)."""
        deadline = time.perf_counter() + seconds
        while self.ops < MIN_OPS or time.perf_counter() < deadline:
            self.step()
        self.check_frozen()
        return self.res


def alternate(untraced: Runner, traced: Runner, tracer, seconds: float) -> None:
    """Run two runners in alternating blocks of ``BLOCK``, ``traced`` with the tracer installed.

    Interleaving exposes both to the same machine speed, so the difference
    between their timings is the tracing overhead and not drift.
    """
    deadline = time.perf_counter() + seconds
    while min(untraced.ops, traced.ops) < MIN_OPS or time.perf_counter() < deadline:
        for _ in range(BLOCK):
            untraced.step()
        tracer.install()
        try:
            for _ in range(BLOCK):
                traced.step(tracer)
        finally:
            tracer.close()
    tracer.set_tag(None)
    untraced.check_frozen()
    traced.check_frozen()


def sgd_update(params, lr: float) -> None:
    """Plain SGD; a tensor without a gradient (an expert top-k skipped) is left untouched."""
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad
