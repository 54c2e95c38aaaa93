"""Runtime tracer for the benchmark's traced run.

The tracer wraps public entry points of the ``moelora`` modules from the
benchmark's side and records one span per call: name, start, end, parent
span and the tag of the step (or set-up phase) it ran in. It also counts op
constructions by wrapping the op-result helper. The library itself is not
edited, and ``close`` puts every original function back.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import moelora.allocation as allocation
import moelora.model as model_mod
import moelora.tensor as tensor_mod


class Tracer:
    """Span recorder plus per-tag counters of calls and ops; everything stays in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, tag]
        self.counts: dict = defaultdict(Counter)
        self.tag = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def set_tag(self, tag) -> None:
        """Attribute the spans and counts that follow to ``tag``."""
        self.tag = tag

    def _wrap(self, owner, attr: str, name, on_result=None) -> None:
        orig = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            self.counts[self.tag][label] += 1
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counts[self.tag], args, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def _count_ops(self) -> None:
        orig = tensor_mod._result

        def counted(data, parents, grad_fn):
            self.counts[self.tag]["tensor.ops"] += 1
            return orig(data, parents, grad_fn)

        tensor_mod._result = counted
        self._patches.append((tensor_mod, "_result", orig))

    def install(self) -> "Tracer":
        """Wrap every traced entry point; returns self for chaining."""
        mm = model_mod
        self._count_ops()
        self._wrap(allocation, "build_plan", "allocation.build_plan")
        self._wrap(mm.ToyBackbone, "__init__", "model.build")
        self._wrap(mm, "attach_plan", "model.attach")
        self._wrap(mm.ToyBackbone, "forward", "model.forward")
        self._wrap(mm.MoeLoraLayer, "forward", lambda layer, *a, **k: f"model.moe.L{layer.layer_index}",
                   on_result=_count_gates)
        self._wrap(mm.MoeLoraLayer, "gate_weights", "routing.gate")
        self._wrap(mm, "topk_weights", "routing.topk")
        self._wrap(mm, "lora_forward", "lora.forward")
        self._wrap(tensor_mod.Tensor, "backward", "tensor.backward")
        self._wrap(tensor_mod.Tensor, "_toposort", "tensor.toposort", on_result=_count_tape)
        return self

    def close(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction -------------------------------------------------------------

    def per_step(self, steps: list[int]) -> dict[str, list[float]]:
        """Per-step span totals in ms (one list entry per step in ``steps``)."""
        children: dict[int, list[int]] = defaultdict(list)
        totals: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
            if not isinstance(tag, int):
                continue
            dur = (t1 - t0) * 1e3
            acc = totals[tag]
            acc[name] += dur
            if name == "model.forward":
                acc["model.backbone_self"] += dur - self._child_ms(children[i], "model.moe.")
            elif name.startswith("model.moe."):
                acc["model.moe_self"] += dur - self._child_ms(children[i], "routing.gate")
        names = sorted({n for acc in totals.values() for n in acc})
        return {n: [totals[s].get(n, 0.0) for s in steps] for n in names}

    def _child_ms(self, idxs: list[int], prefix: str) -> float:
        return sum(
            (self.spans[c][2] - self.spans[c][1]) * 1e3
            for c in idxs
            if self.spans[c][0].startswith(prefix)
        )

    def tag_median_ms(self, name: str, tag) -> float:
        """Median duration of spans called ``name`` recorded under ``tag``."""
        durs = [(t1 - t0) * 1e3 for n, t0, t1, _, g in self.spans if n == name and g == tag]
        return statistics.median(durs) if durs else 0.0


def _count_gates(counts: Counter, args, out) -> None:
    layer = args[0]
    _, gates = out
    if gates is None:
        return
    g = gates.data
    li = layer.layer_index
    counts[f"gate_nonzero.L{li}"] += int((g != 0).sum())
    counts[f"gate_cells.L{li}"] += g.size
    counts["experts_run"] += int((g != 0).any(axis=0).sum())
    counts["experts_total"] += g.shape[1]


def _count_tape(counts: Counter, args, out) -> None:
    counts["tensor.tape_nodes"] += len(out)
