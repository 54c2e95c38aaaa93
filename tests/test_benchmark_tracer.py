"""The benchmark's traced mode wraps library entry points by name; renaming one breaks it."""

import sys
from pathlib import Path

import numpy as np

from moelora.allocation import AllocationConfig, build_plan
from moelora.model import BackboneConfig, TopK, build_model
from moelora.tensor import cross_entropy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_entry_point_and_close_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()
    originals = []
    try:
        tracer.install()  # an entry point that no longer exists raises AttributeError here
        originals = list(tracer._patches)
        assert originals
        for owner, attr, orig in originals:
            assert getattr(owner, attr) is not orig, attr
        model = build_model(BackboneConfig(), build_plan(AllocationConfig(num_layers=4)), seed=0)
        toks = [int(t) for t in np.random.default_rng(0).integers(0, 256, size=9)]
        tracer.set_tag(0)
        logits, _ = model.forward(toks[:-1], TopK(2))
        cross_entropy(logits, toks[1:]).backward()
        counts = tracer.counts[0]
        for name in ("tensor.ops", "tensor.tape_nodes", "model.forward", "model.moe.L1",
                     "routing.gate", "routing.topk", "tensor.backward", "tensor.toposort"):
            assert counts[name] > 0, name
    finally:
        tracer.close()
    for owner, attr, orig in originals:
        assert getattr(owner, attr) is orig, attr
