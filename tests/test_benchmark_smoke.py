"""Every benchmark workload runs a few operations and a checkpoint round trip with no failed check.

The benchmark reads the library by name (``layer.experts``, ``e.trainable``,
``snapshot_experts``, ``trainable_params``, ``save_checkpoint``/``load_checkpoint``
and more), so a deletion that breaks one of them fails here.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "speed"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    return workloads


def test_every_workload_steps_and_round_trips_a_checkpoint_with_no_failed_check(workloads, tmp_path):
    assert workloads.WORKLOADS
    for name, wl in workloads.WORKLOADS.items():
        checks = workloads.Checks()
        runner = workloads.Runner(wl, 1, checks, str(tmp_path))
        for _ in range(3):
            runner.step()
        runner.checkpoint_round_trip(1)
        runner.check_frozen()
        assert runner.res.ops_attempted == 3 and runner.res.ops_failed == 0, (name, checks.messages)
        assert checks.failed == 0 and checks.attempted > 3, (name, checks.messages)
        assert runner.res.ckpt_files == 1 and len(runner.res.load_s) == 1, name


# seed-1 digest of the loss and logits at operation DIGEST_AT; a change that moves one updates it here
DIGESTS = {
    "train-soft": "5c81ace5a023c173",
    "train-topk-wide": "4ff5ff4a82cae426",
    "infer-long": "7647cb056c1b3b06",
}


def test_every_workload_keeps_its_seed_1_digest(workloads, tmp_path):
    assert set(workloads.WORKLOADS) == set(DIGESTS)
    for name, wl in workloads.WORKLOADS.items():
        checks = workloads.Checks()
        runner = workloads.Runner(wl, 1, checks, str(tmp_path))
        while runner.ops < workloads.DIGEST_AT:
            runner.step()
        assert runner.res.ops_failed == 0 and checks.failed == 0, (name, checks.messages)
        assert runner.res.digest == DIGESTS[name], name
