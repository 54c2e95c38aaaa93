"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that one seed gives one token stream; that two traced runs of each
workload give exactly the same counts and digests; that the tape-node count
of a default ``train-soft`` step equals the one recorded in
``BENCHMARK.json``; and that the benchmark fails without a result when the
library sources are missing. Exits non-zero if any check fails.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
COUNTS = re.compile(r"^(tensor\.tape_nodes|tensor\.ops|lora\.forward_calls|routing\.gate_density\..*|"
                    r"routing\.experts_run_frac|model\.ckpt_files|model\.ckpt_bytes)$")


def traced_run(workload: str, seed: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest@"))
    counts = {k: m["value"] for k, m in result["metrics"].items() if COUNTS.match(k)}
    return counts, digest


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import workloads

    for name, wl in workloads.WORKLOADS.items():
        check(workloads.token_stream(wl, 7) == workloads.token_stream(wl, 7), f"{name}: seed 7 gives one token stream")
        check(workloads.token_stream(wl, 7) != workloads.token_stream(wl, 8), f"{name}: seeds 7 and 8 differ")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "train-soft")
    recorded = re.search(r"(\d+) tape nodes", why)
    check(recorded is not None, "BENCHMARK.json records the train-soft tape-node count")

    for name in workloads.WORKLOADS:
        first, second = traced_run(name, 3), traced_run(name, 3)
        check(first == second, f"{name}: counts and digest repeat exactly across two traced runs")
        if name == "train-soft" and recorded is not None:
            nodes = first[0]["tensor.tape_nodes"]
            check(nodes == int(recorded.group(1)), f"train-soft: {nodes} tape nodes per step, "
                                                   f"{recorded.group(1)} recorded")

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-soft", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=bare,
                              env={**os.environ, "PYTHONPATH": ""})
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the library sources the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
