"""Benchmark for moelora: training steps, inference requests and checkpoints.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload train-soft --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around the library's entry points,
plus the tracing overhead. ``--workload all`` (the default) runs every
workload, each in its own process, and prints each one's report.
"""

import os
import sys

# BLAS threads are pinned before numpy is imported; one closed-loop caller
# then owns one core and runs stay comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import bracket, normalize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# Report names of the end-to-end metrics that differ between training and inference.
ALIASES = {
    True: {"tok_per_s": "train_tok_per_s"},
    False: {"tok_per_s": "infer_tok_per_s", "step_ms_p50": "infer_ms_p50", "step_ms_p95": "infer_ms_p95"},
}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile, as ``statistics.quantiles`` with 100 cut points gives it."""
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def end_to_end(wl, runner, res) -> dict:
    """Each metric as (value rescaled to nominal machine speed, unit, raw value)."""

    def timings(times, probes, scale=1.0):
        return [t * scale for t in normalize(times, probes)], [t * scale for t in times]

    ms, raw_ms = timings(res.op_s, bracket(res.op_probe_s), 1e3)
    save, raw_save = timings(res.save_s, res.save_probe_s)
    load, raw_load = timings(res.load_s, res.load_probe_s)
    setup, raw_setup = timings(runner.setup_s, bracket(runner.setup_probe_s))
    per_s = 1e3 * wl.tokens_per_op()
    med = statistics.median
    rss = peak_rss_mb()
    return {
        "tok_per_s": (per_s / statistics.fmean(ms), "tok/s", per_s / statistics.fmean(raw_ms)),
        "step_ms_p50": (med(ms), "ms", med(raw_ms)),
        "step_ms_p95": (quantile(ms, 0.95), "ms", quantile(raw_ms, 0.95)),
        "ckpt_save_s": (med(save), "s", med(raw_save)),
        "ckpt_load_s": (med(load), "s", med(raw_load)),
        "setup_s": (med(setup), "s", med(raw_setup)),
        "peak_rss_mb": (rss, "MB", rss),
    }


def per_layer(untraced, traced_runner, tracer) -> dict:
    """Each metric as (value, unit, value); spans and counts come from ``traced_runner``."""
    from workloads import COUNT_OPS

    traced = traced_runner.res
    steps = list(range(traced_runner.ops))
    spans = tracer.per_step(steps)
    counted = [tracer.counts[s] for s in steps[:COUNT_OPS]]

    def count(key):
        return sum(c[key] for c in counted) / len(counted)

    def med(name):
        return statistics.median(spans.get(name, [0.0]))

    p50_u = statistics.median(normalize(untraced.op_s, bracket(untraced.op_probe_s))) * 1e3
    p50_t = statistics.median(normalize(traced.op_s, bracket(traced.op_probe_s))) * 1e3
    out = {
        "tensor.tape_nodes": (count("tensor.tape_nodes"), "count"),
        "tensor.ops": (count("tensor.ops"), "count"),
        "tensor.backward_ms": (med("tensor.backward"), "ms"),
        "tensor.toposort_ms": (med("tensor.toposort"), "ms"),
        "model.forward_ms": (med("model.forward"), "ms"),
        "model.backbone_self_ms": (med("model.backbone_self"), "ms"),
        "model.moe_self_ms": (med("model.moe_self"), "ms"),
        "lora.forward_calls": (count("lora.forward"), "count"),
        "lora.forward_ms": (med("lora.forward"), "ms"),
        "routing.gate_ms": (med("routing.gate"), "ms"),
        "routing.topk_ms": (med("routing.topk"), "ms"),
        "routing.experts_run_frac": (count("experts_run") / count("experts_total"), "frac"),
        "model.ckpt_files": (traced.ckpt_files, "count"),
        "model.ckpt_bytes": (traced.ckpt_bytes, "B"),
        "allocation.build_plan_ms": (tracer.tag_median_ms("allocation.build_plan", "setup"), "ms"),
        "model.build_ms": (tracer.tag_median_ms("model.build", "setup"), "ms"),
        "model.attach_ms": (tracer.tag_median_ms("model.attach", "setup"), "ms"),
        "trace.overhead_ms": (p50_t - p50_u, "ms"),
        "trace.overhead_frac": (p50_t / p50_u - 1.0, "frac"),
    }
    for layer in traced_runner.model.moe_layers:
        li = layer.layer_index
        out[f"model.moe_layer_ms.L{li}"] = (med(f"model.moe.L{li}"), "ms")
        out[f"routing.gate_density.L{li}"] = (count(f"gate_nonzero.L{li}") / count(f"gate_cells.L{li}"), "frac")
    return {k: (v, u, v) for k, (v, u) in sorted(out.items())}


def run_one(args) -> int:
    if not (ROOT / "src" / "moelora").is_dir():
        print(f"moelora sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    checks = workloads.Checks()
    scratch_root = ROOT / ".bench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        runner = workloads.Runner(wl, args.seed, checks, scratch)
        if args.trace:
            tracer = Tracer().install()
            try:
                tracer.set_tag("setup")
                traced_runner = workloads.Runner(wl, args.seed, checks, scratch)
            finally:
                tracer.close()
            workloads.alternate(runner, traced_runner, tracer, args.seconds)
            metrics = per_layer(runner.res, traced_runner, tracer)
            results = [runner.res, traced_runner.res]
        else:
            metrics = end_to_end(wl, runner, runner.loop(args.seconds))
            results = [runner.res]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        print(f"metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    attempted = checks.attempted + sum(r.ops_attempted for r in results)
    failed = checks.failed + sum(r.ops_failed for r in results)
    experts = {str(layer.layer_index): layer.num_experts for layer in runner.model.moe_layers}
    report(wl, args, metrics, results, attempted, failed, checks.messages, experts, workloads.DIGEST_AT)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def report(wl, args, metrics, results, attempted, failed, messages, experts, digest_at) -> None:
    aliases = ALIASES[wl.train]
    print(f"# workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    for name, (value, unit, raw) in metrics.items():
        note = f"  (N={experts[name[-1]]})" if ".L" in name else ""
        if raw != value:
            note += f"  (raw {raw:.6g})"
        print(f"{aliases.get(name, name):28s} {value:14.6g} {unit}{note}")
    print(f"{'samples':28s} {len(results[-1].op_s):14d} ops, {len(results[-1].save_s)} checkpoint round trips")
    print(f"{'failed_frac':28s} {failed / attempted:14.6g} of {attempted} checks and ops")
    print(f"{'digest@' + str(digest_at):28s} {results[-1].digest:>14s} loss and logits")
    for m in messages:
        print(f"FAILED: {m}", file=sys.stderr)


def run_all(args) -> int:
    rows = {}
    status = 0
    for name in (w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not rows[name]["correct"]
    print(json.dumps(rows))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
