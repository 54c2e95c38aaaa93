"""Machine-speed probe that end-to-end timings are rescaled by.

The cores of a shared 2-CPU sandbox change speed by up to about 30% within
seconds as other tenants load them, in the same way for every process; the
same training step took 11 ms in one run and 18 ms in the next. The
benchmark therefore runs a fixed reference kernel next to every timed
operation and rescales each timing to the speed at which the kernel takes
``REF_NOMINAL_S``. The kernel uses numpy and Python only, never
``moelora``, and runs after the operation's results are released, with the
collector off; perfbench/README.md gives the runs that show extra library
work leaves it within 1%. Reports print the raw timings too.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Round figures near each kernel's median on an unloaded core of the 2-CPU
# sandbox (0.85-1.0 ms and about 3 ms; numpy 2.4.6, OpenBLAS 0.3.31, one BLAS
# thread). They only fix the scale: comparisons between commits do not
# depend on them.
REF_NOMINAL_S = 1.0e-3
TEXT_NOMINAL_S = 3.0e-3

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(127, 64))
_WA = _rng.normal(size=(64, 128)) / 8.0
_WB = _rng.normal(size=(128, 64)) / 11.0
_S = _rng.normal(size=(31, 64))
_V = _rng.normal(size=(16, 64))


def _kernel() -> float:
    # Mirrors the mix the workloads run: one 127-row attention-and-FFN pass,
    # many small matrix ops issued from Python, and float-to-text formatting.
    s = _X @ _X.T / 64.0
    e = np.exp(s - s.max(axis=1, keepdims=True))
    h = np.maximum((e / e.sum(axis=1, keepdims=True)) @ _X @ _WA, 0.0) @ _WB
    acc = float(h[0, 0])
    x = _S
    for _ in range(25):
        g = x @ _V.T
        x = _S + (g - g.max(axis=1, keepdims=True)) @ _V * 0.01
        acc += sum(v for _, v in ((1, 0.5), (2, 0.25)))
    return acc + len(" ".join(repr(float(v)) for v in _X[:2].ravel()))


def _text_kernel() -> int:
    # Float-to-text and text-to-float round trip, the work a text checkpoint does.
    text = "\n".join(" ".join(repr(float(v)) for v in row) for row in _X[:40])
    return len([float(tok) for tok in text.split()])


def probe(kernel=_kernel, repeats: int = 1) -> float:
    """Median wall time of ``repeats`` runs of a reference kernel, in seconds.

    The collector is off while the kernel runs, so a collection over objects
    the library left behind is never timed as machine speed.
    """
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def probe_text() -> float:
    """``probe`` for five runs of the text kernel, rescaled to the main kernel's nominal time."""
    return probe(_text_kernel, 5) * REF_NOMINAL_S / TEXT_NOMINAL_S


def normalize(times: list[float], probes: list[float]) -> list[float]:
    """Rescale each timing by the probe taken next to it.

    The speed changes within tens of milliseconds, so adjacent probes track
    it better than any average over a longer stretch of the run.
    """
    return [t * REF_NOMINAL_S / p for t, p in zip(times, probes)]


def bracket(probes: list[float]) -> list[float]:
    """For timings that each have a probe right after them, the mean of the
    probe before a timing (its predecessor's) and the one after it."""
    return probes[:1] + [(a + b) / 2 for a, b in zip(probes, probes[1:])]
