"""Machine-speed calibration kernel for the regression gate.

``check_regression.py`` divides every benchmark's current/baseline ratio
by this kernel's ratio.  The kernel is a fixed pure-Python + numpy loop
that imports no ``repro`` code, so it moves with the machine and the
interpreter, never with the program: a uniform slowdown of the program
shows in full, and a speedup of some benchmarks cannot make the others
look slow.

``conftest.py`` times the kernel a few times at the start of every
benchmark module and records the median of all those samples as one
more entry of the pytest-benchmark JSON (:data:`CALIBRATION_NAME`).  A
shared host's speed wanders from second to second, so the normaliser
samples it across the whole run rather than at one moment.

Do not change the kernel without re-baselining ``baseline.json``: its
median is the unit every other ratio is measured in.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The JSON entry the session's calibration median is recorded under.
CALIBRATION_NAME = "benchmarks/calibration.py::calibration_kernel"

#: Loop sizes of the kernel (about 20 ms on a 2-vCPU Xeon host).
PY_ITERATIONS = 50_000
NP_ROUNDS = 500
NP_WIDTH = 256


def calibration_kernel() -> float:
    """Interpreter-bound bookkeeping plus small-array numpy arithmetic,
    the two kinds of work the program's hot paths mix."""
    table: dict[int, tuple[int, int]] = {}
    items: list[int] = []
    total = 0
    for i in range(PY_ITERATIONS):
        key = (i * 7919) % 1009
        pair = table.get(key)
        if pair is None:
            pair = (key, i)
            table[key] = pair
        items.append(pair[0] ^ i)
        total += pair[1] & 0xFF
    vector = np.arange(NP_WIDTH, dtype=np.float64) / NP_WIDTH
    acc = 0.0
    for _ in range(NP_ROUNDS):
        vector = np.sqrt(vector * vector + 0.5) - 0.25
        acc += float(vector.sum())
    return total + sum(items) + acc


def time_kernel(repeats: int = 5) -> list[float]:
    """Wall times of *repeats* back-to-back kernel runs, in seconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - start)
    return samples


def calibration_entry(samples: list[float]) -> dict:
    """The pytest-benchmark JSON entry for the session's samples."""
    return {
        "name": CALIBRATION_NAME.rsplit("::", 1)[-1],
        "fullname": CALIBRATION_NAME,
        "stats": {
            "median": statistics.median(samples),
            "min": min(samples),
            "max": max(samples),
            "rounds": len(samples),
        },
    }
