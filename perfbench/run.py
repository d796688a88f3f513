"""Benchmark driver for the TILT/LinQ reproduction.

Runs one workload of :mod:`workloads` in this process on the serial
engine, checks every output, and prints one JSON object as the last
line of standard output::

    python3 perfbench/run.py --workload paper-figures --seed 2021 \\
        --seconds 45 --trace 0

``--trace 0`` repeats the workload's pass, unpatched, for about
``--seconds`` and reports the end-to-end metrics (``wall_s`` the median
over passes, ``setup_s`` the median of seven fresh set-up processes,
both scaled to a nominal host speed, see :class:`HostSpeed`).
``--trace 1`` runs one untraced pass and two traced passes and reports
the per-layer metrics of :data:`tracing.LAYER_METRICS`; the spans are
written to ``.perfbench-out/`` in the checkout.

Exit status is 0 when every output check passed, 1 when one failed and
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SCRATCH = os.path.join(OUT_DIR, "tmp")
REFERENCE = os.path.join(HERE, "reference.json")

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Fresh processes whose set-up time ``setup_s`` is the median of.
SETUP_PROBES = 7

#: Iterations of one chunk of the reference loop (:class:`HostSpeed`).
REF_CHUNK = 50_000
#: Chunks one host-speed sample runs (about 20 ms on the reference host).
REF_CHUNKS = 3
#: Seconds between host-speed samples while passes run.
REF_PERIOD_S = 0.25
#: Reference-loop chunks per second that ``wall_s`` and ``setup_s`` are
#: scaled to: the median speed of the 2-vCPU Xeon host the bounds were
#: measured on.
REF_NOMINAL = 150.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the reduced inputs of the smoke test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hermetic_env() -> None:
    """Keep ambient configuration out of the measurement: no engine
    environment overrides, and no git repository search above the
    checkout (durable searches record git provenance)."""
    for name in list(os.environ):
        if name.startswith("TILT_REPRO_"):
            del os.environ[name]
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process (imports + input construction)."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


class Ledger:
    """Output-check accounting over every pass of a run."""

    def __init__(self, reference: dict, seed: int) -> None:
        self.reference = reference
        self.seed = seed
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outputs: dict, tag: str) -> None:
        from workloads import check_outputs

        problems = check_outputs(outputs, self.reference, self.seed)
        if self.first is None:
            self.first = outputs
        for label, fields in outputs.items():
            if self.first.get(label) != fields:
                problems.setdefault(label, []).append(
                    "differs from the first pass")
        missing = [label for label in sorted({*self.reference.get("jobs", {}),
                                              *self.first})
                   if label not in outputs]
        for label in missing:
            problems[label] = ["job missing from the pass"]
        self.attempted += len(outputs) + len(missing)
        self.failed += len(problems)
        for label, found in problems.items():
            self.problems.append(f"{tag} {label}: {'; '.join(found)}")

    def crashed(self, tag: str) -> None:
        count = max(1, len(self.reference.get("jobs", {})))
        self.attempted += count
        self.failed += count
        self.problems.append(f"{tag}: pass raised\n{traceback.format_exc()}")


def warm_up(args) -> None:
    """One unmeasured pass of the reduced workload, so lazy imports and
    first-call costs inside the program are paid before timing."""
    import workloads

    workloads.build(args.workload, args.seed, "smoke", SCRATCH).run_pass()


class HostSpeed:
    """How fast the host runs a fixed pure-Python loop, sampled from a
    real-time interval timer every ``REF_PERIOD_S`` seconds while armed.

    The loop calls no program code, so it measures only the host.  On a
    shared host that speed wanders by a fifth and more over minutes, and
    a pass's wall time with it; the pass's time scaled by the speed
    sampled during it does not.  The signal handler runs between the
    main thread's bytecodes, so a sample falls wholly inside or wholly
    outside a timed region, and its own time is taken out of the pass.
    """

    def __init__(self) -> None:
        #: (start, end, chunks per second) of every sample taken
        self.samples: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _chunk in range(REF_CHUNKS):
            total = 0
            for value in range(REF_CHUNK):
                total += value * 2654435761 % 1000003
        end = time.perf_counter()
        self.samples.append((start, end, REF_CHUNKS / (end - start)))

    def __enter__(self) -> "HostSpeed":
        self.previous = signal.signal(signal.SIGALRM,
                                      lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *_: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale(self, segments: list[tuple[float, float]],
              ) -> tuple[float, float]:
        """(wall time, wall time at ``REF_NOMINAL`` speed) of a pass's
        timed *segments*, without the samples taken inside them."""
        inside = [(start, end, speed) for start, end, speed in self.samples
                  if any(first <= start and end <= last
                         for first, last in segments)]
        wall = (sum(last - first for first, last in segments)
                - sum(end - start for start, end, _ in inside))
        speeds = [speed for *_, speed in inside]
        if not speeds:  # too short to hold a sample: the last one before
            speeds = [speed for start, _, speed in self.samples
                      if start < segments[-1][1]][-1:]
        return wall, wall * statistics.fmean(speeds) / REF_NOMINAL


def attempt(ledger: Ledger, tag: str, run_pass, *args):
    """Run one pass; a pass that raises counts as failed jobs."""
    gc.collect()
    try:
        result = run_pass(*args)
    except Exception:  # reported through the ledger, the run goes on
        ledger.crashed(tag)
        return None
    if result is not None:
        ledger.record(result.outputs, tag)
    return result


def run_untraced(workload, args, ledger) -> dict[str, float]:
    passes = []
    attempt(ledger, "warm-up", warm_up, args)
    walls: list[float] = []
    scaled: list[float] = []
    clock = HostSpeed()
    clock.sample()
    start = time.perf_counter()
    with clock:
        # a pass starts while at least half of a typical pass still
        # fits, so a run measures about --seconds however long its
        # passes are
        while not passes or (time.perf_counter() - start
                             + statistics.median(walls) / 2 < args.seconds):
            result = attempt(ledger, f"pass {len(passes) + 1}",
                             workload.run_pass)
            if result is None:
                break
            passes.append(result)
            wall, at_nominal = clock.scale(list(result.segments.values()))
            walls.append(wall)
            scaled.append(at_nominal)
    if not passes:
        return {}
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    # the probes are too short and too few to sample the host's speed
    # around each one steadily; the run's median speed is steadier
    speed = statistics.median(sample[2] for sample in clock.samples)
    metrics = {
        "setup_s": statistics.median(setups) * speed / REF_NOMINAL,
        "wall_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {"passes": float(len(passes)),
              "unscaled wall_s": statistics.median(walls),
              "unscaled setup_s": statistics.median(setups),
              "host_speed": speed}
    report.update({f"wall_s[pass {index + 1}]": value
                   for index, value in enumerate(walls)})
    report.update({f"setup_s[probe {index + 1}]": value
                   for index, value in enumerate(setups)})
    report["host_samples"] = float(len(clock.samples))
    for name in ("sampled", "cold", "resume"):
        values = [clock.scale([result.segments[name]])[0]
                  for result in passes if name in result.segments]
        if values:
            report[f"{name}_s"] = statistics.median(values)
    if "sampled_s" in report:
        report["shots_per_s"] = (
            statistics.median(result.extra["shots"] for result in passes)
            / report["sampled_s"])
    print_table("workload-specific end-to-end", report, {
        "shots_per_s": "1/s", "sampled_s": "s", "resume_s": "s",
        "cold_s": "s", "unscaled wall_s": "s", "unscaled setup_s": "s",
        "host_speed": "1/s",
    })
    return metrics


def run_traced(workload, args, ledger) -> dict[str, float]:
    from tracing import (
        EXACT_METRICS,
        Tracer,
        instrument,
        layer_metrics,
        write_spans,
    )

    attempt(ledger, "warm-up", warm_up, args)
    untraced = attempt(ledger, "untraced pass", workload.run_pass)
    if untraced is None:
        return {}
    tracers = []
    walls = []
    per_run = []
    for run in ("traced-1", "traced-2"):
        tracer = Tracer(run)
        tracers.append(tracer)
        with instrument(tracer), tracer.span("bench.pass"):
            # the ledger also requires the outputs to equal the untraced
            # pass's exactly
            result = attempt(ledger, run, workload.run_pass, tracer)
        if result is None:
            return {}
        walls.append(result.wall_s)
        per_run.append(layer_metrics(tracer.spans))
    for name in EXACT_METRICS:
        if per_run[0][name] != per_run[1][name]:
            ledger.attempted += 1
            ledger.failed += 1
            ledger.problems.append(
                f"count {name} differs between traced runs: "
                f"{per_run[0][name]} != {per_run[1][name]}")
    os.makedirs(OUT_DIR, exist_ok=True)
    write_spans(os.path.join(
        OUT_DIR, f"trace-{args.workload}-{args.size}-seed{args.seed}.jsonl"),
        tracers)
    metrics = {name: statistics.median([run[name] for run in per_run])
               for name in per_run[0]}
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(walls) / untraced.wall_s)
    return metrics


def print_table(title: str, values: dict[str, float],
                units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, value in values.items():
        print(f"  {name:40s} {value:16.6f} {units.get(name, '')}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program under test not found: {SRC}/repro", file=sys.stderr)
        return 2
    hermetic_env()
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads  # imports the program under test

    os.makedirs(SCRATCH, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, args.size, SCRATCH)
    setup = time.perf_counter() - start
    if args.probe_setup:
        print(json.dumps({"setup_s": setup}))
        return 0
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload][args.size]
    ledger = Ledger(reference, args.seed)

    if args.trace:
        from tracing import LAYER_METRICS as units

        metrics = run_traced(workload, args, ledger)
    else:
        units = END_TO_END
        metrics = run_untraced(workload, args, ledger)
    # a run whose passes raised has nothing to report: zeros, not NaN
    metrics = {name: metrics.get(name, 0.0) for name in units}
    failed_ratio = ledger.failed / max(1, ledger.attempted)
    print_table("metrics", metrics, units)
    print_table("output checks", {
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failed_ratio": failed_ratio}, {"failed_ratio": "ratio"})
    for problem in ledger.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = ledger.failed == 0 and ledger.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
