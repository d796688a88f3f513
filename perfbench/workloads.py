"""The benchmark's workloads: inputs built from a seed, one timed pass each.

Every workload builds its inputs once (the set-up the benchmark times as
``setup_s``) and then runs any number of identical passes.  A pass calls
only public entry points of ``repro`` on a serial engine and returns the
deterministic outputs of every job it ran, keyed by a stable label, so
the caller can compare them against ``reference.json``, against the
first pass and against the traced pass.

``size="full"`` is the measured configuration; ``size="smoke"`` is the
reduced one the smoke test runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis import experiments
from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.exec import ExecutionEngine, JobResult, JobSpec
from repro.exec.sampling import run_sampled_job
from repro.noise.parameters import NoiseParameters
from repro.search.runner import run_search
from repro.search.space import (
    SearchSpace,
    config_knob,
    device_knob,
    scenario_knob,
)
from repro.search.strategies import GridStrategy
from repro.sim.stochastic import wilson_interval
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.suite import build_workload, standard_suite

from tracing import SAMPLED_JOB_SPAN, Tracer

#: z of the Wilson interval a sampled success count must put around its
#: analytic rate.  A run checks ~40 sampled results, so a 95 % interval
#: would fail a correct program on most seeds; z = 5 (two-sided
#: p = 5.7e-7 per result) keeps the family-wise false-failure rate below
#: 1e-4 per run while still flagging any sampler bias of a few percent.
WILSON_Z = 5.0

#: Shot seed of the counts-mode call (the one examples/noisy_sampling.py
#: passes).
COUNTS_SEED = 2021

Outputs = dict[str, dict[str, Any]]


@dataclass
class PassResult:
    """What one pass measured and produced."""

    #: ``(start, end)`` ``time.perf_counter`` readings of each named
    #: timed region of the pass (``pass``, or ``sampled``, ``cold`` and
    #: ``resume``); output assembly and clean-up fall between them.
    segments: dict[str, tuple[float, float]]
    outputs: Outputs
    #: Workload-specific counts (shots).
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.segments.values())


def _analytic_fields(result: JobResult) -> dict[str, Any]:
    stats = result.stats
    simulation = result.simulation
    return {
        "swaps": stats.num_swaps if stats is not None else None,
        "opposing_swaps": (stats.num_opposing_swaps
                           if stats is not None else None),
        "moves": simulation.num_moves,
        "log10_success": simulation.log10_success_rate,
    }


class _CaptureEngine:
    """An engine stand-in that records the batch a driver submits and
    stops it before anything runs, so the benchmark times exactly the
    job set the driver would execute."""

    class Captured(Exception):
        pass

    def __init__(self) -> None:
        self.specs: list[JobSpec] = []

    def run(self, specs: list[JobSpec], **_: object) -> list[JobResult]:
        self.specs = list(specs)
        raise self.Captured


def _captured_specs(driver: Any, scale: str) -> list[JobSpec]:
    engine = _CaptureEngine()
    try:
        driver(scale, engine=engine)
    except _CaptureEngine.Captured:
        return engine.specs
    raise RuntimeError(f"{driver.__name__} submitted no batch")


class PaperFigures:
    """Fig. 8 + Table III job sets, analytic, on one fresh engine."""

    def __init__(self, seed: int, size: str) -> None:
        scale = "paper" if size == "full" else "small"
        self.batches = []
        for tag, driver in (("fig8", experiments.figure8),
                            ("table3", experiments.table3)):
            specs = _captured_specs(driver, scale)
            labels = [f"{tag}/{spec.circuit.name}/{spec.label}"
                      for spec in specs]
            self.batches.append((specs, labels))

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        outputs: Outputs = {}
        start = time.perf_counter()
        engine = ExecutionEngine(workers=1)
        results = [engine.run(specs) for specs, _ in self.batches]
        end = time.perf_counter()
        for (_, labels), batch in zip(self.batches, results):
            for label, result in zip(labels, batch):
                outputs[label] = _analytic_fields(result)
        return PassResult({"pass": (start, end)}, outputs)


class SampledJobs:
    """Sharded sampled jobs over Table II x three architectures and one
    counts-mode sampling call made directly on the simulator, then a
    durable search (:class:`SearchDurable`)."""

    SHARDS = 4

    def __init__(self, seed: int, size: str, scratch: str) -> None:
        if size == "full":
            names = [spec.name for spec in standard_suite()]
            shots = {"baseline": 20000, "crosstalk": 2000}
            counts_shots = 5000
        else:
            names = ["BV", "ADDER"]
            shots = {"baseline": 2000, "crosstalk": 500}
            counts_shots = 1000
        params = NoiseParameters.paper_defaults()
        jobs = []
        for name in names:
            circuit = build_workload(name, "small")
            width = circuit.num_qubits
            for backend, device in (
                ("tilt", TiltDevice(num_qubits=width,
                                    head_size=max(4, width // 4))),
                ("ideal", IdealTrappedIonDevice(num_qubits=width)),
                ("qccd", QccdDevice(num_qubits=width,
                                    trap_capacity=max(3, width // 3))),
            ):
                for scenario, count in shots.items():
                    jobs.append((backend, device, circuit, scenario, count))
        # one shot seed per sharded job, drawn from the workload seed
        seeds = np.random.default_rng(seed).integers(
            0, 2**32, size=len(jobs)).tolist()
        self.specs = []
        for (backend, device, circuit, scenario, count), job_seed in zip(
                jobs, seeds):
            self.specs.append(JobSpec(
                circuit=circuit, device=device, backend=backend,
                config=CompilerConfig() if backend == "tilt" else None,
                noise=params, shots=count, seed=job_seed, scenario=scenario,
                label=f"{circuit.name}/{backend}/{scenario}",
            ))
        # examples/noisy_sampling.py: BV-16 on head 8, counts mode, with
        # the example's own shot seed.  Its cost is set by how many
        # distinct error patterns the shots draw (13 to 29 over seeds
        # 0-7, 1.5 to 4.0 s), so a seed drawn from the workload seed
        # would move wall_s by a tenth from one seed to the next.
        self.counts_device = TiltDevice(num_qubits=16, head_size=8)
        self.counts_circuit = build_workload("BV", "small")
        self.counts_params = params
        self.counts_shots = counts_shots
        self.counts_seed = COUNTS_SEED
        self.search = SearchDurable(size, scratch)

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        sampled = self._sampled_pass(tracer)
        search = self.search.run_pass()
        return PassResult({**sampled.segments, **search.segments},
                          {**sampled.outputs, **search.outputs},
                          {**sampled.extra, **search.extra})

    def _sampled_pass(self, tracer: Tracer | None) -> PassResult:
        outputs: Outputs = {}
        results = []
        start = time.perf_counter()
        engine = ExecutionEngine(workers=1)
        for spec in self.specs:
            with (tracer.span(SAMPLED_JOB_SPAN) if tracer is not None
                  else nullcontext()):
                results.append(run_sampled_job(spec, shards=self.SHARDS,
                                               engine=engine))
        compiled = LinQCompiler(self.counts_device, CompilerConfig()).compile(
            self.counts_circuit)
        counts_shot = TiltSimulator(
            self.counts_device, self.counts_params,
        ).run_stochastic(compiled, shots=self.counts_shots,
                         seed=self.counts_seed, sample_counts=True)
        end = time.perf_counter()
        shots = 0
        for spec, result in zip(self.specs, results):
            fields = _analytic_fields(result)
            fields.update(shots=result.shot.shots,
                          successes=result.shot.successes,
                          rate=result.simulation.success_rate)
            outputs[spec.label] = fields
            shots += result.shot.shots
        counts = sorted(counts_shot.counts.items())
        outputs["counts/bv/tilt"] = {
            "swaps": compiled.stats.num_swaps,
            "opposing_swaps": compiled.stats.num_opposing_swaps,
            "moves": compiled.stats.num_moves,
            "log10_success": counts_shot.analytic.log10_success_rate,
            "shots": counts_shot.shots,
            "successes": counts_shot.successes,
            "rate": counts_shot.analytic.success_rate,
            "counted_shots": sum(count for _, count in counts),
            "counts_sha256": hashlib.sha256(
                json.dumps(counts).encode()).hexdigest(),
        }
        shots += counts_shot.shots
        return PassResult({"sampled": (start, end)}, outputs,
                          {"shots": float(shots)})


class SearchDurable:
    """A durable analytic grid search: a cold pass that writes a run
    store, then a resumed pass on a fresh engine that reads it.  Its
    output labels start with ``search/``."""

    def __init__(self, size: str, scratch: str) -> None:
        self.scratch = scratch
        if size == "full":
            names = ("BV", "ADDER")
            knobs = (
                config_knob("max_swap_len", [1, 2, 3, 5, None]),
                config_knob("mapper", ["trivial", "spectral", "greedy"]),
                device_knob("head_size", [4, 6, 8]),
                scenario_knob(["baseline", "crosstalk", "leakage"]),
            )
        else:
            names = ("BV",)
            knobs = (
                config_knob("max_swap_len", [1, 3, None]),
                device_knob("head_size", [4, 8]),
                scenario_knob(["baseline", "crosstalk"]),
            )
        self.spaces = []
        for name in names:
            circuit = build_workload(name, "small")
            self.spaces.append((name, SearchSpace(
                circuit=circuit,
                device=TiltDevice(num_qubits=circuit.num_qubits,
                                  head_size=8),
                knobs=knobs,
            )))

    @staticmethod
    def _points(prefix: str, space: SearchSpace, result: Any) -> Outputs:
        return {
            f"{prefix}{space.describe(point.candidate)}": {
                "swaps": point.num_swaps,
                "moves": point.num_moves,
                "log10_success": point.log10_success,
                "execution_time_s": point.execution_time_s,
            }
            for point in result.points
        }

    def run_pass(self) -> PassResult:
        outputs: Outputs = {}
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            stores = [os.path.join(root, name) for name, _ in self.spaces]
            cold = []
            start = time.perf_counter()
            for (name, space), store in zip(self.spaces, stores):
                cold.append(run_search(space, GridStrategy(), store=store,
                                       workers=1))
            middle = time.perf_counter()
            resumed = []
            for (name, space), store in zip(self.spaces, stores):
                resumed.append(run_search(space, GridStrategy(),
                                          resume=store, workers=1))
            end = time.perf_counter()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        for (name, space), first, again in zip(self.spaces, cold, resumed):
            outputs.update(self._points(f"search/{name}/", space, first))
            # resumed points are checked against the same reference
            # entries as the cold ones (equal results), and their count
            # against the reference's (no point dropped, nothing executed)
            points = self._points(f"resume/search/{name}/", space, again)
            outputs.update(points)
            outputs[f"resume-executed/search/{name}"] = {
                "jobs_executed": int(again.engine_stats["jobs_executed"]),
                "points": len(points),
            }
        return PassResult({"cold": (start, middle), "resume": (middle, end)},
                          outputs)


WORKLOADS = ("paper-figures", "sampled-jobs")


def build(name: str, seed: int, size: str, scratch: str) -> Any:
    """Construct workload *name* (this is the timed set-up)."""
    if name == "paper-figures":
        return PaperFigures(seed, size)
    if name == "sampled-jobs":
        return SampledJobs(seed, size, scratch)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def reference_key(label: str) -> str:
    """The reference entry an output label is checked against."""
    return label[len("resume/"):] if label.startswith("resume/") else label


#: Output fields that depend on the shot seed (checked per seed).
SEEDED_FIELDS = ("successes", "counts_sha256")


def check_outputs(outputs: Outputs, reference: dict[str, Any],
                  seed: int) -> dict[str, list[str]]:
    """Problems per output label (labels without problems are absent).

    Seed-independent fields must equal the reference exactly; seeded
    fields must equal it when the reference recorded this seed; every
    sampled count must put its analytic rate inside a Wilson interval.
    """
    jobs = reference.get("jobs", {})
    seeded = reference.get("seeds", {}).get(str(seed))
    problems: dict[str, list[str]] = {}
    for label, fields in outputs.items():
        found = []
        expected = jobs.get(reference_key(label))
        if expected is None:
            found.append("no reference entry")
        else:
            for key, value in expected.items():
                if fields.get(key) != value:
                    found.append(f"{key}={fields.get(key)!r}, "
                                 f"reference {value!r}")
        if seeded is not None:
            for key, value in seeded.get(label, {}).items():
                if fields.get(key) != value:
                    found.append(f"{key}={fields.get(key)!r}, reference "
                                 f"{value!r} for seed {seed}")
        if "successes" in fields:
            low, high = wilson_interval(fields["successes"], fields["shots"],
                                        z=WILSON_Z)
            if not low <= fields["rate"] <= high:
                found.append(f"analytic rate {fields['rate']} outside the "
                             f"z={WILSON_Z} Wilson interval [{low}, {high}]")
        if "counted_shots" in fields and \
                fields["counted_shots"] != fields["shots"]:
            found.append("counts histogram does not sum to the shot count")
        if found:
            problems[label] = found
    return problems


def split_reference(outputs: Outputs) -> tuple[Outputs, Outputs]:
    """(seed-independent fields, seeded fields) of a pass's outputs, the
    two halves ``reference.json`` stores."""
    fixed: Outputs = {}
    seeded: Outputs = {}
    for label, fields in outputs.items():
        if label.startswith("resume/"):
            continue
        fixed[label] = {key: value for key, value in fields.items()
                        if key not in SEEDED_FIELDS}
        seeds = {key: value for key, value in fields.items()
                 if key in SEEDED_FIELDS}
        if seeds:
            seeded[label] = seeds
    return fixed, seeded

