"""In-memory span tracing around the public entry points of each layer.

The traced pass of the benchmark installs wrappers on the functions and
methods each layer exposes, at the modules that call them, records one
span per call (name, start, end, parent span, run id, a few attributes)
and removes every wrapper when the pass ends.  The untraced pass runs the
program unpatched.  Nothing here changes what a wrapped call computes:
each wrapper calls the original with the same arguments and returns its
result unchanged.

:func:`layer_metrics` folds the spans of one run into the per-layer
metrics the benchmark reports; a layer's time is the *self* time of its
spans (duration minus the time covered by direct child spans).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    """One recorded call: times are ``time.perf_counter`` seconds."""

    name: str
    start: float
    parent: int | None
    run: str
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; single-threaded (serial engine only)."""

    def __init__(self, run: str) -> None:
        self.spans: list[Span] = []
        self.run = run
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.finish(index)

    def wrap(self, name: str, fn: Callable[..., Any],
             after: Callable[..., dict[str, Any]] | None = None,
             before: Callable[..., Any] | None = None) -> Callable[..., Any]:
        """*fn* recorded as span *name*.

        ``before(args, kwargs)`` runs ahead of the span and its return
        value is handed to ``after(args, kwargs, result, state)``, which
        runs once the span has ended and returns attributes for it.  Both
        hooks stay outside the span's interval, so their cost lands in
        the parent's self time, not the layer's.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(index)
            if after is not None:
                tracer.spans[index].attrs.update(
                    after(args, kwargs, result, state)
                )
            return result

        return traced


def write_spans(path: str, tracers: list[Tracer]) -> None:
    """Write the spans of *tracers* as JSON lines, times relative to the
    first span of each run; attributes are reduced to JSON scalars (the
    object references kept for the metrics are dropped)."""
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            origin = tracer.spans[0].start if tracer.spans else 0.0
            for index, span in enumerate(tracer.spans):
                attrs = {key: value for key, value in span.attrs.items()
                         if isinstance(value, (int, float, str, bool))}
                handle.write(json.dumps({
                    "run": span.run, "id": index, "name": span.name,
                    "parent": span.parent,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin, "attrs": attrs,
                }, separators=(",", ":")) + "\n")


class Patches:
    """Installed wrappers, removed again by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def method(self, cls: type, attr: str, wrapper: Callable[..., Any]
               ) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def function(self, original: Callable[..., Any],
                 wrapper: Callable[..., Any]) -> None:
        """Rebind *original* in every loaded ``repro`` module naming it."""
        name = original.__name__
        for module_name, module in list(sys.modules.items()):
            if (module_name == "repro" or module_name.startswith("repro.")) \
                    and getattr(module, name, None) is original:
                self._saved.append((module, name, original))
                setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _circuit_key(circuit: Any) -> tuple[Any, ...]:
    return (circuit.num_qubits, tuple(circuit))


class _CircuitRef:
    """Defers fingerprinting a circuit until the metrics are computed, so
    the traced pass does not pay for it inside any layer's interval."""

    __slots__ = ("circuit",)

    def __init__(self, circuit: Any) -> None:
        self.circuit = circuit

    def key(self) -> tuple[Any, ...]:
        return _circuit_key(self.circuit)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap each layer's entry points for the duration of the block."""
    from repro.compiler import decompose, mapping, pipeline, schedule
    from repro.compiler.qccd_compiler import QccdCompiler
    from repro.compiler.swap_baseline import BaselineSwapInserter
    from repro.compiler.swap_linq import LinqSwapInserter
    from repro.exec import backends, engine, jobs, store
    from repro.search.space import SearchSpace
    from repro.sim import ideal_sim, qccd_sim, statevector, stochastic, tilt_sim

    patches = Patches()
    wrap = tracer.wrap

    def method(cls: type, attr: str, name: str, **hooks: Any) -> None:
        patches.method(cls, attr, wrap(name, cls.__dict__[attr], **hooks))

    def function(fn: Callable[..., Any], name: str, **hooks: Any) -> None:
        patches.function(fn, wrap(name, fn, **hooks))

    # repro.compiler
    function(decompose.decompose_to_native, "compiler.decompose",
             after=lambda a, k, r, s: {"input": a[0]})
    for cls in (mapping.TrivialMapper, mapping.SpectralMapper,
                mapping.GreedyInteractionMapper):
        method(cls, "map", "compiler.map")
    method(LinqSwapInserter, "route", "compiler.route")
    method(BaselineSwapInserter, "route", "compiler.route")
    method(schedule.TapeScheduler, "schedule", "compiler.schedule")
    method(pipeline.LinQCompiler, "compile", "compiler.linq",
           after=lambda a, k, r, s: {
               "program": ("linq", _CircuitRef(a[1]), a[0].device,
                           a[0].config),
               "swaps": r.stats.num_swaps,
               "opposing_swaps": r.stats.num_opposing_swaps,
               "tape_moves": r.stats.num_moves,
           })
    method(QccdCompiler, "compile", "compiler.qccd",
           after=lambda a, k, r, s: {
               "program": ("qccd", _CircuitRef(a[1]), a[0].device,
                           a[0].merge_rotations),
               "shuttles": r.num_shuttles,
           })
    # repro.sim
    for sim_cls in (tilt_sim.TiltSimulator, qccd_sim.QccdSimulator,
                    ideal_sim.IdealSimulator):
        method(sim_cls, "run", "sim.analytic")
        method(sim_cls, "build_sampler", "sampler.build")
    method(stochastic.StochasticSampler, "run", "sampler.draw",
           after=lambda a, k, r, s: {"shots": r.shots})
    method(statevector.StatevectorSimulator, "run", "statevector",
           after=lambda a, k, r, s: {"patterns": 1})
    method(statevector.StatevectorSimulator, "run_batch", "statevector",
           after=lambda a, k, r, s: {"patterns": len(a[1])})
    function(statevector.batch_probabilities_with_insertions, "statevector",
             after=lambda a, k, r, s: {"patterns": len(r)})
    # repro.exec
    function(jobs.spec_key, "exec.hash")
    function(backends.execute_spec, "exec.job")
    method(engine.ExecutionEngine, "run", "exec.engine_run",
           before=lambda a, k: a[0].stats.to_dict(),
           after=_engine_delta)
    function(stochastic.merge_shot_results, "exec.merge")
    method(store.RunStore, "store", "store.append",
           before=lambda a, k: _size(a[0].segment_path),
           after=lambda a, k, r, s: {
               "bytes": _size(a[0].segment_path) - s})
    method(store.RunStore, "reload", "store.load")
    method(store.RunStore, "write_manifest", "store.manifest",
           after=lambda a, k, r, s: {"bytes": _size(r)})
    # repro.search
    method(SearchSpace, "build_spec", "search.spec_build")
    try:
        yield
    finally:
        patches.restore()


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _engine_delta(args: tuple[Any, ...], kwargs: dict[str, Any],
                  result: Any, before: dict[str, float]) -> dict[str, Any]:
    after = args[0].stats.to_dict()
    return {name: after[name] - before[name]
            for name in ("jobs_submitted", "cache_hits", "deduplicated")}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric name -> unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "compiler.decompose_s": "s",
    "compiler.decompose_calls": "count",
    "compiler.decompose_unique_ratio": "ratio",
    "compiler.map_s": "s",
    "compiler.route_s": "s",
    "compiler.swaps": "count",
    "compiler.opposing_swap_ratio": "ratio",
    "compiler.schedule_s": "s",
    "compiler.tape_moves": "count",
    "compiler.qccd_s": "s",
    "compiler.qccd_shuttles": "count",
    "compiler.compiles_per_unique_program": "ratio",
    "sim.analytic_s": "s",
    "sampler.build_s": "s",
    "sampler.draw_s": "s",
    "sampler.shots": "count",
    "statevector.s": "s",
    "statevector.patterns": "count",
    "statevector.patterns_per_1k_shots": "ratio",
    "exec.hash_s": "s",
    "exec.hash_calls_per_job": "ratio",
    "exec.engine_overhead_s": "s",
    "exec.cache_hit_ratio": "ratio",
    "exec.dedup_ratio": "ratio",
    "exec.job_p50_ms": "ms",
    "exec.job_tail_ms": "ms",
    "exec.job_samples": "count",
    "exec.compiles_per_sampled_job": "ratio",
    "exec.merge_s": "s",
    "store.append_s": "s",
    "store.load_s": "s",
    "store.manifest_s": "s",
    "store.bytes_written": "bytes",
    "search.spec_build_s": "s",
    "search.spec_builds": "count",
    "bench.trace_overhead_ratio": "ratio",
}

#: Metrics that must repeat exactly across two traced runs: counts of
#: program work and ratios of such counts.  Times, byte counts (store
#: records carry float timings of varying length) and the overhead
#: ratio are excluded.
EXACT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "ratio") and name != "bench.trace_overhead_ratio"
)

#: Span name -> the per-layer time metric its self time adds to.
_SELF_TIME = {
    "compiler.decompose": "compiler.decompose_s",
    "compiler.map": "compiler.map_s",
    "compiler.route": "compiler.route_s",
    "compiler.schedule": "compiler.schedule_s",
    "compiler.qccd": "compiler.qccd_s",
    "sim.analytic": "sim.analytic_s",
    "sampler.build": "sampler.build_s",
    "sampler.draw": "sampler.draw_s",
    "statevector": "statevector.s",
    "exec.hash": "exec.hash_s",
    "exec.merge": "exec.merge_s",
    "store.append": "store.append_s",
    "store.load": "store.load_s",
    "store.manifest": "store.manifest_s",
    "search.spec_build": "search.spec_build_s",
}

#: Name of the benchmark's own span around each sampled job.
SAMPLED_JOB_SPAN = "bench.sampled_job"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail_percentile(count: int) -> float:
    """Highest reported percentile with at least ten samples beyond it
    (the median when there are too few samples for any of them)."""
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - percentile) / 100.0 >= 10:
            return percentile
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold the spans of one traced pass into :data:`LAYER_METRICS`
    (without ``bench.trace_overhead_ratio``, which needs two passes)."""
    metrics = {name: 0.0 for name in LAYER_METRICS}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    circuits: list[tuple[Any, ...]] = []
    programs: list[tuple[Any, ...]] = []
    swaps = opposing = 0
    job_times: list[float] = []
    engine_time = 0.0
    sampled_jobs = sampled_decompositions = 0
    submitted = 0  # jobs submitted to engines, the base of the exec ratios
    for index, span in enumerate(spans):
        name = span.name
        self_time = span.duration - child_time[index]
        if name in _SELF_TIME:
            metrics[_SELF_TIME[name]] += self_time
        attrs = span.attrs
        if name == "compiler.decompose":
            circuits.append(_circuit_key(attrs["input"]))
            if _has_ancestor(spans, index, SAMPLED_JOB_SPAN):
                sampled_decompositions += 1
        elif name == "compiler.linq":
            kind, circuit, device, config = attrs["program"]
            programs.append((kind, circuit.key(), repr(device), repr(config)))
            swaps += attrs["swaps"]
            opposing += attrs["opposing_swaps"]
            metrics["compiler.tape_moves"] += attrs["tape_moves"]
        elif name == "compiler.qccd":
            kind, circuit, device, config = attrs["program"]
            programs.append((kind, circuit.key(), repr(device), repr(config)))
            metrics["compiler.qccd_shuttles"] += attrs["shuttles"]
        elif name == "sampler.draw":
            metrics["sampler.shots"] += attrs["shots"]
        elif name == "statevector":
            parent = span.parent
            if parent is None or spans[parent].name != "statevector":
                metrics["statevector.patterns"] += attrs["patterns"]
        elif name == "exec.hash":
            metrics["exec.hash_calls_per_job"] += 1  # normalised below
        elif name == "exec.job":
            job_times.append(span.duration)
        elif name == "exec.engine_run":
            engine_time += span.duration
            submitted += attrs["jobs_submitted"]
            metrics["exec.cache_hit_ratio"] += attrs["cache_hits"]
            metrics["exec.dedup_ratio"] += attrs["deduplicated"]
        elif name in ("store.append", "store.manifest"):
            metrics["store.bytes_written"] += attrs["bytes"]
        elif name == "search.spec_build":
            metrics["search.spec_builds"] += 1
        elif name == SAMPLED_JOB_SPAN:
            sampled_jobs += 1
    metrics["compiler.decompose_calls"] = float(len(circuits))
    metrics["compiler.decompose_unique_ratio"] = _ratio(
        len(set(circuits)), len(circuits))
    metrics["compiler.swaps"] = float(swaps)
    metrics["compiler.opposing_swap_ratio"] = _ratio(opposing, swaps)
    metrics["compiler.compiles_per_unique_program"] = _ratio(
        len(programs), len(set(programs)))
    metrics["statevector.patterns_per_1k_shots"] = _ratio(
        metrics["statevector.patterns"] * 1000.0, metrics["sampler.shots"])
    metrics["exec.hash_calls_per_job"] = _ratio(
        metrics["exec.hash_calls_per_job"], submitted)
    metrics["exec.engine_overhead_s"] = engine_time - sum(job_times)
    metrics["exec.cache_hit_ratio"] = _ratio(
        metrics["exec.cache_hit_ratio"], submitted)
    metrics["exec.dedup_ratio"] = _ratio(metrics["exec.dedup_ratio"],
                                         submitted)
    job_ms = [seconds * 1000.0 for seconds in job_times]
    metrics["exec.job_p50_ms"] = percentile(job_ms, 50.0)
    metrics["exec.job_tail_ms"] = percentile(
        job_ms, tail_percentile(len(job_ms)))
    metrics["exec.job_samples"] = float(len(job_ms))
    metrics["exec.compiles_per_sampled_job"] = _ratio(
        sampled_decompositions, sampled_jobs)
    return metrics


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
