"""Table III — LinQ compilation results.

Benchmarks the compiler's two expensive passes (swap insertion and tape
scheduling) per workload and head size — the t_swap / t_move columns of
Table III — and prints the full reproduced table (#moves, tape travel,
estimated execution time).
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.report import table3_report
from repro.arch.tilt import TiltDevice
from repro.compiler.decompose import decompose_to_native, merge_adjacent_rotations
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.schedule import TapeScheduler
from repro.compiler.swap_linq import LinqSwapInserter
from repro.workloads.suite import build_workload, standard_suite

WORKLOADS = [spec.name for spec in standard_suite()]
HEAD_INDEX = [0, 1]  # small and large head of the active scale


def _device(scale: str, name: str, head_index: int) -> TiltDevice:
    circuit = build_workload(name, scale)
    head = experiments.head_sizes_for(scale, circuit.num_qubits)[head_index]
    return TiltDevice(num_qubits=circuit.num_qubits, head_size=head)


@pytest.mark.parametrize("head_index", HEAD_INDEX)
@pytest.mark.parametrize("name", WORKLOADS)
def test_swap_insertion_time(benchmark, name, head_index, scale):
    """t_swap: routing time for one workload / head size."""
    circuit = build_workload(name, scale)
    device = _device(scale, name, head_index)
    native = merge_adjacent_rotations(decompose_to_native(circuit))
    router = LinqSwapInserter(device)
    result = benchmark.pedantic(router.route, args=(native,),
                                iterations=1, rounds=1)
    assert result.circuit.num_gates() >= native.num_gates()


@pytest.mark.parametrize("head_index", HEAD_INDEX)
@pytest.mark.parametrize("name", WORKLOADS)
def test_tape_scheduling_time(benchmark, name, head_index, scale):
    """t_move: scheduling time for one workload / head size."""
    circuit = build_workload(name, scale)
    device = _device(scale, name, head_index)
    native = merge_adjacent_rotations(decompose_to_native(circuit))
    routed = LinqSwapInserter(device).route(native).circuit
    scheduler = TapeScheduler(device)
    program = benchmark.pedantic(scheduler.schedule, args=(routed,),
                                 iterations=1, rounds=1)
    assert program.num_scheduled_gates == len(routed)


def test_table3_report_and_trends(scale):
    """A wider head needs fewer moves and shorter travel for every workload."""
    rows = experiments.table3(scale)
    by_workload: dict[str, list] = {}
    for row in rows:
        by_workload.setdefault(row.workload, []).append(row)
    for name, pair in by_workload.items():
        small_head, large_head = sorted(pair, key=lambda r: r.head_size)
        assert large_head.num_moves <= small_head.num_moves, name
        assert large_head.move_distance_um <= small_head.move_distance_um, name
    print()
    print(table3_report(scale))


def test_full_pipeline_compile(benchmark, scale):
    """End-to-end compile of the heaviest workload (QFT) at the small head."""
    circuit = build_workload("QFT", scale)
    device = _device(scale, "QFT", 0)
    compiler = LinQCompiler(device, CompilerConfig())
    result = benchmark.pedantic(compiler.compile, args=(circuit,),
                                iterations=1, rounds=1)
    result.program.validate()


def test_engine_batch_compile(benchmark, scale, noise):
    """The same Table III jobs submitted as one engine batch."""
    from repro.analysis.experiments import head_sizes_for
    from repro.exec import ExecutionEngine, JobSpec, clear_stage_memos

    specs = []
    for name in WORKLOADS:
        circuit = build_workload(name, scale)
        for head in head_sizes_for(scale, circuit.num_qubits):
            device = TiltDevice(num_qubits=circuit.num_qubits, head_size=head)
            specs.append(JobSpec(circuit=circuit, device=device, noise=noise))

    engine = ExecutionEngine(workers=1)
    results = benchmark.pedantic(engine.run, args=(specs,),
                                 setup=clear_stage_memos,
                                 iterations=1, rounds=1)
    assert len(results) == len(specs)
    benchmark.extra_info["engine"] = engine.stats.summary()
