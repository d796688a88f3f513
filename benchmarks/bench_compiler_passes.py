"""Micro-benchmarks of the individual compiler passes and simulators.

These are pure performance benchmarks (no figure attached): they track the
cost of decomposition, routing, scheduling, and the two noisy simulators on
the QFT workload so performance regressions in the toolflow are caught.
"""

from __future__ import annotations

from repro.analysis import experiments
from repro.arch.qccd import QccdDevice
from repro.compiler.decompose import decompose_to_native, merge_adjacent_rotations
from repro.compiler.pipeline import LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.noise.parameters import NoiseParameters
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.statevector import StatevectorSimulator
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.qft import qft_workload
from repro.workloads.suite import build_workload


def test_native_decomposition(benchmark, scale):
    # the unmemoised passes, so the layer is timed rather than a memo hit
    circuit = build_workload("QFT", scale)
    native = benchmark(lambda: merge_adjacent_rotations(
        decompose_to_native(circuit)))
    assert native.num_two_qubit_gates() > 0


def test_tilt_simulation(benchmark, scale, noise):
    circuit = build_workload("QFT", scale)
    device = experiments.device_for(scale, "QFT")
    compiled = LinQCompiler(device).compile(circuit)
    simulator = TiltSimulator(device, noise)
    # repro-lint: disable=RPR002 -- micro-benchmark of the raw TILT simulator hot path; the engine's execute_spec would fold compile time and cache bookkeeping into the measurement
    result = benchmark(lambda: simulator.run(compiled))
    assert 0.0 <= result.success_rate <= 1.0


def test_qccd_compile_and_simulate(benchmark, scale, noise):
    circuit = build_workload("QFT", scale)
    capacity = 17 if scale == "paper" else 5
    device = QccdDevice(num_qubits=circuit.num_qubits, trap_capacity=capacity)
    program = QccdCompiler(device).compile(circuit)
    simulator = QccdSimulator(device, noise)
    # repro-lint: disable=RPR002 -- micro-benchmark of the raw QCCD simulator hot path, isolated from compile and engine overhead by design
    result = benchmark(lambda: simulator.run(program))
    assert result.num_moves > 0


def test_statevector_simulation(benchmark):
    """Exact simulation of a 12-qubit QFT (fixed size, scale-independent)."""
    circuit = qft_workload(12)
    simulator = StatevectorSimulator()
    # repro-lint: disable=RPR002 -- micro-benchmark of the raw statevector kernel (the ROADMAP vectorisation target); must time simulator.run alone
    state = benchmark(lambda: simulator.run(circuit))
    assert abs(abs(state[0]) ** 2 - 1 / 4096) < 1e-9


def test_noise_model_evaluation(benchmark):
    """Raw throughput of the Eq. 3/4 evaluation loop."""
    from repro.circuits.gate import Gate
    from repro.noise.fidelity import gate_fidelity

    params = NoiseParameters()
    gate = Gate("xx", (0, 5), (0.3,))

    def evaluate() -> float:
        total = 0.0
        for quanta in range(200):
            total += gate_fidelity(gate, float(quanta), params)
        return total

    total = benchmark(evaluate)
    assert total > 0
