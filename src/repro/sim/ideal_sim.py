"""Ideal trapped-ion simulator.

The "Ideal TI" reference of Figure 8: every pair of ions can interact
directly (one laser pair per ion), so no SWAPs are inserted and the chain
never shuttles.  Gates still pay the distance-dependent AM gate time and its
background-heating error, and two-qubit gates still carry the residual error
epsilon, but the motional energy stays at zero.
"""

from __future__ import annotations

from repro.arch.ideal import IdealTrappedIonDevice
from repro.circuits.circuit import Circuit
from repro.compiler.decompose import lower_to_native
from repro.exceptions import SimulationError
from repro.noise.fidelity import gate_fidelity
from repro.noise.scenarios import NoiseScenario
from repro.sim._timeline import Timeline, TimelineSimulator, critical_path_us
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)


class IdealSimulator(TimelineSimulator):
    """Fidelity/time estimator for a fully connected trapped-ion device."""

    device: IdealTrappedIonDevice

    def run(self, circuit: Circuit, *,
            already_native: bool = False,
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Estimate success rate and run time of *circuit* on the ideal device.

        The ideal device never shuttles, so heating bursts are inert
        here; crosstalk (kicks on chain neighbours of each MS gate's
        operands) and leakage still apply under non-baseline *scenario*
        values.
        """
        return self._analytic(circuit, scenario,
                              already_native=already_native)

    def build_sampler(self, circuit: Circuit, *,
                      already_native: bool = False,
                      analytic: SimulationResult | None = None,
                      scenario: NoiseScenario | str | None = None,
                      ) -> StochasticSampler:
        """The :class:`StochasticSampler` of *circuit* on the ideal device.

        The site/gate/analytic derivation of :meth:`run_stochastic`
        without drawing a shot, for callers that sample one program
        repeatedly.
        """
        return self._sampler(circuit, scenario, analytic,
                             already_native=already_native)

    def run_stochastic(self, circuit: Circuit, *, shots: int, seed: int = 0,
                       shot_offset: int = 0, sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       already_native: bool = False,
                       analytic: SimulationResult | None = None,
                       scenario: NoiseScenario | str | None = None,
                       exhaustive_shots: bool = False) -> ShotResult:
        """Monte-Carlo sample the ideal device's (heating-free) noise.

        Same contract as :meth:`TiltSimulator.run_stochastic
        <repro.sim.tilt_sim.TiltSimulator.run_stochastic>` (including
        the ``exhaustive_shots`` reference mode); every gate sees zero
        motional quanta, matching :meth:`run`.  Non-baseline *scenario*
        values add crosstalk and leakage sites (bursts are inert — the
        ideal device never shuttles).
        """
        return self._sample(
            circuit, shots=shots, seed=seed, shot_offset=shot_offset,
            sample_counts=sample_counts, max_records=max_records,
            analytic=analytic, scenario=scenario,
            exhaustive_shots=exhaustive_shots, already_native=already_native,
        )

    def _timeline(self, circuit: Circuit, scenario: NoiseScenario,
                  already_native: bool = False) -> Timeline:
        """Run the native circuit gate by gate on one cold chain.

        Every gate sees zero motional quanta and the run time is the
        gates' critical path.  Every ion has its own laser pair but all
        ions share one chain, so crosstalk spectators are the chain
        neighbours of the gate's operands (by index distance); there are
        no shuttles and hence no burst windows.
        """
        if circuit.num_qubits > self.device.num_qubits:
            raise SimulationError(
                f"circuit needs {circuit.num_qubits} qubits but the device "
                f"has {self.device.num_qubits}"
            )
        native = circuit if already_native else lower_to_native(circuit)
        timeline = Timeline(scenario)
        all_ions = range(native.num_qubits)
        for gate in native:
            timeline.add_gate(gate, gate_fidelity(gate, 0.0, self.params),
                              0, all_ions)
        return timeline.finish(
            native.num_qubits,
            architecture="Ideal TI",
            circuit_name=circuit.name,
            execution_time_us=critical_path_us(timeline.gates, self.params),
            num_gates=native.num_gates(),
            num_two_qubit_gates=native.num_two_qubit_gates(),
            num_moves=0,
            move_distance_um=0.0,
        )
