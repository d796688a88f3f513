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
from repro.noise.channels import error_site_for_gate
from repro.noise.fidelity import SuccessRateAccumulator, gate_fidelity
from repro.noise.gate_times import gate_time_us
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import (
    GatePoint,
    NoiseScenario,
    TimelinePoint,
    build_scenario_sites,
    chain_spectators,
    resolve_scenario,
    scenario_analytics,
)
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)


class IdealSimulator:
    """Fidelity/time estimator for a fully connected trapped-ion device."""

    def __init__(self, device: IdealTrappedIonDevice,
                 params: NoiseParameters | None = None) -> None:
        self.device = device
        self.params = params or NoiseParameters.paper_defaults()

    def _native(self, circuit: Circuit, already_native: bool) -> Circuit:
        if circuit.num_qubits > self.device.num_qubits:
            raise SimulationError(
                f"circuit needs {circuit.num_qubits} qubits but the device "
                f"has {self.device.num_qubits}"
            )
        return circuit if already_native else lower_to_native(circuit)

    def run(self, circuit: Circuit, *,
            already_native: bool = False,
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Estimate success rate and run time of *circuit* on the ideal device.

        The ideal device never shuttles, so heating bursts are inert
        here; crosstalk (kicks on chain neighbours of each MS gate's
        operands) and leakage still apply under non-baseline *scenario*
        values.
        """
        scenario = resolve_scenario(scenario)
        native = self._native(circuit, already_native)
        result = self._result_from_native(circuit.name, native)
        if scenario.is_baseline:
            return result
        analytics = scenario_analytics(
            build_scenario_sites(self.scenario_points(native, scenario),
                                 scenario),
            scenario,
        )
        return analytics.apply_to(result)

    def scenario_points(self, native: Circuit,
                        scenario: NoiseScenario) -> list[TimelinePoint]:
        """The correlated-noise timeline of a native circuit.

        Every ion has its own laser pair but all ions share one chain, so
        crosstalk spectators are the chain neighbours of the gate's
        operands (by index distance); there are no shuttles and hence no
        burst windows.
        """
        want_spectators = scenario.crosstalk_strength > 0.0
        all_ions = range(native.num_qubits)
        points: list[TimelinePoint] = []
        for index, gate in enumerate(native):
            spectators = ()
            if want_spectators and gate.num_qubits == 2:
                spectators = chain_spectators(
                    gate.qubits, all_ions, scenario.crosstalk_range
                )
            points.append(GatePoint(
                index=index,
                gate=gate,
                fidelity=gate_fidelity(gate, 0.0, self.params),
                spectators=spectators,
            ))
        return points

    def _result_from_native(self, name: str,
                            native: Circuit) -> SimulationResult:
        accumulator = SuccessRateAccumulator()
        finish_at: dict[int, float] = {}
        total_time = 0.0
        for gate in native:
            accumulator.add(gate_fidelity(gate, 0.0, self.params))
            duration = gate_time_us(gate, self.params)
            start = max((finish_at.get(q, 0.0) for q in gate.qubits), default=0.0)
            end = start + duration
            for qubit in gate.qubits:
                finish_at[qubit] = end
            total_time = max(total_time, end)
        return SimulationResult(
            architecture="Ideal TI",
            circuit_name=name,
            success_rate=accumulator.success_rate,
            log10_success_rate=accumulator.log10_success_rate,
            execution_time_us=total_time,
            num_gates=native.num_gates(),
            num_two_qubit_gates=native.num_two_qubit_gates(),
            num_moves=0,
            move_distance_um=0.0,
            average_gate_fidelity=accumulator.average_gate_fidelity,
            worst_gate_fidelity=accumulator.worst_gate_fidelity,
        )

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
        scenario = resolve_scenario(scenario)
        native = self._native(circuit, already_native)
        gates = list(native)
        expected_rate = None
        if scenario.is_baseline:
            sites = []
            for index, gate in enumerate(gates):
                fidelity = gate_fidelity(gate, 0.0, self.params)
                site = error_site_for_gate(index, gate, fidelity)
                if site is not None:
                    sites.append(site)
            if analytic is None:
                analytic = self._result_from_native(circuit.name, native)
        else:
            sites = build_scenario_sites(
                self.scenario_points(native, scenario), scenario
            )
            analytics = scenario_analytics(sites, scenario)
            expected_rate = analytics.success_rate
            if analytic is None:
                base = self._result_from_native(circuit.name, native)
                analytic = analytics.apply_to(base)
        return StochasticSampler(
            architecture="Ideal TI",
            circuit_name=circuit.name,
            sites=sites,
            gates=gates,
            num_qubits=native.num_qubits,
            analytic=analytic,
            burst_multiplier=scenario.burst_error_multiplier,
            expected_rate=expected_rate,
        )

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
        # the annotation types the receiver for the call-graph linter:
        # an untyped method-call result would name-match every `.run`
        sampler: StochasticSampler = self.build_sampler(circuit, already_native=already_native,
                                     analytic=analytic, scenario=scenario)
        return sampler.run(shots, seed=seed, shot_offset=shot_offset,
                           sample_counts=sample_counts,
                           max_records=max_records,
                           exhaustive_shots=exhaustive_shots)
