"""The architecture adapter shared by the TILT, QCCD and Ideal-TI simulators.

A simulator only replays a program into a :class:`Timeline`
(``_timeline``); the analytic result, the error-site sampler and the
Monte-Carlo shot run are derived from that timeline here, once for all
architectures.  The public ``run`` / ``build_sampler`` /
``run_stochastic`` methods stay on each simulator class as thin
adapters, and :meth:`TimelineSimulator._sample` reaches the sampler
through ``self.build_sampler``, so anything wrapping a simulator's
public methods still sees every call.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence

from repro.arch.device import DeviceSpec
from repro.circuits.gate import Gate
from repro.compiler.pipeline import CompileResult
from repro.noise.channels import error_site_for_gate
from repro.noise.fidelity import SuccessRateAccumulator
from repro.noise.gate_times import gate_time_us
from repro.noise.parameters import NoiseParameters
from repro.noise.scenarios import (
    GatePoint,
    NoiseScenario,
    ShuttlePoint,
    TimelinePoint,
    build_scenario_sites,
    chain_spectators,
    resolve_scenario,
    scenario_analytics,
)
from repro.sim.result import SimulationResult
from repro.sim.stochastic import ShotResult, StochasticSampler


class Timeline:
    """One architecture's replay of one program, recorded gate by gate.

    ``gates`` are the executed gates in execution order and
    ``fidelities`` their Eq. 4 fidelities under the heating state each
    gate ran in; ``base`` is the independent-error (baseline)
    :class:`SimulationResult` and ``num_qubits`` the width counts
    sampling simulates, both set by :meth:`finish`.  ``points`` is the
    correlated-noise timeline (gates with their crosstalk spectators and
    burst window, shuttles as burst points); it is recorded only under a
    non-baseline scenario, so the baseline replay allocates no point
    objects.
    """

    def __init__(self, scenario: NoiseScenario) -> None:
        self.gates: list[Gate] = []
        self.fidelities: list[float] = []
        self.points: list[TimelinePoint] = []
        self.base: SimulationResult | None = None
        self.num_qubits = 0
        self.want_points = not scenario.is_baseline
        #: crosstalk reach in chain positions; 0 skips the spectator scan
        self.crosstalk_range = (scenario.crosstalk_range
                                if scenario.crosstalk_strength > 0.0 else 0)

    def add_gate(self, gate: Gate, fidelity: float, window: int = 0,
                 chain: Sequence[int] = ()) -> None:
        """Record an executed gate; *chain* lists, in physical order, the
        ions its crosstalk can reach (the laser window or the trap)."""
        if self.want_points:
            spectators = ()
            if self.crosstalk_range and gate.num_qubits == 2:
                spectators = chain_spectators(gate.qubits, chain,
                                              self.crosstalk_range)
            self.points.append(GatePoint(
                index=len(self.gates), gate=gate, fidelity=fidelity,
                spectators=spectators, window=window,
            ))
        self.gates.append(gate)
        self.fidelities.append(fidelity)

    def add_shuttle(self, move: int, window: int = 0) -> None:
        """Record the *move*-th shuttle, a heating-burst point."""
        if self.want_points:
            self.points.append(ShuttlePoint(move=move, window=window))

    def finish(self, num_qubits: int, **fields: Any) -> "Timeline":
        """Set the baseline result: the product of the recorded
        fidelities plus the architecture's result *fields*."""
        accumulator = SuccessRateAccumulator()
        for fidelity in self.fidelities:
            accumulator.add(fidelity)
        self.base = SimulationResult(
            success_rate=accumulator.success_rate,
            log10_success_rate=accumulator.log10_success_rate,
            average_gate_fidelity=accumulator.average_gate_fidelity,
            worst_gate_fidelity=accumulator.worst_gate_fidelity,
            **fields,
        )
        self.num_qubits = num_qubits
        return self


def critical_path_us(gates: Iterable[Gate], params: NoiseParameters
                     ) -> float:
    """Makespan of *gates* when every ion runs its own gates back to back."""
    finish_at: dict[int, float] = {}
    makespan = 0.0
    for gate in gates:
        start = max((finish_at.get(q, 0.0) for q in gate.qubits),
                    default=0.0)
        end = start + gate_time_us(gate, params)
        for qubit in gate.qubits:
            finish_at[qubit] = end
        makespan = max(makespan, end)
    return makespan


class TimelineSimulator:
    """Analytic and stochastic simulation derived from one :class:`Timeline`.

    A subclass implements ``_timeline(program, scenario, **naming)``,
    which replays *program* under the resolved *scenario* and returns
    its :class:`Timeline`; *naming* is the keyword its public methods
    take to name or prepare the program (``circuit_name`` /
    ``already_native``).  The hook is deliberately not stubbed here, so
    the call-graph linter resolves ``self._timeline`` to every builder.
    """

    def __init__(self, device: DeviceSpec,
                 params: NoiseParameters | None = None) -> None:
        self.device = device
        self.params = params or NoiseParameters.paper_defaults()

    def _analytic(self, program: Any, scenario: NoiseScenario | str | None,
                  **naming: Any) -> SimulationResult:
        scenario = resolve_scenario(scenario)
        timeline = self._timeline(program, scenario, **naming)
        if scenario.is_baseline:
            return timeline.base
        analytics = scenario_analytics(
            build_scenario_sites(timeline.points, scenario), scenario
        )
        return analytics.apply_to(timeline.base)

    def _sampler(self, program: Any, scenario: NoiseScenario | str | None,
                 analytic: SimulationResult | None,
                 **naming: Any) -> StochasticSampler:
        scenario = resolve_scenario(scenario)
        timeline = self._timeline(program, scenario, **naming)
        expected_rate = None
        if scenario.is_baseline:
            sites = []
            for index, (gate, fidelity) in enumerate(
                zip(timeline.gates, timeline.fidelities)
            ):
                site = error_site_for_gate(index, gate, fidelity)
                if site is not None:
                    sites.append(site)
            if analytic is None:
                analytic = timeline.base
        else:
            sites = build_scenario_sites(timeline.points, scenario)
            # one analytics pass serves both the analytic result and the
            # sampler's expected rate — the burst DP never runs twice
            analytics = scenario_analytics(sites, scenario)
            expected_rate = analytics.success_rate
            if analytic is None:
                analytic = analytics.apply_to(timeline.base)
        return StochasticSampler(
            architecture=timeline.base.architecture,
            circuit_name=timeline.base.circuit_name,
            sites=sites,
            gates=timeline.gates,
            num_qubits=timeline.num_qubits,
            analytic=analytic,
            burst_multiplier=scenario.burst_error_multiplier,
            expected_rate=expected_rate,
        )

    def _sample(self, program: Any, *, shots: int, seed: int,
                shot_offset: int, sample_counts: bool, max_records: int,
                analytic: SimulationResult | None,
                scenario: NoiseScenario | str | None,
                exhaustive_shots: bool, **naming: Any) -> ShotResult:
        # the annotation types the receiver for the call-graph linter:
        # an untyped method-call result would name-match every `.run`
        sampler: StochasticSampler = self.build_sampler(
            program, analytic=analytic, scenario=scenario, **naming
        )
        result = sampler.run(shots, seed=seed, shot_offset=shot_offset,
                             sample_counts=sample_counts,
                             max_records=max_records,
                             exhaustive_shots=exhaustive_shots)
        # a compile result carries the router's final mapping: report
        # its counts over logical qubits, not the physical wires
        if not isinstance(program, CompileResult) or result.counts is None:
            return result
        physical_of = program.final_mapping.logical_to_physical()
        relabelled: dict[str, int] = {}
        for bits, count in result.counts.items():
            logical_bits = "".join(bits[p] for p in physical_of)
            relabelled[logical_bits] = relabelled.get(logical_bits, 0) + count
        return dataclasses.replace(result, counts=relabelled)
