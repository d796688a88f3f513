"""Noisy QCCD simulator.

Replays a :class:`~repro.compiler.qccd_compiler.QccdProgram` against the
same Eq. 4 fidelity model used for TILT, but with per-trap heating state:
every split/segment-hop/merge primitive deposits ``qccd_shuttle_quanta``
(about 2 quanta in Honeywell's published characterisation) into the affected
chain.  After each completed transport the affected chains are sympathetically
re-cooled by ``qccd_cooling_factor`` — QCCD traps are small and include
coolant ions, so (unlike a full-tape shuttle) their motional energy does not
grow without bound.  Ion extraction is modelled as a split at the ion's
position (the recorded ``swap_to_edge_gates`` are reported but carry no gate
error).  This is a simplified re-implementation of the Murali et al. [64]
QCCD cost model sufficient for the Figure 8 architecture comparison; the
substitutions it makes are the ones listed above.
"""

from __future__ import annotations

from repro.arch.qccd import QccdDevice
from repro.compiler.qccd_compiler import (
    QccdGateEvent,
    QccdProgram,
    QccdShuttleEvent,
)
from repro.exceptions import SimulationError
from repro.noise.fidelity import gate_fidelity
from repro.noise.gate_times import gate_time_us, two_qubit_gate_time_us
from repro.noise.heating import ChainHeatingState
from repro.noise.scenarios import NoiseScenario
from repro.sim._timeline import Timeline, TimelineSimulator
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)

#: Rough durations of QCCD shuttling primitives in microseconds (same order
#: of magnitude as the timings used by Murali et al.).
SPLIT_TIME_US = 80.0
MERGE_TIME_US = 80.0
SEGMENT_HOP_TIME_US = 100.0
COOLING_TIME_US = 100.0


class QccdSimulator(TimelineSimulator):
    """Success-rate estimator for compiled QCCD programs."""

    device: QccdDevice

    def run(self, program: QccdProgram,
            *, circuit_name: str = "circuit",
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Replay *program*, accumulating heating and gate fidelities.

        Non-baseline *scenario* values adjust the success rate with the
        exact correlated-noise analytics (crosstalk inside each trap,
        leakage, per-transport heating bursts) and surface per-mechanism
        site telemetry in ``extras``.
        """
        return self._analytic(program, scenario, circuit_name=circuit_name)

    def build_sampler(self, program: QccdProgram, *,
                      circuit_name: str = "circuit",
                      analytic: SimulationResult | None = None,
                      scenario: NoiseScenario | str | None = None,
                      ) -> StochasticSampler:
        """The :class:`StochasticSampler` of one QCCD program.

        The site/gate/analytic derivation of :meth:`run_stochastic`
        without drawing a shot, for callers that sample one program
        repeatedly.
        """
        return self._sampler(program, scenario, analytic,
                             circuit_name=circuit_name)

    def run_stochastic(self, program: QccdProgram,
                       *, shots: int, seed: int = 0, shot_offset: int = 0,
                       sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       circuit_name: str = "circuit",
                       analytic: SimulationResult | None = None,
                       scenario: NoiseScenario | str | None = None,
                       exhaustive_shots: bool = False) -> ShotResult:
        """Monte-Carlo sample the program's noise, shot by shot.

        Same contract as :meth:`TiltSimulator.run_stochastic
        <repro.sim.tilt_sim.TiltSimulator.run_stochastic>` (including
        the ``exhaustive_shots`` reference mode): per-trap heating
        fidelities become stochastic Pauli channels and every shot draws
        from its own ``(seed, shot index)`` generator.  Counts sampling
        uses the program's gates over the physical ion indices.
        Non-baseline *scenario* values add in-trap crosstalk, leakage
        and per-transport heating-burst sites.
        """
        return self._sample(
            program, shots=shots, seed=seed, shot_offset=shot_offset,
            sample_counts=sample_counts, max_records=max_records,
            analytic=analytic, scenario=scenario,
            exhaustive_shots=exhaustive_shots, circuit_name=circuit_name,
        )

    # ------------------------------------------------------------------
    # The QCCD timeline
    # ------------------------------------------------------------------
    def _timeline(self, program: QccdProgram, scenario: NoiseScenario,
                  circuit_name: str = "circuit") -> Timeline:
        """Replay *program* event by event with per-trap heating state.

        Under a non-baseline *scenario* the replay also records the
        correlated-noise timeline: crosstalk spectators are the other
        ions sharing the trap at gate time (with their in-chain distance
        to the nearest operand), the trap index is the burst-coupling
        window, and every transport is a shuttle point.  QCCD's
        per-transport sympathetic cooling is *partial*
        (``qccd_cooling_factor``), so it never clears an active burst —
        windows span the whole program.  The per-trap heating counters
        that survive every cooling event land in the result's extras.
        """
        if program.device.num_qubits != self.device.num_qubits:
            raise SimulationError("program compiled for a different device")

        params = self.params
        members = [list(trap) for trap in self.device.initial_layout()]
        chains = {
            trap: ChainHeatingState(params, max(1, len(ions)))
            for trap, ions in enumerate(members)
        }
        timeline = Timeline(scenario)
        execution_time_us = 0.0
        num_two_qubit = 0
        transports = 0
        for event in program.events:
            if isinstance(event, QccdGateEvent):
                chain = chains[event.trap]
                gate = event.gate
                if gate.num_qubits == 2:
                    num_two_qubit += 1
                    duration = two_qubit_gate_time_us(
                        max(1, event.distance), params
                    )
                    fidelity = gate_fidelity(gate, chain.quanta, params)
                else:
                    duration = gate_time_us(gate, params)
                    fidelity = gate_fidelity(gate, 0.0, params)
                timeline.add_gate(gate, fidelity, event.trap,
                                  members[event.trap])
                execution_time_us += duration
            elif isinstance(event, QccdShuttleEvent):
                execution_time_us += self._shuttle_time_us(event)
                source = chains[event.source_trap]
                dest = chains[event.dest_trap]
                source.record_qccd_primitive(event.splits)
                dest.record_qccd_primitive(event.hops + event.merges)
                # Sympathetic cooling after the transport settles.
                source.apply_cooling()
                dest.apply_cooling()
                execution_time_us += COOLING_TIME_US
                # Membership only feeds crosstalk spectator lookup, so
                # the per-transport maintenance is skipped otherwise.
                if (timeline.crosstalk_range
                        and event.qubit in members[event.source_trap]):
                    members[event.source_trap].remove(event.qubit)
                    members[event.dest_trap].append(event.qubit)
                transports += 1
                # The deposited burst heats the chain the ion merged into.
                timeline.add_shuttle(transports, event.dest_trap)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown QCCD event {event!r}")
        extras = {f"trap_{t}_quanta": chain.quanta
                  for t, chain in chains.items()}
        extras.update({f"trap_{t}_qccd_ops": float(chain.num_qccd_ops)
                       for t, chain in chains.items()})
        return timeline.finish(
            self.device.num_qubits,
            architecture="QCCD",
            circuit_name=circuit_name,
            execution_time_us=execution_time_us,
            num_gates=len(timeline.gates),
            num_two_qubit_gates=num_two_qubit,
            num_moves=program.num_shuttles,
            move_distance_um=0.0,
            extras=extras,
        )

    @staticmethod
    def _shuttle_time_us(event: QccdShuttleEvent) -> float:
        """Duration of one transport (split + hops + merge)."""
        return (
            event.splits * SPLIT_TIME_US
            + event.hops * SEGMENT_HOP_TIME_US
            + event.merges * MERGE_TIME_US
        )
