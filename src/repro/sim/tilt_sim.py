"""Noisy TILT simulator (Section IV-E).

Replays an :class:`~repro.compiler.executable.ExecutableProgram` against the
heating-aware fidelity model: every gate in segment *m* (i.e. after *m* tape
moves) sees a chain with ``m * k`` motional quanta and its fidelity follows
Eq. 4; the program success rate is the product of all gate fidelities.  The
execution-time estimate follows Eq. 5: tape travel at the shuttling speed
plus the critical path of gate durations.
"""

from __future__ import annotations

from repro.arch.tilt import TiltDevice
from repro.compiler.executable import ExecutableProgram
from repro.compiler.pipeline import CompileResult
from repro.exceptions import SimulationError
from repro.noise.fidelity import gate_fidelity
from repro.noise.heating import quanta_after_moves
from repro.noise.scenarios import NoiseScenario
from repro.sim._timeline import Timeline, TimelineSimulator, critical_path_us
from repro.sim.result import SimulationResult
from repro.sim.stochastic import (
    DEFAULT_MAX_RECORDS,
    ShotResult,
    StochasticSampler,
)


class TiltSimulator(TimelineSimulator):
    """Success-rate and execution-time estimator for compiled TILT programs."""

    device: TiltDevice

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, program: ExecutableProgram | CompileResult,
            *, circuit_name: str | None = None,
            scenario: NoiseScenario | str | None = None) -> SimulationResult:
        """Simulate a scheduled program (or a full compile result).

        *scenario* selects a correlated-noise scenario (a registered name
        or a :class:`~repro.noise.scenarios.NoiseScenario`); ``None`` or
        ``"baseline"`` reproduces the paper's independent-error model
        exactly.  Non-baseline scenarios adjust the success rate with the
        exact correlated-noise analytics and surface per-mechanism site
        telemetry in ``extras``.
        """
        return self._analytic(program, scenario, circuit_name=circuit_name)

    def build_sampler(self, program: ExecutableProgram | CompileResult,
                      *, circuit_name: str | None = None,
                      analytic: SimulationResult | None = None,
                      scenario: NoiseScenario | str | None = None,
                      ) -> StochasticSampler:
        """The :class:`StochasticSampler` of one executed program.

        Everything :meth:`run_stochastic` derives from the program —
        error sites, the executed gate sequence, the analytic reference
        — without drawing a single shot, so callers that sample the same
        program repeatedly (shard fan-outs, throughput benchmarks) can
        reuse one sampler across ``run`` calls.
        """
        return self._sampler(program, scenario, analytic,
                             circuit_name=circuit_name)

    def run_stochastic(self, program: ExecutableProgram | CompileResult,
                       *, shots: int, seed: int = 0, shot_offset: int = 0,
                       sample_counts: bool = False,
                       max_records: int = DEFAULT_MAX_RECORDS,
                       circuit_name: str | None = None,
                       analytic: SimulationResult | None = None,
                       scenario: NoiseScenario | str | None = None,
                       exhaustive_shots: bool = False) -> ShotResult:
        """Monte-Carlo sample the program's Eq. 4 noise, shot by shot.

        Every per-gate fidelity becomes a stochastic Pauli/readout-flip
        channel (see :mod:`repro.noise.channels`); the returned
        :class:`ShotResult` carries the counts histogram (when
        ``sample_counts`` is on), per-shot error records and the Wilson
        confidence interval of the sampled success rate.  Shots
        ``[shot_offset, shot_offset + shots)`` of the run rooted at
        *seed* are drawn, so shards merged with
        :func:`~repro.sim.stochastic.merge_shot_results` are bit-identical
        to one serial pass.

        When a :class:`CompileResult` is passed, sampled counts are
        relabelled back to *logical* qubit order through its final
        mapping; a bare :class:`ExecutableProgram` (no mapping available)
        yields counts over the physical (routed) wires.

        *scenario* switches on the correlated-noise mechanisms (see
        :mod:`repro.noise.scenarios`): crosstalk kicks on the spectator
        ions under the head, leakage out of the computational subspace
        and shuttle-induced heating bursts.  ``None`` / ``"baseline"``
        keeps the independent-error sampling unchanged.

        ``exhaustive_shots`` forwards to :meth:`StochasticSampler.run
        <repro.sim.stochastic.StochasticSampler.run>`: the scalar
        per-shot reference implementation the vectorized default is
        pinned bit-identical to.
        """
        return self._sample(
            program, shots=shots, seed=seed, shot_offset=shot_offset,
            sample_counts=sample_counts, max_records=max_records,
            analytic=analytic, scenario=scenario,
            exhaustive_shots=exhaustive_shots, circuit_name=circuit_name,
        )

    # ------------------------------------------------------------------
    # The TILT timeline
    # ------------------------------------------------------------------
    def _timeline(self, program: ExecutableProgram | CompileResult,
                  scenario: NoiseScenario,
                  circuit_name: str | None = None) -> Timeline:
        """Replay the tape schedule segment by segment.

        Every gate in segment *m* (after *m* tape moves) runs at the
        Eq. 4 fidelity of a chain holding ``m * k`` quanta; the Eq. 5
        time is the tape travel (plus sympathetic-cooling pauses) and
        the per-segment gate critical paths.  Under a non-baseline
        *scenario* gates also carry the spectator ions currently under
        the laser head (crosstalk targets) and every tape move between
        segments is a :class:`ShuttlePoint`.  Burst windows follow the
        sympathetic-cooling intervals: moves ``1..interval`` share
        window 0, and so on — with cooling disabled the whole program is
        one window, so a burst persists to the end (Section II-B's
        unbounded tape heating).
        """
        if isinstance(program, CompileResult):
            name = circuit_name or program.source_circuit.name
            program = program.program
        else:
            name = circuit_name or program.circuit.name
        chain_length = self.device.num_qubits
        if program.device.num_qubits != chain_length:
            raise SimulationError(
                "program was scheduled for a different chain length"
            )
        params = self.params
        interval = params.tilt_cooling_interval_moves
        circuit = program.circuit
        timeline = Timeline(scenario)
        gate_time = 0.0
        for segment_index, segment in enumerate(program.segments):
            window = (0 if interval <= 0 or segment_index <= 0
                      else (segment_index - 1) // interval)
            if segment_index > 0:
                timeline.add_shuttle(segment_index, window)
            quanta = quanta_after_moves(segment_index, chain_length, params)
            head_ions = self.device.window(segment.position)
            segment_gates = [circuit[i] for i in segment.gate_indices]
            for gate in segment_gates:
                timeline.add_gate(gate, gate_fidelity(gate, quanta, params),
                                  window, head_ions)
            gate_time += critical_path_us(segment_gates, params)

        shuttle_time = program.move_distance_um / params.shuttle_speed_um_per_us
        if interval > 0 and program.num_moves > 0:
            # A pause runs between the interval-th move and the next one
            # (matching quanta_after_moves), so a program ending exactly
            # on an interval boundary never pays for a pause it skipped.
            shuttle_time += (
                (program.num_moves - 1) // interval
            ) * params.tilt_cooling_time_us
        return timeline.finish(
            circuit.num_qubits,
            architecture=f"TILT head {self.device.head_size}",
            circuit_name=name,
            execution_time_us=shuttle_time + gate_time,
            num_gates=circuit.num_gates(),
            num_two_qubit_gates=circuit.num_two_qubit_gates(),
            num_moves=program.num_moves,
            move_distance_um=program.move_distance_um,
            extras={
                "final_quanta": quanta_after_moves(
                    program.num_moves, chain_length, params
                ),
                "num_segments": float(len(program.segments)),
            },
        )
