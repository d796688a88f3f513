"""QCCD routing: the comparison architecture's compiler.

The QCCD baseline (Murali et al. [64], the architecture the paper compares
against in Figure 8) keeps ions in several small traps.  Gates between ions
in the same trap execute directly (traps are fully connected); a gate whose
operands sit in different traps first moves one ion: it is swapped to the
edge of its chain, split off, shuttled across the inter-trap segments and
merged into the destination chain.  Every one of those primitives deposits
motional quanta into the affected chains, which is what makes frequent
cross-trap communication expensive.

The compiler produces a :class:`QccdProgram` — a flat list of events — which
:class:`repro.sim.qccd_sim.QccdSimulator` replays against the noise model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.arch.qccd import QccdDevice
from repro.circuits.circuit import Circuit
from repro.circuits.gate import Gate
from repro.compiler.decompose import lower_to_native
from repro.exceptions import CompilationError


@dataclass(frozen=True)
class QccdGateEvent:
    """A gate executed inside one trap.

    ``distance`` is the separation (in chain positions) of the two operands,
    used for the AM gate-time model; it is 0 for single-qubit gates.
    """

    gate: Gate
    trap: int
    distance: int


@dataclass(frozen=True)
class QccdShuttleEvent:
    """One ion transported from ``source_trap`` to ``dest_trap``.

    Attributes
    ----------
    qubit:
        The logical qubit that moved.
    swap_to_edge_gates:
        Number of in-trap SWAP gates needed to bring the ion to the chain
        edge before splitting (each costs three XX gates of fidelity).
    splits, hops, merges:
        Counts of the heating primitives: one split from the source chain,
        one shuttle per inter-trap segment crossed, one merge into the
        destination chain.
    """

    qubit: int
    source_trap: int
    dest_trap: int
    swap_to_edge_gates: int
    splits: int
    hops: int
    merges: int

    @property
    def num_primitives(self) -> int:
        """Total number of heating primitives for this transport."""
        return self.splits + self.hops + self.merges


@dataclass
class QccdProgram:
    """A compiled QCCD execution: gate and shuttle events in program order."""

    device: QccdDevice
    events: list[object] = field(default_factory=list)

    @property
    def gate_events(self) -> list[QccdGateEvent]:
        return [e for e in self.events if isinstance(e, QccdGateEvent)]

    @property
    def shuttle_events(self) -> list[QccdShuttleEvent]:
        return [e for e in self.events if isinstance(e, QccdShuttleEvent)]

    @property
    def num_shuttles(self) -> int:
        """Number of ion transports (each may span several segments)."""
        return len(self.shuttle_events)

    @property
    def num_primitives(self) -> int:
        """Total split/hop/merge primitive count."""
        return sum(e.num_primitives for e in self.shuttle_events)

    def summary(self) -> str:
        """One-line description of the compiled program."""
        return (
            f"QccdProgram: {len(self.gate_events)} gate events, "
            f"{self.num_shuttles} transports "
            f"({self.num_primitives} heating primitives)"
        )


class QccdCompiler:
    """Route a logical circuit onto a QCCD machine."""

    def __init__(self, device: QccdDevice, *, merge_rotations: bool = True) -> None:
        self.device = device
        self.merge_rotations = merge_rotations

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def compile(self, circuit: Circuit) -> QccdProgram:
        """Decompose to native gates and insert shuttling events."""
        if circuit.num_qubits > self.device.num_qubits:
            raise CompilationError(
                f"circuit needs {circuit.num_qubits} qubits but the device "
                f"has {self.device.num_qubits}"
            )
        native = lower_to_native(circuit, merge_rotations=self.merge_rotations)

        traps = self.device.initial_layout()
        trap_of = {q: t for t, chain in enumerate(traps) for q in chain}
        program = QccdProgram(self.device)

        for gate in native:
            if gate.num_qubits == 1 or gate.name == "measure":
                program.events.append(
                    QccdGateEvent(gate, trap_of[gate.qubits[0]], 0)
                )
                continue
            qubit_a, qubit_b = gate.qubits
            if trap_of[qubit_a] != trap_of[qubit_b]:
                self._transport(qubit_a, qubit_b, traps, trap_of, program)
            trap = trap_of[qubit_a]
            chain = traps[trap]
            distance = abs(chain.index(qubit_a) - chain.index(qubit_b))
            program.events.append(QccdGateEvent(gate, trap, max(1, distance)))
        return program

    # ------------------------------------------------------------------
    # Shuttling
    # ------------------------------------------------------------------
    def _transport(self, qubit_a: int, qubit_b: int, traps: list[list[int]],
                   trap_of: dict[int, int], program: QccdProgram) -> None:
        """Bring *qubit_a* and *qubit_b* into the same trap."""
        trap_a, trap_b = trap_of[qubit_a], trap_of[qubit_b]
        # Prefer moving into whichever trap has spare capacity; default to
        # moving qubit_a toward qubit_b.
        if len(traps[trap_b]) < self.device.trap_capacity:
            moving, dest = qubit_a, trap_b
        elif len(traps[trap_a]) < self.device.trap_capacity:
            moving, dest = qubit_b, trap_a
        else:
            # Both traps full: make room in trap_b by evicting its ion with
            # the smallest index (deterministic) to the nearest trap with
            # space, then move qubit_a in.
            evicted = min(q for q in traps[trap_b] if q not in (qubit_a, qubit_b))
            refuge = self._nearest_trap_with_space(trap_b, traps)
            self._move_ion(evicted, refuge, traps, trap_of, program)
            moving, dest = qubit_a, trap_b
        self._move_ion(moving, dest, traps, trap_of, program)

    def _nearest_trap_with_space(self, origin: int,
                                 traps: list[list[int]]) -> int:
        candidates = [
            t for t in range(self.device.num_traps)
            if t != origin and len(traps[t]) < self.device.trap_capacity
        ]
        if not candidates:
            raise CompilationError(
                "QCCD device is completely full; increase trap capacity"
            )
        return min(candidates, key=lambda t: (abs(t - origin), t))

    def _move_ion(self, qubit: int, dest_trap: int, traps: list[list[int]],
                  trap_of: dict[int, int], program: QccdProgram) -> None:
        source_trap = trap_of[qubit]
        chain = traps[source_trap]
        index = chain.index(qubit)
        # Swap toward whichever chain end faces the destination trap.
        if dest_trap > source_trap:
            swaps_to_edge = len(chain) - 1 - index
        else:
            swaps_to_edge = index
        chain.remove(qubit)
        if dest_trap > source_trap:
            traps[dest_trap].insert(0, qubit)
        else:
            traps[dest_trap].append(qubit)
        trap_of[qubit] = dest_trap
        hops = self.device.trap_distance(source_trap, dest_trap)
        program.events.append(
            QccdShuttleEvent(
                qubit=qubit,
                source_trap=source_trap,
                dest_trap=dest_trap,
                swap_to_edge_gates=swaps_to_edge,
                splits=1,
                hops=hops,
                merges=1,
            )
        )


def compile_for_qccd(circuit: Circuit, device: QccdDevice) -> QccdProgram:
    """Convenience wrapper around :class:`QccdCompiler`."""
    return QccdCompiler(device).compile(circuit)
