"""Native gate decomposition (Section IV-B of the paper).

Two levels are provided:

* :func:`decompose_to_cx` — rewrite every multi-qubit gate into CX plus
  single-qubit gates.  This is the level at which the paper counts "2Q
  gates" (Table II) and at which routing reasons about interactions.
* :func:`decompose_to_native` — further rewrite everything into the TILT
  native set ``{rx, ry, rz, xx}``.  CX follows the paper's Molmer-Sorensen
  construction (Ry/XX/Rx/Rx/Ry); the sign of the Rx rotations differs from
  the paper's listing because of the rotation-sign convention used here
  (``r*(theta) = exp(-i theta P / 2)``, ``xx(theta) = exp(+i theta XX)``) —
  the decomposition is verified against the exact CX unitary in the tests.

:func:`lower_to_native` is the entry point the compilers and simulators
use: barrier stripping, :func:`decompose_to_native` and the optional
rotation merge in one call, memoised per process (see its docstring).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

from repro.circuits.circuit import Circuit, circuit_from_gates
from repro.circuits.gate import Gate
from repro.exceptions import CompilationError

_PI = math.pi


def _one_qubit_to_native(gate: Gate) -> Iterator[Gate]:
    """Rewrite a single-qubit gate as rz/ry/rx rotations."""
    (q,) = gate.qubits
    name = gate.name
    if name == "id":
        return
    if name in ("rx", "ry", "rz"):
        yield gate
        return
    if name == "x":
        yield Gate("rx", (q,), (_PI,))
    elif name == "y":
        yield Gate("ry", (q,), (_PI,))
    elif name == "z":
        yield Gate("rz", (q,), (_PI,))
    elif name == "h":
        yield Gate("rz", (q,), (_PI,))
        yield Gate("ry", (q,), (_PI / 2,))
    elif name == "s":
        yield Gate("rz", (q,), (_PI / 2,))
    elif name == "sdg":
        yield Gate("rz", (q,), (-_PI / 2,))
    elif name == "t":
        yield Gate("rz", (q,), (_PI / 4,))
    elif name == "tdg":
        yield Gate("rz", (q,), (-_PI / 4,))
    elif name == "sx":
        yield Gate("rx", (q,), (_PI / 2,))
    elif name == "p":
        yield Gate("rz", (q,), (gate.params[0],))
    elif name == "u3":
        theta, phi, lam = gate.params
        yield Gate("rz", (q,), (lam,))
        yield Gate("ry", (q,), (theta,))
        yield Gate("rz", (q,), (phi,))
    else:  # pragma: no cover - defensive
        raise CompilationError(f"no native decomposition for 1q gate {name!r}")


def _cx_to_native(control: int, target: int) -> Iterator[Gate]:
    """Molmer-Sorensen CX construction (paper Section IV-B)."""
    yield Gate("ry", (control,), (_PI / 2,))
    yield Gate("xx", (control, target), (_PI / 4,))
    yield Gate("rx", (control,), (_PI / 2,))
    yield Gate("rx", (target,), (_PI / 2,))
    yield Gate("ry", (control,), (-_PI / 2,))


def _two_qubit_to_cx(gate: Gate) -> Iterator[Gate]:
    """Rewrite a two-qubit gate into CX plus single-qubit gates."""
    name = gate.name
    q1, q2 = gate.qubits
    if name == "cx":
        yield gate
    elif name == "cz":
        yield Gate("h", (q2,))
        yield Gate("cx", (q1, q2))
        yield Gate("h", (q2,))
    elif name == "swap":
        yield Gate("cx", (q1, q2))
        yield Gate("cx", (q2, q1))
        yield Gate("cx", (q1, q2))
    elif name == "cp":
        theta = gate.params[0]
        yield Gate("p", (q1,), (theta / 2,))
        yield Gate("cx", (q1, q2))
        yield Gate("p", (q2,), (-theta / 2,))
        yield Gate("cx", (q1, q2))
        yield Gate("p", (q2,), (theta / 2,))
    elif name == "rzz":
        theta = gate.params[0]
        yield Gate("cx", (q1, q2))
        yield Gate("rz", (q2,), (theta,))
        yield Gate("cx", (q1, q2))
    elif name == "rxx":
        theta = gate.params[0]
        yield Gate("h", (q1,))
        yield Gate("h", (q2,))
        yield Gate("cx", (q1, q2))
        yield Gate("rz", (q2,), (theta,))
        yield Gate("cx", (q1, q2))
        yield Gate("h", (q1,))
        yield Gate("h", (q2,))
    elif name == "xx":
        # xx(theta) = exp(+i theta XX) = rxx(-2 theta)
        yield from _two_qubit_to_cx(Gate("rxx", (q1, q2), (-2.0 * gate.params[0],)))
    else:  # pragma: no cover - defensive
        raise CompilationError(f"no CX decomposition for 2q gate {name!r}")


def _ccx_to_cx(c1: int, c2: int, target: int) -> Iterator[Gate]:
    """Standard 6-CX Toffoli decomposition."""
    yield Gate("h", (target,))
    yield Gate("cx", (c2, target))
    yield Gate("tdg", (target,))
    yield Gate("cx", (c1, target))
    yield Gate("t", (target,))
    yield Gate("cx", (c2, target))
    yield Gate("tdg", (target,))
    yield Gate("cx", (c1, target))
    yield Gate("t", (c2,))
    yield Gate("t", (target,))
    yield Gate("h", (target,))
    yield Gate("cx", (c1, c2))
    yield Gate("t", (c1,))
    yield Gate("tdg", (c2,))
    yield Gate("cx", (c1, c2))


def _gate_to_cx(gate: Gate, keep_xx: bool) -> Iterator[Gate]:
    if gate.name in ("measure", "barrier"):
        yield gate
    elif gate.num_qubits == 1:
        yield gate
    elif gate.name == "ccx":
        yield from _ccx_to_cx(*gate.qubits)
    elif gate.name == "xx" and keep_xx:
        yield gate
    elif gate.num_qubits == 2:
        yield from _two_qubit_to_cx(gate)
    else:  # pragma: no cover - defensive
        raise CompilationError(f"cannot decompose gate {gate.name!r}")


def decompose_to_cx(circuit: Circuit, *, keep_xx: bool = False) -> Circuit:
    """Rewrite every multi-qubit gate into CX + single-qubit gates.

    Parameters
    ----------
    keep_xx:
        When True, native ``xx`` gates pass through untouched (useful when
        the input is already partially native).
    """
    out = Circuit(circuit.num_qubits, f"{circuit.name}_cx")
    for gate in circuit:
        out.extend(_gate_to_cx(gate, keep_xx))
    return out


def decompose_to_native(circuit: Circuit) -> Circuit:
    """Rewrite *circuit* into the TILT native gate set {rx, ry, rz, xx}."""
    cx_level = decompose_to_cx(circuit, keep_xx=True)
    out = Circuit(circuit.num_qubits, f"{circuit.name}_native")
    for gate in cx_level:
        if gate.name in ("measure", "barrier", "xx"):
            out.append(gate)
        elif gate.name == "cx":
            out.extend(_cx_to_native(*gate.qubits))
        elif gate.num_qubits == 1:
            out.extend(_one_qubit_to_native(gate))
        else:  # pragma: no cover - defensive
            raise CompilationError(f"unexpected gate {gate.name!r} after CX pass")
    return out


def lower_to_native(circuit: Circuit, *, strip_barriers: bool = True,
                    merge_rotations: bool = True) -> Circuit:
    """Lower *circuit* to the native gate set, the way every backend does.

    Optionally drops barriers, runs :func:`decompose_to_native`, then
    optionally :func:`merge_adjacent_rotations`.  The result is memoised
    per process with a single entry, compared by content: qubit count,
    name, gates and both flags.  Drivers submit every job of one circuit
    back to back, so that one entry catches the repeats.  Each call
    returns a fresh :class:`Circuit`, so a caller mutating its copy never
    changes what the next call returns.
    """
    cached = _lowered_native(circuit.num_qubits, circuit.name, circuit.gates,
                             strip_barriers, merge_rotations)
    return cached.copy()


@lru_cache(maxsize=1)
def _lowered_native(num_qubits: int, name: str, gates: tuple[Gate, ...],
                    strip_barriers: bool, merge_rotations: bool) -> Circuit:
    # Only misses get here: drop the old entry before building the new
    # one, so the two are never alive at once (lru_cache re-checks its
    # table after the call and stores this result).
    _lowered_native.cache_clear()
    working = circuit_from_gates(num_qubits, gates, name)
    if strip_barriers:
        working = working.without(["barrier"])
    native = decompose_to_native(working)
    if merge_rotations:
        native = merge_adjacent_rotations(native)
    return native


def clear_native_memo() -> None:
    """Forget the memoised :func:`lower_to_native` result."""
    _lowered_native.cache_clear()


def merge_adjacent_rotations(circuit: Circuit, *,
                             angle_tolerance: float = 1e-12) -> Circuit:
    """Peephole optimisation: fuse back-to-back rotations about the same axis.

    Consecutive ``rx``/``ry``/``rz`` gates on the same qubit with no
    intervening gate on that qubit are summed; rotations whose total angle is
    a multiple of 2*pi are dropped.  This keeps native circuits from carrying
    obviously redundant pulses into the fidelity model.
    """
    out = Circuit(circuit.num_qubits, circuit.name)
    pending: dict[int, Gate] = {}

    def flush(qubit: int) -> None:
        gate = pending.pop(qubit, None)
        if gate is None:
            return
        angle = math.remainder(gate.params[0], 2 * _PI)
        if abs(angle) > angle_tolerance:
            out.append(Gate(gate.name, gate.qubits, (angle,)))

    for gate in circuit:
        if gate.name in ("rx", "ry", "rz"):
            (q,) = gate.qubits
            held = pending.get(q)
            if held is not None and held.name == gate.name:
                pending[q] = Gate(
                    gate.name, gate.qubits, (held.params[0] + gate.params[0],)
                )
                continue
            flush(q)
            pending[q] = gate
            continue
        for q in gate.qubits:
            flush(q)
        out.append(gate)
    for q in list(pending):
        flush(q)
    return out
