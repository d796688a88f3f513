"""Gate primitives for the circuit IR.

A :class:`Gate` is an immutable record of an operation name, the qubit
indices it acts on, and its (classical) parameters.  The IR is deliberately
small: it supports the universal gates that the Table II workloads need plus
the trapped-ion native set used by the LinQ compiler
(``rx``/``ry``/``rz``/``xx``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import CircuitError

#: Specification of every supported gate name: (number of qubits, number of
#: parameters).  ``barrier`` is variadic and handled specially.
GATE_SPECS: Mapping[str, tuple[int, int]] = {
    # one-qubit, parameter-free
    "id": (1, 0),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "sdg": (1, 0),
    "t": (1, 0),
    "tdg": (1, 0),
    "sx": (1, 0),
    # one-qubit, parameterised
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "p": (1, 1),
    "u3": (1, 3),
    # two-qubit
    "cx": (2, 0),
    "cz": (2, 0),
    "swap": (2, 0),
    "cp": (2, 1),
    "rzz": (2, 1),
    "rxx": (2, 1),
    "xx": (2, 1),
    # three-qubit
    "ccx": (3, 0),
    # non-unitary / structural
    "measure": (1, 0),
    "barrier": (-1, 0),
}

#: Names considered native on a TILT machine after decomposition.
NATIVE_GATE_NAMES = frozenset({"rx", "ry", "rz", "xx", "measure", "barrier"})

#: Names of two-qubit entangling operations (used by routing and scheduling).
TWO_QUBIT_GATE_NAMES = frozenset(
    name for name, (nq, _) in GATE_SPECS.items() if nq == 2
)


@dataclass(frozen=True, slots=True)
class Gate:
    """An operation applied to specific qubits.

    Parameters
    ----------
    name:
        Lower-case gate name; must be a key of :data:`GATE_SPECS`.
    qubits:
        Qubit indices the gate acts on, in operand order (e.g. control
        first for ``cx``).
    params:
        Real-valued parameters (rotation angles), possibly empty.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        name = self.name
        spec = GATE_SPECS.get(name)
        if spec is None:
            raise CircuitError(f"unknown gate name: {name!r}")
        expected_qubits, expected_params = spec
        qubits = tuple(map(int, self.qubits))
        params = tuple(map(float, self.params))
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)
        num_qubits = len(qubits)
        if expected_qubits >= 0 and num_qubits != expected_qubits:
            raise CircuitError(
                f"gate {name!r} expects {expected_qubits} qubits, "
                f"got {num_qubits}"
            )
        if not qubits:
            # only a barrier gets here: every other gate expects >= 1
            raise CircuitError("barrier needs at least one qubit")
        # a single qubit cannot repeat, so the set is built for 2+ only
        if num_qubits > 1 and len(set(qubits)) != num_qubits:
            raise CircuitError(f"gate {name!r} has duplicate qubits {qubits}")
        if min(qubits) < 0:
            raise CircuitError(f"gate {name!r} has negative qubit index")
        if len(params) != expected_params:
            raise CircuitError(
                f"gate {name!r} expects {expected_params} params, "
                f"got {len(params)}"
            )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of qubits this gate acts on."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True if this is a two-qubit (entangling or swap) gate."""
        return self.name in TWO_QUBIT_GATE_NAMES

    @property
    def is_native(self) -> bool:
        """True if this gate belongs to the TILT native gate set."""
        return self.name in NATIVE_GATE_NAMES

    @property
    def is_unitary(self) -> bool:
        """True for proper quantum gates (not measure/barrier)."""
        return self.name not in ("measure", "barrier")

    @property
    def span(self) -> int:
        """Physical distance between the outermost qubits (0 for 1q gates)."""
        return max(self.qubits) - min(self.qubits)

    def remapped(self, mapping: Sequence[int] | Mapping[int, int]) -> "Gate":
        """Return a copy of the gate with qubits relabelled through *mapping*."""
        if isinstance(mapping, Mapping):
            new_qubits = tuple(mapping[q] for q in self.qubits)
        else:
            new_qubits = tuple(mapping[q] for q in self.qubits)
        return Gate(self.name, new_qubits, self.params)

    def inverse(self) -> "Gate":
        """Return the inverse gate.

        Raises
        ------
        CircuitError
            If the gate has no well-defined inverse (measure, barrier).
        """
        if not self.is_unitary:
            raise CircuitError(f"gate {self.name!r} has no inverse")
        self_inverse = {"id", "x", "y", "z", "h", "cx", "cz", "swap", "ccx"}
        if self.name in self_inverse:
            return self
        pairs = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}
        if self.name in pairs:
            return Gate(pairs[self.name], self.qubits)
        if self.name == "sx":
            return Gate("rx", self.qubits, (-math.pi / 2.0,))
        if self.name in ("rx", "ry", "rz", "p", "cp", "rzz", "rxx", "xx"):
            return Gate(self.name, self.qubits, tuple(-p for p in self.params))
        if self.name == "u3":
            theta, phi, lam = self.params
            return Gate("u3", self.qubits, (-theta, -lam, -phi))
        raise CircuitError(f"no inverse rule for gate {self.name!r}")

    def __str__(self) -> str:
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args}) {list(self.qubits)}"
        return f"{self.name} {list(self.qubits)}"


def gate(name: str, qubits: Iterable[int], params: Iterable[float] = ()) -> Gate:
    """Convenience constructor mirroring :class:`Gate`."""
    return Gate(name, tuple(qubits), tuple(params))
