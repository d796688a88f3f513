"""Gate-fidelity model and success-rate accumulation.

Implements Eq. 4 of the paper:

    F_m = 1 - Gamma * tau + (1 - (1 + epsilon) ** (2 m k + 1))

where ``m k`` is the motional energy (in quanta) of the chain at the time the
gate runs, ``tau`` is the gate duration (Eq. 3), ``Gamma`` is the background
heating rate and ``epsilon`` the residual-entanglement error.  Program
success rate is the product of all gate fidelities; because large circuits
reach values far below double-precision underflow (QFT-64 is ~1e-40 in the
paper), the accumulator works in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.circuits.gate import Gate
from repro.exceptions import SimulationError
from repro.noise.gate_times import XX_GATES_PER_SWAP, two_qubit_gate_time_us
from repro.noise.parameters import NoiseParameters


def two_qubit_fidelity(gate_time_microseconds: float, motional_quanta: float,
                       params: NoiseParameters) -> float:
    """Eq. 4 fidelity of one two-qubit gate.

    Parameters
    ----------
    gate_time_microseconds:
        tau — AM gate duration, from Eq. 3.
    motional_quanta:
        The chain's accumulated motional energy (``m * k`` for TILT after
        ``m`` moves, or the per-trap accumulator for QCCD).
    """
    if gate_time_microseconds < 0:
        raise SimulationError("gate time cannot be negative")
    if motional_quanta < 0:
        raise SimulationError("motional quanta cannot be negative")
    gamma = params.background_heating_rate_per_us
    epsilon = params.residual_gate_error
    exponent = 2.0 * motional_quanta + 1.0
    try:
        residual = math.pow(1.0 + epsilon, exponent) - 1.0
    except OverflowError:
        residual = math.inf
    fidelity = 1.0 - gamma * gate_time_microseconds - residual
    return min(1.0, max(0.0, fidelity))


def one_qubit_fidelity(params: NoiseParameters) -> float:
    """Fidelity of a single-qubit rotation (independent of heating)."""
    return min(1.0, max(0.0, 1.0 - params.one_qubit_gate_error))


def measurement_fidelity(params: NoiseParameters) -> float:
    """Fidelity of a single-qubit readout."""
    return min(1.0, max(0.0, 1.0 - params.measurement_error))


def gate_fidelity(gate: Gate, motional_quanta: float,
                  params: NoiseParameters) -> float:
    """Fidelity of an arbitrary (physical) gate under the current heating.

    A SWAP is charged as three XX gates of the same span.  Barriers are free.
    """
    if gate.name == "barrier":
        return 1.0
    if gate.name == "measure":
        return measurement_fidelity(params)
    if gate.num_qubits == 1:
        return one_qubit_fidelity(params)
    if gate.num_qubits == 2:
        single = two_qubit_fidelity(
            two_qubit_gate_time_us(gate.span, params), motional_quanta, params,
        )
        if gate.name == "swap":
            return single**XX_GATES_PER_SWAP
        return single
    raise SimulationError(
        f"gate {gate.name!r} must be decomposed before fidelity evaluation"
    )


@dataclass
class SuccessRateAccumulator:
    """Multiplies per-gate fidelities in log space.

    ``success_rate`` is ``exp(sum of log fidelities)``; if any gate has zero
    fidelity the success rate is exactly zero.
    """

    log_fidelity: float = 0.0
    num_gates: int = 0
    hit_zero: bool = False
    _worst: float = field(default=1.0, repr=False)

    def add(self, fidelity: float) -> None:
        """Fold one gate fidelity into the product."""
        if not 0.0 <= fidelity <= 1.0:
            raise SimulationError(f"fidelity {fidelity} outside [0, 1]")
        self.num_gates += 1
        self._worst = min(self._worst, fidelity)
        if fidelity == 0.0:
            self.hit_zero = True
            return
        self.log_fidelity += math.log(fidelity)

    @property
    def success_rate(self) -> float:
        """Product of all fidelities added so far (may underflow to 0.0)."""
        if self.hit_zero:
            return 0.0
        return math.exp(self.log_fidelity)

    @property
    def log10_success_rate(self) -> float:
        """log10 of the success rate (``-inf`` if any fidelity was zero)."""
        if self.hit_zero:
            return float("-inf")
        return self.log_fidelity / math.log(10.0)

    @property
    def worst_gate_fidelity(self) -> float:
        """The smallest single-gate fidelity seen."""
        return self._worst

    @property
    def average_gate_fidelity(self) -> float:
        """Geometric mean of the fidelities added so far."""
        if self.num_gates == 0:
            return 1.0
        if self.hit_zero:
            return 0.0
        return math.exp(self.log_fidelity / self.num_gates)
