"""Golden simulator fixture: every architecture's results are byte-stable.

``tests/fixtures/sim_golden.json`` records, for {TILT head 4, QCCD,
Ideal TI} x every built-in noise scenario x {BV-8, QFT-8}:

* every field of the analytic :class:`~repro.sim.result.SimulationResult`
  returned by ``run()``, floats by exact ``repr``;
* the sampler ``build_sampler()`` derives from the same program: its
  error-site count, its closed-form expected success rate, and whether
  its attached analytic result equals ``run()``;
* a SHA-256 digest of a seeded 500-shot ``run_stochastic(sample_counts=
  True)`` result — once over the counts histogram alone, once over the
  whole serialised :class:`~repro.sim.stochastic.ShotResult`.

Any change to how a simulator turns a program into fidelities, error
sites, timings or sampled shots moves one of these values.  Intentional
model changes regenerate the fixture::

    PYTHONPATH=src python tests/test_sim_golden.py --update

and the diff review is where cache-version bumps get decided.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.noise.parameters import NoiseParameters
from repro.sim.ideal_sim import IdealSimulator
from repro.sim.qccd_sim import QccdSimulator
from repro.sim.stochastic import shot_result_to_json
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "sim_golden.json"

ARCHITECTURES = ("tilt", "qccd", "ideal")
SCENARIOS = ("baseline", "crosstalk", "leakage", "heating_burst",
             "worst_case")
CIRCUITS = {"bv8": lambda: bv_workload(8), "qft8": lambda: qft_workload(8)}
SHOTS = 500
SEED = 11


@lru_cache(maxsize=None)
def _prepared(architecture: str, circuit_name: str):
    """``(simulator, program, run kwargs)`` of one architecture/circuit."""
    circuit = CIRCUITS[circuit_name]()
    noise = NoiseParameters.paper_defaults()
    if architecture == "tilt":
        device = TiltDevice(num_qubits=8, head_size=4)
        return (TiltSimulator(device, noise),
                LinQCompiler(device).compile(circuit), {})
    if architecture == "qccd":
        # traps of 3 force cross-trap transports on both workloads
        device = QccdDevice(num_qubits=8, trap_capacity=3)
        return (QccdSimulator(device, noise),
                QccdCompiler(device).compile(circuit),
                {"circuit_name": circuit.name})
    device = IdealTrappedIonDevice(num_qubits=8)
    return IdealSimulator(device, noise), circuit, {}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(result) -> dict:
    """Every result field; floats (and float extras) by exact ``repr``."""
    out = {}
    for name, value in dataclasses.asdict(result).items():
        if name == "extras":
            value = {key: repr(extra) for key, extra in sorted(value.items())}
        elif isinstance(value, float):
            value = repr(value)
        out[name] = value
    return out


def case_record(architecture: str, scenario: str, circuit_name: str) -> dict:
    simulator, program, kwargs = _prepared(architecture, circuit_name)
    analytic = simulator.run(program, scenario=scenario, **kwargs)
    sampler = simulator.build_sampler(program, scenario=scenario, **kwargs)
    shot = simulator.run_stochastic(
        program, shots=SHOTS, seed=SEED, sample_counts=True,
        scenario=scenario, **kwargs,
    )
    return {
        "run": _fields(analytic),
        "sampler_analytic_equals_run": sampler.analytic == analytic,
        "sampler_sites": len(sampler.sites),
        "sampler_expected_rate": repr(sampler.expected_success_rate),
        "counts_sha256": _digest(sorted(shot.counts.items())),
        "shot_sha256": _digest(shot_result_to_json(shot)),
    }


def case_names() -> list[str]:
    return [f"{architecture}-{scenario}-{circuit}"
            for architecture in ARCHITECTURES
            for scenario in SCENARIOS
            for circuit in CIRCUITS]


def current_snapshot() -> dict:
    return {
        "comment": "golden simulator fixture; regenerate with "
                   "'PYTHONPATH=src python tests/test_sim_golden.py "
                   "--update' and review every moved value",
        "shots": SHOTS,
        "seed": SEED,
        "cases": {name: case_record(*name.split("-"))
                  for name in case_names()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(case_names())
    assert (golden["shots"], golden["seed"]) == (SHOTS, SEED)


@pytest.mark.parametrize("name", case_names())
def test_simulator_matches_golden(golden, name):
    record = case_record(*name.split("-"))
    assert record["sampler_analytic_equals_run"]
    assert record == golden["cases"][name]


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print("usage: PYTHONPATH=src python tests/test_sim_golden.py "
              "--update", file=sys.stderr)
        return 2
    payload = json.dumps(current_snapshot(), indent=2, sort_keys=True)
    FIXTURE_PATH.write_text(payload + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
