"""Shared fixtures for the benchmark harness.

Every benchmark honours the ``TILT_REPRO_SCALE`` environment variable:

* unset / ``small`` — reduced-width workloads (default, finishes in seconds);
* ``paper``        — the exact 64/78-qubit configurations of the paper,
  used to produce the numbers recorded in EXPERIMENTS.md.

Every module also times the machine-speed calibration kernel
(``calibration.py``) before its benchmarks run; the session median lands
in the ``--benchmark-json`` output for the regression gate.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.analysis import experiments
from repro.noise.parameters import NoiseParameters

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from calibration import calibration_entry, time_kernel  # noqa: E402

_CALIBRATION_SAMPLES: list[float] = []


@pytest.fixture(scope="module", autouse=True)
def _calibrate_machine_speed():
    """Sample the host's speed once per module, outside any timing."""
    _CALIBRATION_SAMPLES.extend(time_kernel())


@pytest.fixture(scope="session")
def scale() -> str:
    """The active experiment scale ('small' or 'paper')."""
    return experiments.resolve_scale()


@pytest.fixture(scope="session")
def noise() -> NoiseParameters:
    """The calibration used for every figure in EXPERIMENTS.md."""
    return NoiseParameters.paper_defaults()


def pytest_report_header(config):  # noqa: D103 - pytest hook
    return f"TILT reproduction benchmarks, scale={experiments.resolve_scale()}"


def pytest_benchmark_update_json(config, benchmarks, output_json):  # noqa: D103 - pytest-benchmark hook
    if _CALIBRATION_SAMPLES:
        output_json["benchmarks"].append(
            calibration_entry(_CALIBRATION_SAMPLES))
