"""Figure 8 — architecture comparison (TILT vs Ideal TI vs QCCD).

Benchmarks the full compare-architectures pipeline per workload and checks
the paper's qualitative conclusions:

* ADDER and BV perform comparably on TILT and QCCD;
* QAOA and RCS (short-distance heavy) favour TILT;
* QFT (long-distance heavy) favours QCCD;
* the ideal fully connected device upper-bounds every TILT configuration;
* a 32-wide head is at least as good as a 16-wide head.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.report import figure8_report
from repro.exec import clear_stage_memos
from repro.workloads.suite import standard_suite

WORKLOADS = [spec.name for spec in standard_suite()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_architecture_comparison(benchmark, name, scale, noise):
    """Time the four-architecture comparison for one workload."""
    def run():
        return experiments.figure8(scale, workloads=(name,),
                                   noise_params=noise)[0]

    comparison = benchmark.pedantic(run, setup=clear_stage_memos,
                                    iterations=1, rounds=1)
    for architecture, result in comparison.results.items():
        benchmark.extra_info[architecture] = result.log10_success_rate
    assert set(comparison.results) >= {"Ideal TI", "QCCD"}


def test_figure8_shape(scale, noise):
    """Qualitative Figure 8 conclusions hold at the active scale."""
    comparisons = {c.circuit_name: c
                   for c in experiments.figure8(scale, noise_params=noise)}

    def tilt_labels(comparison):
        labels = sorted(
            (name for name in comparison.architectures()
             if name.startswith("TILT")),
            key=lambda name: int(name.rsplit(" ", 1)[-1]),
        )
        return labels[0], labels[-1]

    for name, comparison in comparisons.items():
        small_head, large_head = tilt_labels(comparison)
        # Ideal TI upper-bounds TILT; a larger head never hurts.
        assert (comparison.log10_success_rate("Ideal TI") + 1e-9
                >= comparison.log10_success_rate(large_head))
        assert (comparison.log10_success_rate(large_head) + 1e-9
                >= comparison.log10_success_rate(small_head))

    if scale == "paper":
        ratios = experiments.headline_ratios(list(comparisons.values()))
        # TILT ~ QCCD on ADDER/BV, ahead on QAOA/RCS, behind on QFT.
        assert 0.5 <= ratios["ADDER"] <= 2.0
        assert 0.5 <= ratios["BV"] <= 2.0
        assert ratios["QAOA"] > 1.0
        assert ratios["RCS"] > 1.0
        assert ratios["QFT"] < 1.0
        assert ratios["max"] > 1.2
    print()
    print(figure8_report(scale))
