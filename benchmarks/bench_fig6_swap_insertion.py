"""Figure 6 — LinQ vs baseline swap insertion.

For each long-distance workload (BV, QFT, SQRT) and each router, benchmarks
the full compile (mapping + swap insertion + scheduling) and checks the
paper's qualitative findings: the LinQ router inserts no more swaps than the
baseline, raises the opposing-swap ratio, needs no more tape moves, and ends
up with at least the baseline's success rate.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.report import figure6_report
from repro.exec import JobSpec, clear_stage_memos, execute_spec
from repro.workloads.suite import build_workload, routing_suite

ROUTING_WORKLOADS = [spec.name for spec in routing_suite()]


@pytest.mark.parametrize("router", ["baseline", "linq"])
@pytest.mark.parametrize("name", ROUTING_WORKLOADS)
def test_swap_insertion(benchmark, name, router, scale, noise):
    """One engine job (compile + simulate) per routing workload and router."""
    circuit = build_workload(name, scale)
    device = experiments.device_for(scale, name)
    config = experiments.ROUTING_STUDY_CONFIG.with_overrides(router=router)
    spec = JobSpec(circuit=circuit, device=device, config=config, noise=noise)

    result = benchmark.pedantic(execute_spec, args=(spec,),
                                setup=clear_stage_memos,
                                iterations=1, rounds=1)
    benchmark.extra_info["num_swaps"] = result.stats.num_swaps
    benchmark.extra_info["opposing_ratio"] = result.stats.opposing_swap_ratio
    benchmark.extra_info["num_moves"] = result.stats.num_moves
    benchmark.extra_info["log10_success"] = result.simulation.log10_success_rate
    assert result.stats.num_swaps > 0 or name == "BV"


def test_figure6_shape(scale):
    """LinQ beats (or ties) the baseline on every Figure 6 metric."""
    rows = {(row.workload, row.router): row
            for row in experiments.figure6(scale)}
    for name in ("QFT", "SQRT"):
        linq = rows[(name, "linq")]
        baseline = rows[(name, "baseline")]
        assert linq.num_swaps <= baseline.num_swaps
        assert linq.opposing_swap_ratio >= baseline.opposing_swap_ratio
        assert linq.num_moves <= baseline.num_moves
        assert linq.log10_success_rate >= baseline.log10_success_rate
    print()
    print(figure6_report(scale))
