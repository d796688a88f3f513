"""Figure 7 — MaxSwapLen sweep, driven by the ``repro.search`` subsystem.

Each routing workload's sweep is declared as a one-knob
:class:`~repro.search.SearchSpace` and walked by the exhaustive
:class:`~repro.search.GridStrategy`; the benchmark times the whole
search and pins that it reproduces the ad-hoc
:func:`repro.analysis.experiments.figure7` loop point for point, plus
the paper's qualitative finding that the best setting is at (or below)
the maximum executable span.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.report import figure7_report
from repro.core.sweep import default_max_swap_lengths
from repro.exec import ExecutionEngine, clear_stage_memos
from repro.search import GridStrategy, SearchSpace, config_knob, run_search
from repro.workloads.suite import build_workload, routing_suite

ROUTING_WORKLOADS = [spec.name for spec in routing_suite()]


def _fig7_space(name: str, scale: str) -> SearchSpace:
    """The Figure 7 design space of one workload (same specs as the loop)."""
    circuit = build_workload(name, scale)
    device = experiments.device_for(scale, name)
    lengths = default_max_swap_lengths(device)
    return SearchSpace(
        circuit=circuit,
        device=device,
        knobs=[config_knob("max_swap_len", lengths)],
        config=experiments.ROUTING_STUDY_CONFIG,
    )


@pytest.mark.parametrize("name", ROUTING_WORKLOADS)
def test_max_swap_len_search(benchmark, name, scale):
    """Time the full sweep of one workload as a cold grid search."""
    space = _fig7_space(name, scale)

    def cold_search():
        return run_search(space, GridStrategy(),
                          engine=ExecutionEngine(workers=1))

    result = benchmark.pedantic(cold_search, setup=clear_stage_memos,
                                iterations=1, rounds=1)
    rows = [row for row in experiments.figure7(scale) if row.workload == name]
    # the declarative search subsumes the ad-hoc loop: point for point
    assert [
        (int(point.assignments["max_swap_len"]), point.num_swaps,
         point.num_moves, point.log10_success)
        for point in result.points
    ] == [
        (row.max_swap_len, row.num_swaps, row.num_moves,
         row.log10_success_rate)
        for row in rows
    ]
    benchmark.extra_info["engine_jobs"] = result.num_jobs
    benchmark.extra_info["pareto_size"] = len(result.pareto_front())


def test_figure7_sweet_spot(scale):
    """The best MaxSwapLen is never the worst point of the sweep."""
    rows = experiments.figure7(scale)
    for name in ROUTING_WORKLOADS:
        workload_rows = [row for row in rows if row.workload == name]
        assert len(workload_rows) >= 2
        best = experiments.best_max_swap_len(rows, name)
        worst = min(workload_rows, key=lambda row: row.log10_success_rate)
        assert best.log10_success_rate >= worst.log10_success_rate
        # the search's scalar best attains the ad-hoc selection's success
        # (on an exact success tie the Pareto view may prefer the point
        # that is also cheaper, so compare the objective, not the knob)
        search_best = run_search(
            _fig7_space(name, scale), GridStrategy(),
            engine=ExecutionEngine(workers=1),
        ).best()
        assert search_best.log10_success == best.log10_success_rate
    print()
    print(figure7_report(scale))
