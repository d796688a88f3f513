"""Experiment drivers and reporting for every figure/table of the paper."""

import importlib

from repro.analysis.convergence import (
    ConvergenceRow,
    convergence_study,
    sampled_figure8,
)
from repro.analysis.experiments import (
    Figure6Row,
    Figure7Row,
    Table3Row,
    ablation_lookahead,
    ablation_mapper,
    best_max_swap_len,
    figure6,
    figure7,
    figure8,
    head_sizes_for,
    headline_ratios,
    primary_head_size,
    resolve_scale,
    table2,
    table3,
)
from repro.analysis.scenario_study import (
    AttributionRow,
    ScenarioRow,
    attribution_rows,
    scenario_comparison,
    scenario_figure,
)
from repro.analysis.tables import format_records, format_table

#: Modules that are also command-line entry points (``python -m
#: repro.analysis.report`` / ``.search_study``).  Their names in
#: ``__all__`` load on first access: importing the modules here would put
#: them in ``sys.modules`` before runpy executes them as ``__main__``,
#: which runpy warns about.
_CLI_MODULES = ("report", "search_study")


def __getattr__(name: str):
    if name in __all__:
        for module in _CLI_MODULES:
            value = getattr(importlib.import_module(f"{__name__}.{module}"),
                            name, None)
            if value is not None:
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AttributionRow",
    "ConvergenceRow",
    "Figure6Row",
    "Figure7Row",
    "ScenarioRow",
    "Table3Row",
    "ablation_lookahead",
    "ablation_mapper",
    "attribution_rows",
    "best_max_swap_len",
    "convergence_report",
    "convergence_study",
    "figure6",
    "figure6_report",
    "figure7",
    "figure7_report",
    "figure8",
    "figure8_report",
    "format_records",
    "format_table",
    "full_report",
    "head_sizes_for",
    "headline_ratios",
    "pareto_scatter",
    "primary_head_size",
    "resolve_scale",
    "sampled_figure8",
    "scenario_comparison",
    "scenario_figure",
    "scenarios_report",
    "search_report",
    "search_study",
    "study_space",
    "table2",
    "table2_report",
    "table3",
    "table3_report",
    "write_search_json",
]
