"""Ablation benchmarks beyond the paper's figures.

DESIGN.md calls out three design choices of this reproduction whose impact
is worth quantifying: the initial-mapping heuristic, the Eq. 1 lookahead
window, and the Eq. 1 discount factor alpha.  These benches time each
configuration and record the resulting swap/move counts so regressions in
the heuristics are visible.
"""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.compiler.pipeline import LinQCompiler
from repro.exec import JobSpec, clear_stage_memos, execute_spec
from repro.workloads.suite import build_workload

ABLATION_WORKLOAD = "QFT"


def _compile_job(scale: str, **overrides) -> JobSpec:
    """A compile-only engine job for QFT with config overrides applied."""
    circuit = build_workload(ABLATION_WORKLOAD, scale)
    device = experiments.device_for(scale, ABLATION_WORKLOAD)
    config = experiments.ROUTING_STUDY_CONFIG.with_overrides(**overrides)
    return JobSpec(circuit=circuit, device=device, config=config,
                   simulate=False)


@pytest.mark.parametrize("mapper", ["trivial", "spectral", "greedy"])
def test_mapper_ablation(benchmark, mapper, scale):
    """Compile QFT with each initial-mapping heuristic."""
    spec = _compile_job(scale, mapper=mapper)
    result = benchmark.pedantic(execute_spec, args=(spec,),
                                setup=clear_stage_memos,
                                iterations=1, rounds=1)
    benchmark.extra_info["num_swaps"] = result.stats.num_swaps
    benchmark.extra_info["num_moves"] = result.stats.num_moves


@pytest.mark.parametrize("lookahead", [1, 20, 200])
def test_lookahead_ablation(benchmark, lookahead, scale):
    """Compile QFT with increasingly deep Eq. 1 lookahead windows."""
    spec = _compile_job(scale, lookahead_window=lookahead)
    result = benchmark.pedantic(execute_spec, args=(spec,),
                                setup=clear_stage_memos,
                                iterations=1, rounds=1)
    benchmark.extra_info["num_swaps"] = result.stats.num_swaps
    benchmark.extra_info["opposing_ratio"] = result.stats.opposing_swap_ratio


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.98])
def test_alpha_ablation(benchmark, alpha, scale):
    """Compile QFT with different Eq. 1 discount factors."""
    spec = _compile_job(scale, alpha=alpha)
    result = benchmark.pedantic(execute_spec, args=(spec,),
                                setup=clear_stage_memos,
                                iterations=1, rounds=1)
    benchmark.extra_info["num_swaps"] = result.stats.num_swaps


@pytest.mark.parametrize("interval", [0, 8, 2])
def test_tilt_sympathetic_cooling(benchmark, interval, scale, noise):
    """Section VII extension: re-cool the tape every N moves (0 = off)."""
    from repro.sim.tilt_sim import TiltSimulator

    circuit = build_workload(ABLATION_WORKLOAD, scale)
    device = experiments.device_for(scale, ABLATION_WORKLOAD)
    compiled = LinQCompiler(device, experiments.ROUTING_STUDY_CONFIG).compile(
        circuit
    )
    params = noise.with_overrides(tilt_cooling_interval_moves=interval)
    simulator = TiltSimulator(device, params)
    # repro-lint: disable=RPR002 -- times the raw simulator under a cooling-interval override; compile is deliberately outside the measured lambda, which execute_spec cannot express
    result = benchmark(lambda: simulator.run(compiled))
    benchmark.extra_info["log10_success"] = result.log10_success_rate


def test_deep_lookahead_finds_more_opposing_swaps(scale):
    """The opposing-swap structure only becomes visible with deep lookahead."""
    circuit = build_workload(ABLATION_WORKLOAD, scale)
    device = experiments.device_for(scale, ABLATION_WORKLOAD)

    def ratio(lookahead: int) -> float:
        config = experiments.ROUTING_STUDY_CONFIG.with_overrides(
            lookahead_window=lookahead
        )
        return LinQCompiler(device, config).compile(circuit).stats.opposing_swap_ratio

    assert ratio(200) >= ratio(1)
