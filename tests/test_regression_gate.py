"""Tests for the CI benchmark-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import os

import pytest

_GATE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "check_regression.py",
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression",
                                                  _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALIBRATION = "benchmarks/calibration.py::calibration_kernel"


def _medians(scale_tracked: float = 1.0, scale_all: float = 1.0,
             scale_code: float = 1.0) -> dict[str, float]:
    """A synthetic run with one benchmark per tracked hot path, untracked
    ballast and the calibration kernel.  *scale_all* models a faster or
    slower machine (the kernel moves too); *scale_code* a change of the
    program (every benchmark but the kernel moves)."""
    tracked = {
        "benchmarks/bench_table3_compilation.py::test_tape_scheduling_time[QFT-0]": 0.006,
        "benchmarks/bench_engine.py::test_sweep_cache_hit_rate[QFT]": 0.0008,
        "benchmarks/bench_stochastic.py::test_serial_shots_per_second": 0.5,
        "benchmarks/bench_stochastic.py::test_batched_statevector_patterns": 0.04,
        "benchmarks/bench_scenarios.py::test_correlated_sampling_shots_per_second": 9.0,
        "benchmarks/bench_lint.py::test_lint_whole_repo": 0.55,
        "benchmarks/bench_lint.py::test_lint_whole_repo_graph": 1.3,
        "benchmarks/bench_obs.py::test_untraced_engine_batch": 0.02,
        "benchmarks/bench_obs.py::test_traced_engine_batch": 0.022,
        "benchmarks/bench_obs.py::test_monitored_engine_batch": 0.023,
        "benchmarks/bench_obs.py::test_profiled_engine_batch": 0.024,
    }
    untracked = {f"benchmarks/bench_other.py::test_{i}": 0.01 * (i + 1)
                 for i in range(8)}
    out = {name: value * scale_tracked * scale_all * scale_code
           for name, value in tracked.items()}
    out.update({name: value * scale_all * scale_code
                for name, value in untracked.items()})
    out[CALIBRATION] = 0.02 * scale_all
    return out


class TestCheck:
    def test_identical_run_passes(self, gate):
        ok, lines = gate.check(_medians(), _medians())
        assert ok, "\n".join(lines)

    def test_injected_2x_slowdown_fails(self, gate):
        current = _medians()
        current["benchmarks/bench_stochastic.py::test_serial_shots_per_second"] *= 2.0
        ok, lines = gate.check(current, _medians())
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_small_jitter_passes(self, gate):
        ok, lines = gate.check(_medians(scale_tracked=1.15), _medians())
        assert ok, "\n".join(lines)

    def test_uniformly_slow_machine_passes_normalised(self, gate):
        # everything 2x slower = a slower runner, not a regression
        ok, lines = gate.check(_medians(scale_all=2.0), _medians())
        assert ok, "\n".join(lines)

    def test_uniform_program_slowdown_fails(self, gate):
        # every benchmark 2x slower on the same machine: the kernel does
        # not move, so the slowdown cannot cancel itself out
        ok, lines = gate.check(_medians(scale_code=2.0), _medians())
        assert not ok
        regressions = [line for line in lines if "REGRESSION" in line]
        assert len(regressions) == len(gate.TRACKED_PATTERNS), lines

    def test_uniform_slowdown_on_faster_machine_still_fails(self, gate):
        ok, _ = gate.check(_medians(scale_all=0.5, scale_code=2.0),
                           _medians())
        assert not ok

    def test_speedup_of_half_does_not_flag_the_other_half(self, gate):
        current = _medians()
        names = sorted(name for name in current if name != CALIBRATION)
        for name in names[::2]:
            current[name] *= 0.5
        ok, lines = gate.check(current, _medians())
        assert ok, "\n".join(lines)
        # the untouched half reads exactly x1.00, not a slowdown
        untouched = [line for line in lines if "x1.00" in line]
        assert untouched and not any("REGRESSION" in line for line in lines)

    def test_missing_calibration_kernel_fails(self, gate):
        current = _medians()
        del current[CALIBRATION]
        ok, lines = gate.check(current, _medians())
        assert not ok
        assert "calibration kernel" in lines[0]
        # a raw same-machine comparison needs no kernel
        ok, _ = gate.check(current, _medians(), normalize=False)
        assert ok

    def test_uniformly_slow_machine_fails_raw(self, gate):
        ok, _ = gate.check(_medians(scale_all=2.0), _medians(),
                           normalize=False)
        assert not ok

    def test_missing_tracked_benchmark_fails(self, gate):
        current = _medians()
        del current["benchmarks/bench_engine.py::test_sweep_cache_hit_rate[QFT]"]
        ok, lines = gate.check(current, _medians())
        assert not ok
        assert any("MISSING" in line for line in lines)

    def test_disjoint_runs_fail(self, gate):
        ok, _ = gate.check({"benchmarks/bench_new.py::test_x": 1.0},
                           _medians())
        assert not ok


class TestCli:
    def _bench_json(self, path, medians):
        payload = {
            "benchmarks": [
                {"fullname": name, "stats": {"median": value}}
                for name, value in medians.items()
            ]
        }
        path.write_text(json.dumps(payload))

    def test_update_then_gate_round_trip(self, gate, tmp_path):
        bench = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        self._bench_json(bench, _medians())
        assert gate.main([str(bench), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert gate.main([str(bench), "--baseline", str(baseline)]) == 0
        # the recorded threshold is live config, not a dead field
        assert gate.baseline_threshold(str(baseline)) == gate.DEFAULT_THRESHOLD

        slow = tmp_path / "slow.json"
        medians = _medians()
        medians["benchmarks/bench_stochastic.py::test_serial_shots_per_second"] *= 2.0
        self._bench_json(slow, medians)
        assert gate.main([str(slow), "--baseline", str(baseline)]) == 1

    def test_append_history_records_gate_run(self, gate, tmp_path):
        """--append-history lands one compacted bench.gate record with
        the normalised tracked ratios and the verdict."""
        from repro.obs.history import load_ledger

        bench = tmp_path / "bench.json"
        baseline = tmp_path / "baseline.json"
        ledger = tmp_path / "history.jsonl"
        self._bench_json(bench, _medians())
        assert gate.main([str(bench), "--baseline", str(baseline),
                          "--update-baseline"]) == 0
        assert gate.main([str(bench), "--baseline", str(baseline),
                          "--append-history", str(ledger)]) == 0

        slow = tmp_path / "slow.json"
        medians = _medians()
        medians["benchmarks/bench_stochastic.py::test_serial_shots_per_second"] *= 2.0
        self._bench_json(slow, medians)
        assert gate.main([str(slow), "--baseline", str(baseline),
                          "--append-history", str(ledger)]) == 1

        records = load_ledger(ledger)
        assert [r["kind"] for r in records] == ["bench.gate", "bench.gate"]
        passed, failed = records
        assert passed["extra"]["ok"] == 1
        assert passed["metrics"]["normalised.obs_overhead"] == pytest.approx(1.0)
        assert failed["extra"]["ok"] == 0
        assert failed["metrics"]["normalised.stochastic_shots"] > 1.5
        # the per-writer segments were compacted into the single
        # artifact file CI archives
        assert not list(tmp_path.glob("history.jsonl.*.seg"))

    def test_committed_baseline_tracks_every_hot_path(self, gate):
        """The real baseline.json must cover all tracked groups, so the
        gate in CI can never silently gate on nothing."""
        baseline = gate.load_baseline(gate.DEFAULT_BASELINE)
        groups = {gate.tracked_group(name) for name in baseline}
        assert groups >= {g for g, _ in gate.TRACKED_PATTERNS}
        assert gate.machine_scale(baseline) is not None
