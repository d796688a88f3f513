"""Tests for the repro.exec batch execution engine."""

import dataclasses

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.core.comparison import compare_architectures
from repro.core.sweep import max_swap_len_sweep, mapper_sweep
from repro.exceptions import ReproError
from repro.exec import (
    ExecutionEngine,
    JobSpec,
    ResultCache,
    run_jobs,
    spec_key,
)
from repro.exec.engine import reset_default_engine, resolve_workers
from repro.noise.parameters import NoiseParameters
from repro.sim.tilt_sim import TiltSimulator
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    """Keep the process-wide engine out of these tests."""
    reset_default_engine()
    yield
    reset_default_engine()


def _tilt_spec(length: int = 7, *, simulate: bool = True,
               label: str = "") -> JobSpec:
    return JobSpec(
        circuit=bv_workload(16),
        device=TiltDevice(num_qubits=16, head_size=8),
        config=CompilerConfig(max_swap_len=length, mapper="trivial"),
        noise=NoiseParameters.paper_defaults(),
        simulate=simulate,
        label=label,
    )


class TestSpecKey:
    def test_equal_specs_share_a_key(self):
        assert spec_key(_tilt_spec(7)) == spec_key(_tilt_spec(7))

    def test_label_is_not_hashed(self):
        assert spec_key(_tilt_spec(7, label="a")) == spec_key(
            _tilt_spec(7, label="b")
        )

    def test_config_changes_the_key(self):
        assert spec_key(_tilt_spec(7)) != spec_key(_tilt_spec(5))

    def test_circuit_changes_the_key(self):
        base = _tilt_spec(7)
        other = dataclasses.replace(base, circuit=qft_workload(16))
        assert spec_key(base) != spec_key(other)

    def test_simulate_flag_changes_the_key(self):
        assert spec_key(_tilt_spec(7)) != spec_key(
            _tilt_spec(7, simulate=False)
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            JobSpec(circuit=bv_workload(4),
                    device=TiltDevice(num_qubits=4, head_size=2),
                    backend="magic")


class TestExecutionEngine:
    def test_serial_run_matches_direct_toolflow(self, noise):
        spec = _tilt_spec(7)
        result = ExecutionEngine(workers=1).run_one(spec)
        compiled = LinQCompiler(spec.device, spec.config).compile(spec.circuit)
        direct = TiltSimulator(spec.device, noise).run(compiled)

        def structural(stats):
            # wall-clock compile timings legitimately differ run to run
            return dataclasses.replace(
                stats, time_decompose_s=0, time_swap_s=0, time_schedule_s=0,
            )

        assert structural(result.stats) == structural(compiled.stats)
        assert result.simulation == direct

    def test_repeated_batch_is_served_from_cache(self):
        engine = ExecutionEngine(workers=1)
        specs = [_tilt_spec(length) for length in (7, 6, 5)]
        first = engine.run(specs)
        assert engine.stats.cache_hits == 0
        assert engine.stats.jobs_executed == 3
        second = engine.run(specs)
        assert engine.stats.cache_hits == 3
        assert engine.stats.jobs_executed == 3  # nothing new ran
        assert all(result.cache_hit for result in second)
        assert [r.simulation for r in second] == [r.simulation for r in first]

    def test_duplicates_in_one_batch_execute_once(self):
        engine = ExecutionEngine(workers=1)
        results = engine.run([_tilt_spec(7), _tilt_spec(7), _tilt_spec(7)])
        assert engine.stats.jobs_executed == 1
        assert engine.stats.deduplicated == 2
        assert results[0].simulation == results[1].simulation
        assert not results[0].cache_hit and results[1].cache_hit

    def test_labels_survive_dedup_and_cache(self):
        engine = ExecutionEngine(workers=1)
        a, b = engine.run([_tilt_spec(7, label="a"), _tilt_spec(7, label="b")])
        assert (a.label, b.label) == ("a", "b")
        (c,) = engine.run([_tilt_spec(7, label="c")])
        assert c.label == "c" and c.cache_hit

    def test_pooled_run_matches_serial(self):
        specs = [_tilt_spec(length) for length in (7, 6, 5, 4)]
        serial = ExecutionEngine(workers=1).run(specs)
        pooled = ExecutionEngine(workers=2).run(specs)
        assert [r.stats.num_swaps for r in pooled] == [
            r.stats.num_swaps for r in serial
        ]
        assert [r.simulation for r in pooled] == [r.simulation for r in serial]

    def test_disk_cache_survives_engines(self, tmp_path):
        path = tmp_path / "cache.json"
        spec = _tilt_spec(7)
        first = ExecutionEngine(workers=1, cache_path=path).run_one(spec)
        assert path.exists()
        warm_engine = ExecutionEngine(workers=1, cache_path=path)
        second = warm_engine.run_one(spec)
        assert warm_engine.stats.cache_hits == 1
        assert warm_engine.stats.jobs_executed == 0
        assert second.cache_hit
        assert second.simulation == first.simulation
        assert second.stats == first.stats

    def test_clear_invalidates_disk_despite_merge_on_flush(self, tmp_path):
        path = tmp_path / "cache.json"
        engine = ExecutionEngine(workers=1, cache_path=path)
        engine.run_one(_tilt_spec(7))
        assert path.exists()
        engine.cache.clear()
        assert not path.exists()  # an invalidation wins over the merge
        engine.cache.flush()
        fresh = ExecutionEngine(workers=1, cache_path=path)
        fresh.run_one(_tilt_spec(7))
        assert fresh.stats.cache_hits == 0  # nothing was resurrected

    def test_concurrent_flush_merges_instead_of_clobbering(self, tmp_path):
        # regression: two processes flushing the same cache_path raced
        # last-writer-wins — whichever flushed second clobbered the other
        # side's entries.  Two engines whose caches never saw each other
        # model the two processes; after both flush, the file must hold
        # both results.
        path = tmp_path / "cache.json"
        engine_a = ExecutionEngine(workers=1, cache_path=path)
        engine_b = ExecutionEngine(workers=1, cache_path=path)  # loads empty
        engine_a.run_one(_tilt_spec(7))  # flushes {7}
        engine_b.run_one(_tilt_spec(6))  # flushes; used to drop {7}
        fresh = ExecutionEngine(workers=1, cache_path=path)
        fresh.run([_tilt_spec(7), _tilt_spec(6)])
        assert fresh.stats.cache_hits == 2
        assert fresh.stats.jobs_executed == 0

    def test_corrupt_disk_cache_is_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        engine = ExecutionEngine(workers=1, cache_path=path)
        assert engine.run_one(_tilt_spec(7)).simulation is not None

    def test_flush_failure_leaves_no_temp_file(self, tmp_path):
        # regression: a non-OSError from json.dump (e.g. TypeError on an
        # unserialisable payload) used to leak the mkstemp temp file
        from repro.exec import ResultCache
        from repro.exec.jobs import JobResult

        path = tmp_path / "cache.json"
        cache = ResultCache(path)
        good = ExecutionEngine(workers=1).run_one(_tilt_spec(7))
        poisoned = dataclasses.replace(
            good,
            simulation=dataclasses.replace(
                good.simulation, extras={"bad": object()}
            ),
        )
        cache.store(poisoned)
        with pytest.raises(TypeError):
            cache.flush()
        assert not path.exists()
        # only the advisory flush lock file may remain (it persists by
        # design: unlinking a lock file another process may hold races)
        leftovers = [p.name for p in tmp_path.iterdir()]
        assert leftovers in ([], ["cache.json.lock"])
        # the cache object stays usable: replacing the poisoned entry
        # with a serialisable one lets the next flush succeed
        cache.store(good)
        cache.flush()
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_progress_callback_sees_every_job(self):
        seen = []
        engine = ExecutionEngine(
            workers=1, progress=lambda done, total, result: seen.append(
                (done, total)
            )
        )
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert seen == [(1, 2), (2, 2)]
        # cache-served jobs also report progress
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert seen == [(1, 2), (2, 2), (1, 2), (2, 2)]

    def test_compile_only_job_has_no_simulation(self):
        result = ExecutionEngine(workers=1).run_one(
            _tilt_spec(7, simulate=False)
        )
        assert result.stats is not None
        assert result.simulation is None

    def test_ideal_backend(self):
        spec = JobSpec(circuit=bv_workload(8),
                       device=IdealTrappedIonDevice(num_qubits=8),
                       backend="ideal")
        result = ExecutionEngine(workers=1).run_one(spec)
        assert result.stats is None
        assert result.simulation.architecture == "Ideal TI"

    def test_qccd_backend(self):
        spec = JobSpec(circuit=qft_workload(12),
                       device=QccdDevice(num_qubits=12, trap_capacity=5),
                       backend="qccd")
        result = ExecutionEngine(workers=1).run_one(spec)
        assert result.stats is None
        assert result.simulation.num_moves > 0

    def test_simulate_false_compiles_only_where_there_is_a_compile_stage(
            self):
        """QCCD stops after compiling; the ideal backend has no compile
        stage, so it ignores ``simulate`` and still simulates."""
        qccd = ExecutionEngine(workers=1).run_one(JobSpec(
            circuit=qft_workload(12),
            device=QccdDevice(num_qubits=12, trap_capacity=5),
            backend="qccd", simulate=False,
        ))
        assert qccd.simulation is None
        ideal = ExecutionEngine(workers=1).run_one(JobSpec(
            circuit=bv_workload(8),
            device=IdealTrappedIonDevice(num_qubits=8),
            backend="ideal", simulate=False,
        ))
        assert ideal.simulation.architecture == "Ideal TI"

    def test_stats_reset_zeroes_counters_but_keeps_cache(self):
        engine = ExecutionEngine(workers=1)
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert engine.stats.jobs_executed == 2
        engine.stats.reset()
        assert engine.stats.jobs_submitted == 0
        assert engine.stats.jobs_executed == 0
        assert engine.stats.cache_hits == 0
        assert engine.stats.deduplicated == 0
        assert engine.stats.execution_time_s == 0.0
        assert engine.stats.job_times_s == []
        # per-phase accounting: the warm phase reports only its own hits
        engine.run([_tilt_spec(7), _tilt_spec(6)])
        assert engine.stats.cache_hits == 2
        assert engine.stats.jobs_executed == 0

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1  # one per CPU
        monkeypatch.setenv("TILT_REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.delenv("TILT_REPRO_WORKERS")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("TILT_REPRO_WORKERS", "nope")
        with pytest.raises(ReproError):
            resolve_workers(None)
        with pytest.raises(ReproError):
            resolve_workers(-2)


class TestEngineRoutedDrivers:
    def test_sweep_identical_serial_and_pooled(self, tilt16):
        circuit = bv_workload(16)
        serial = max_swap_len_sweep(
            circuit, tilt16, [7, 5, 4],
            engine=ExecutionEngine(workers=1),
        )
        pooled = max_swap_len_sweep(
            circuit, tilt16, [7, 5, 4],
            engine=ExecutionEngine(workers=4),
        )
        assert pooled == serial

    def test_sweep_hits_cache_on_reinvocation(self, tilt16):
        engine = ExecutionEngine(workers=1)
        circuit = bv_workload(16)
        first = max_swap_len_sweep(circuit, tilt16, [7, 5], engine=engine)
        second = max_swap_len_sweep(circuit, tilt16, [7, 5], engine=engine)
        assert second == first
        assert engine.stats.cache_hits == 2

    def test_run_jobs_uses_shared_engine_cache(self, tilt16):
        circuit = bv_workload(16)
        first = max_swap_len_sweep(circuit, tilt16, [7])
        second = max_swap_len_sweep(circuit, tilt16, [7])
        assert second == first
        from repro.exec import default_engine

        assert default_engine().stats.cache_hits >= 1

    def test_run_jobs_workers_override_is_temporary(self):
        engine = ExecutionEngine(workers=1)
        run_jobs([_tilt_spec(7)], workers=2, engine=engine)
        assert engine.workers == 1

    def test_comparison_through_engine(self):
        comparison = compare_architectures(
            qft_workload(12), head_sizes=(4, 6), qccd_trap_capacities=(5,),
            engine=ExecutionEngine(workers=1),
        )
        assert set(comparison.architectures()) == {
            "TILT head 4", "TILT head 6", "Ideal TI", "QCCD",
        }

    def test_mapper_sweep_points_carry_labels(self, tilt16):
        points = mapper_sweep(bv_workload(16), tilt16,
                              engine=ExecutionEngine(workers=1))
        for mapper, point in points.items():
            assert point.label == mapper
            assert point.parameter == "mapper"
