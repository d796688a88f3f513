"""Backend invariance: serial, process-pool and async-local execution
produce byte-identical spec keys, results and merged ShotResults."""

import dataclasses

import pytest

from repro.arch.ideal import IdealTrappedIonDevice
from repro.arch.qccd import QccdDevice
from repro.arch.tilt import TiltDevice
from repro.compiler.pipeline import CompilerConfig, LinQCompiler
from repro.compiler.qccd_compiler import QccdCompiler
from repro.exceptions import ReproError
from repro.exec import (
    AsyncLocalBackend,
    ExecutionEngine,
    JobSpec,
    ProcessPoolBackend,
    SerialBackend,
    clear_stage_memos,
    execute_spec,
    resolve_backend,
    run_sampled_job,
    spec_key,
)
from repro.exec.backends import BACKEND_ENV_VAR
from repro.exec.engine import reset_default_engine
from repro.noise.parameters import NoiseParameters
from repro.workloads.bv import bv_workload
from repro.workloads.qft import qft_workload

BACKEND_NAMES = ("serial", "process", "async")


@pytest.fixture(autouse=True)
def _fresh_default_engine():
    reset_default_engine()
    yield
    reset_default_engine()


def _mixed_batch() -> list[JobSpec]:
    """Analytic TILT points + QCCD + ideal + sampled jobs, in one batch.

    Mixing cheap analytic jobs with sampled (``shots > 0``) ones is the
    straggler scenario the process backend's chunked dispatch targets;
    the invariance assertions hold regardless of how dispatch reorders
    the work.
    """
    tilt = TiltDevice(num_qubits=16, head_size=8)
    noise = NoiseParameters.paper_defaults()
    specs = [
        JobSpec(
            circuit=bv_workload(16), device=tilt,
            config=CompilerConfig(max_swap_len=length, mapper="trivial"),
            noise=noise, label=f"tilt-{length}",
        )
        for length in (7, 6, 5)
    ]
    specs.append(JobSpec(
        circuit=qft_workload(12),
        device=QccdDevice(num_qubits=12, trap_capacity=5),
        backend="qccd", noise=noise, label="qccd",
    ))
    specs.append(JobSpec(
        circuit=bv_workload(8), device=IdealTrappedIonDevice(num_qubits=8),
        backend="ideal", noise=noise, label="ideal",
    ))
    specs.extend(
        JobSpec(
            circuit=qft_workload(6),
            device=IdealTrappedIonDevice(num_qubits=6),
            backend="ideal", noise=noise,
            shots=96, seed=7, shot_offset=offset,
            label=f"sampled-{offset}",
        )
        for offset in (0, 96)
    )
    return specs


def _structural(result):
    """Everything about a result except per-run wall-clock timings."""
    stats = result.stats
    if stats is not None:
        stats = dataclasses.replace(
            stats, time_decompose_s=0, time_swap_s=0, time_schedule_s=0,
        )
    return (result.key, result.label, stats, result.simulation, result.shot)


class TestBackendInvariance:
    def test_mixed_batch_bit_identical_across_backends(self):
        specs = _mixed_batch()
        keys = [spec_key(spec) for spec in specs]
        reference = None
        for name in BACKEND_NAMES:
            engine = ExecutionEngine(workers=2, backend=name)
            results = engine.run(specs)
            assert [result.key for result in results] == keys
            structural = [_structural(result) for result in results]
            if reference is None:
                reference = structural
            else:
                assert structural == reference, f"backend {name} diverged"

    def test_sampled_job_merge_invariant_across_backends(self):
        spec = JobSpec(
            circuit=qft_workload(6),
            device=IdealTrappedIonDevice(num_qubits=6),
            backend="ideal", noise=NoiseParameters.paper_defaults(),
            shots=256, seed=11,
        )
        merged = {
            name: run_sampled_job(
                spec, shards=4, exec_backend=name,
                engine=ExecutionEngine(workers=2),
            )
            for name in BACKEND_NAMES
        }
        assert merged["process"].shot == merged["serial"].shot
        assert merged["async"].shot == merged["serial"].shot
        assert (merged["process"].key == merged["async"].key
                == merged["serial"].key == spec_key(spec))

    def test_per_batch_backend_override(self):
        engine = ExecutionEngine(workers=2)  # would default to the pool
        specs = _mixed_batch()[:3]
        serial = engine.run(specs, backend="serial")
        override = engine.run(specs, backend="async")
        # second run is all cache hits, so the override exercised lookup
        assert engine.stats.cache_hits == len(specs)
        assert [r.simulation for r in override] == [
            r.simulation for r in serial
        ]


def _memo_heavy_batch() -> list[JobSpec]:
    """Distinct specs that share compiles: noise, scenario and shot-range
    variants of one TILT and one QCCD program, then an ideal job on the
    same circuit (whose native lowering the QCCD compile just did)."""
    circuit = qft_workload(8)
    tilt = TiltDevice(num_qubits=8, head_size=4)
    qccd = QccdDevice(num_qubits=8, trap_capacity=4)
    noise = NoiseParameters.paper_defaults()
    hot = noise.with_overrides(residual_gate_error=2e-4)
    specs = [
        JobSpec(circuit=circuit, device=tilt, noise=noise, label="tilt"),
        JobSpec(circuit=circuit, device=tilt, noise=hot, label="tilt-hot"),
        JobSpec(circuit=circuit, device=tilt, noise=noise,
                scenario="crosstalk", label="tilt-xt"),
    ]
    specs.extend(
        JobSpec(circuit=circuit, device=tilt, noise=noise, shots=64,
                seed=5, shot_offset=offset, label=f"tilt-shots-{offset}")
        for offset in (0, 64)
    )
    specs.extend([
        JobSpec(circuit=circuit, device=qccd, backend="qccd", noise=noise,
                label="qccd"),
        JobSpec(circuit=circuit, device=qccd, backend="qccd", noise=hot,
                scenario="heating_burst", label="qccd-burst"),
        JobSpec(circuit=circuit, device=IdealTrappedIonDevice(num_qubits=8),
                backend="ideal", noise=noise, shots=64, seed=5,
                label="ideal-shots"),
    ])
    return specs


class TestStageMemos:
    """One-entry compile memos: hits are indistinguishable from cold
    compiles, and they hit exactly when the content matches."""

    @pytest.fixture(autouse=True)
    def _cold_memos(self):
        clear_stage_memos()
        yield
        clear_stage_memos()

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Count LinQ and QCCD compiles by toolchain."""
        counts = {"linq": 0, "qccd": 0}
        linq, qccd = LinQCompiler.compile, QccdCompiler.compile

        def count_linq(self, *args, **kwargs):
            counts["linq"] += 1
            return linq(self, *args, **kwargs)

        def count_qccd(self, *args, **kwargs):
            counts["qccd"] += 1
            return qccd(self, *args, **kwargs)

        monkeypatch.setattr(LinQCompiler, "compile", count_linq)
        monkeypatch.setattr(QccdCompiler, "compile", count_qccd)
        return counts

    def test_memo_hits_equal_cold_compiles(self, compiles):
        specs = _memo_heavy_batch()
        cold = []
        for spec in specs:
            clear_stage_memos()
            cold.append(_structural(execute_spec(spec)))
        clear_stage_memos()
        compiles.update(linq=0, qccd=0)
        warm = [_structural(execute_spec(spec)) for spec in specs]
        assert warm == cold
        assert compiles == {"linq": 1, "qccd": 1}

    def test_memo_heavy_batch_bit_identical_across_backends(self):
        specs = _memo_heavy_batch()
        reference = [_structural(r) for r in
                     ExecutionEngine(workers=1).run(specs)]
        for name in ("process", "async"):
            # memos stay warm from the previous backend's run on purpose
            results = ExecutionEngine(workers=2, backend=name).run(specs)
            assert [_structural(r) for r in results] == reference, name

    def test_hit_carries_first_compile_stats(self):
        spec = _memo_heavy_batch()[0]
        first = execute_spec(spec)
        again = execute_spec(dataclasses.replace(spec, label="again"))
        assert again.stats is first.stats

    def test_sharded_sampled_job_compiles_once(self, compiles):
        spec = JobSpec(
            circuit=qft_workload(8),
            device=TiltDevice(num_qubits=8, head_size=4),
            noise=NoiseParameters.paper_defaults(), shots=400, seed=3,
        )
        result = run_sampled_job(spec, shards=4,
                                 engine=ExecutionEngine(workers=1))
        assert result.shot.shots == 400
        assert compiles["linq"] == 1

    def test_equal_content_and_effective_config_hit(self, compiles):
        circuit = bv_workload(8)
        device = TiltDevice(num_qubits=8, head_size=4)
        execute_spec(JobSpec(circuit=circuit, device=device))
        # a distinct but equal circuit, an equal device and an explicit
        # default config are the same compile
        execute_spec(JobSpec(circuit=bv_workload(8),
                             device=TiltDevice(num_qubits=8, head_size=4),
                             config=CompilerConfig()))
        assert compiles["linq"] == 1

    @pytest.mark.parametrize("change", ["name", "gates", "device", "config",
                                        "flag"])
    def test_different_content_misses(self, compiles, change):
        circuit = bv_workload(8)
        device = TiltDevice(num_qubits=8, head_size=4)
        execute_spec(JobSpec(circuit=circuit, device=device))
        config = None
        if change == "name":
            circuit = circuit.copy(name="renamed")
        elif change == "gates":
            circuit = circuit.copy().x(0)
        elif change == "device":
            device = TiltDevice(num_qubits=8, head_size=5)
        elif change == "config":
            config = CompilerConfig(max_swap_len=2)
        else:
            config = CompilerConfig(merge_rotations=False)
        execute_spec(JobSpec(circuit=circuit, device=device, config=config))
        assert compiles["linq"] == 2

    def test_qccd_memo_keyed_on_device(self, compiles):
        circuit = qft_workload(8)
        for capacity in (4, 4, 5, 5):
            execute_spec(JobSpec(
                circuit=circuit, backend="qccd",
                device=QccdDevice(num_qubits=8, trap_capacity=capacity),
            ))
        assert compiles["qccd"] == 2


class TestBackendSelection:
    def test_default_follows_worker_count(self):
        assert isinstance(resolve_backend(None, 1), SerialBackend)
        assert isinstance(resolve_backend(None, 4), ProcessPoolBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial", 4), SerialBackend)
        assert isinstance(resolve_backend("process", 4), ProcessPoolBackend)
        assert isinstance(resolve_backend("async", 4), AsyncLocalBackend)

    def test_instance_passes_through(self):
        backend = AsyncLocalBackend(workers=3)
        assert resolve_backend(backend, 1) is backend

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "async")
        assert isinstance(resolve_backend(None, 1), AsyncLocalBackend)
        monkeypatch.setenv(BACKEND_ENV_VAR, "nope")
        with pytest.raises(ReproError):
            resolve_backend(None, 1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            resolve_backend("magic", 1)

    def test_describe_backend(self):
        assert ExecutionEngine(workers=1).describe_backend() == "serial"
        assert "process" in ExecutionEngine(workers=4).describe_backend()
        assert "async" in ExecutionEngine(
            workers=2, backend="async"
        ).describe_backend()


class TestProcessPoolDispatch:
    def test_plan_chunks_heavy_first_then_light_chunks(self):
        light = [
            (f"light-{i}", spec) for i, spec in enumerate(_mixed_batch()[:3])
        ]
        device = IdealTrappedIonDevice(num_qubits=6)
        heavy = [
            (f"heavy-{shots}", JobSpec(
                circuit=qft_workload(6), device=device, backend="ideal",
                shots=shots, seed=1,
            ))
            for shots in (50, 200, 100)
        ]
        backend = ProcessPoolBackend(workers=2, chunk_size=2)
        chunks = backend.plan_chunks(light + heavy)
        # sampled jobs lead, longest first, one per chunk
        assert [chunk[0][0] for chunk in chunks[:3]] == [
            "heavy-200", "heavy-100", "heavy-50",
        ]
        assert all(len(chunk) == 1 for chunk in chunks[:3])
        # analytic jobs follow in chunks of chunk_size, order preserved
        assert [[job[0] for job in chunk] for chunk in chunks[3:]] == [
            ["light-0", "light-1"], ["light-2"],
        ]

    def test_chunk_size_validated(self):
        with pytest.raises(ReproError):
            ProcessPoolBackend(workers=2, chunk_size=0)
