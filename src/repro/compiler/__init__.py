"""The LinQ compiler: decomposition, mapping, routing and scheduling."""

from repro.compiler.decompose import (
    decompose_to_cx,
    decompose_to_native,
    lower_to_native,
    merge_adjacent_rotations,
)
from repro.compiler.executable import ExecutableProgram, TapeSegment
from repro.compiler.layout import QubitMapping, extend_mapping
from repro.compiler.mapping import (
    GreedyInteractionMapper,
    SpectralMapper,
    TrivialMapper,
    interaction_matrix,
    make_mapper,
)
from repro.compiler.metrics import CompileStats, collect_stats
from repro.compiler.pipeline import (
    CompileResult,
    CompilerConfig,
    LinQCompiler,
    compile_for_tilt,
)
from repro.compiler.qccd_compiler import (
    QccdCompiler,
    QccdGateEvent,
    QccdProgram,
    QccdShuttleEvent,
    compile_for_qccd,
)
from repro.compiler.routing import RoutingResult, SwapRecord, check_routed
from repro.compiler.schedule import (
    SchedulerConfig,
    TapeScheduler,
    schedule_tape_moves,
)
from repro.compiler.swap_baseline import BaselineSwapInserter
from repro.compiler.swap_linq import LinqSwapInserter

__all__ = [
    "BaselineSwapInserter",
    "CompileResult",
    "CompileStats",
    "CompilerConfig",
    "ExecutableProgram",
    "GreedyInteractionMapper",
    "LinQCompiler",
    "LinqSwapInserter",
    "QccdCompiler",
    "QccdGateEvent",
    "QccdProgram",
    "QccdShuttleEvent",
    "QubitMapping",
    "RoutingResult",
    "SchedulerConfig",
    "SpectralMapper",
    "SwapRecord",
    "TapeScheduler",
    "TapeSegment",
    "TrivialMapper",
    "check_routed",
    "collect_stats",
    "compile_for_qccd",
    "compile_for_tilt",
    "decompose_to_cx",
    "decompose_to_native",
    "extend_mapping",
    "interaction_matrix",
    "lower_to_native",
    "make_mapper",
    "merge_adjacent_rotations",
    "schedule_tape_moves",
]
