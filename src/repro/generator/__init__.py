"""Trace synthesis from fitted model sets (§7)."""

from .checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    GenerationCheckpoint,
    RunKey,
)
from .compiled import (
    MAX_EVENTS_PER_HOUR,
    CompiledModelSet,
    CompiledPopulation,
    compile_model_set,
)
from .streaming import stream_events, stream_to_trace
from .traffgen import MAX_SEED, TrafficGenerator, validate_run_args

__all__ = [
    "MAX_EVENTS_PER_HOUR",
    "MAX_SEED",
    "CheckpointError",
    "CheckpointMismatchError",
    "CompiledModelSet",
    "CompiledPopulation",
    "GenerationCheckpoint",
    "RunKey",
    "TrafficGenerator",
    "compile_model_set",
    "stream_events",
    "stream_to_trace",
    "validate_run_args",
]
