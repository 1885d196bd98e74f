"""Trace synthesis from fitted model sets (§7)."""

from .checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    GenerationCheckpoint,
    RunKey,
)
from .compiled import (
    MAX_EVENTS_PER_HOUR,
    CompiledPopulation,
)
from .streaming import stream_events
from .traffgen import MAX_SEED, TrafficGenerator, validate_run_args

__all__ = [
    "MAX_EVENTS_PER_HOUR",
    "MAX_SEED",
    "CheckpointError",
    "CheckpointMismatchError",
    "CompiledPopulation",
    "GenerationCheckpoint",
    "RunKey",
    "TrafficGenerator",
    "stream_events",
    "validate_run_args",
]
