"""Checkpoint/resume for long generation runs.

The paper's week-long 37K-UE traces (§7) assume multi-hour generation
that real infrastructure cannot promise to keep alive; this module
makes runs *restartable* instead.  A :class:`GenerationCheckpoint`
snapshots run progress — completed hours (or, for the parallel path,
completed chunks), the per-UE carryover state, RNG provenance, and the
content hash of the fitted model set — to a single file that is always
replaced atomically (write-to-temp + ``os.replace``), so a crash at any
instant leaves either the previous checkpoint or the new one, never a
torn file.

Because every random draw comes from a Philox counter that is a pure
function of ``(seed, ue position)``, the carryover needed for
bit-identical continuation is tiny:

- **serial / stream**: the per-UE chain-state array plus the hour
  counter (:meth:`CompiledPopulation.snapshot`); personas and Philox
  keys are replayed from the seed.
- **parallel**: completed chunks are independent pure functions of the
  run parameters, so the checkpoint simply stores their finished event
  columns and the remaining chunks are (re)generated.

A checkpoint is bound to its run by a :class:`RunKey` — every
generation parameter plus :meth:`ModelSet.content_hash`.  Resuming with
*any* differing parameter (or a re-fitted model set) raises
:class:`CheckpointMismatchError` instead of silently producing a trace
that is not bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import zipfile
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..model.model_set import ModelSet
from ..trace.events import DeviceType
from ..trace.trace import Trace
from .compiled import population_for_counts

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointMismatchError",
    "GenerationCheckpoint",
    "RunKey",
]

CHECKPOINT_FORMAT = "repro-generation-checkpoint-v2"

#: Four event columns: (ue_ids, times, event_types, device_types).
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_COLUMN_NAMES = ("ue", "time", "event", "device")
_COLUMN_DTYPES = (np.int64, np.float64, np.int8, np.int8)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, unreadable, or malformed."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint was produced by a run with different parameters."""


def _rng_provenance() -> Dict[str, str]:
    """What produced the random streams (recorded, checked by humans)."""
    return {"numpy": np.__version__, "rng": "philox4x64-10 counter"}


@dataclasses.dataclass(frozen=True)
class RunKey:
    """Everything that determines a generation run's output bits."""

    kind: str                #: "generate" | "parallel" | "stream"
    seed: int
    start_hour: int
    num_hours: int
    first_ue_id: int
    counts: Dict[str, int]   #: device name -> UE count
    model_hash: str
    chunk_size: int = 0      #: parallel runs only (0 otherwise)

    @classmethod
    def for_run(
        cls,
        model_set: ModelSet,
        counts: Dict[DeviceType, int],
        *,
        kind: str,
        seed: int,
        start_hour: int,
        num_hours: int,
        first_ue_id: int,
        chunk_size: int = 0,
    ) -> "RunKey":
        return cls(
            kind=kind,
            seed=int(seed),
            start_hour=int(start_hour),
            num_hours=int(num_hours),
            first_ue_id=int(first_ue_id),
            counts={dt.name: int(n) for dt, n in counts.items()},
            model_hash=model_set.content_hash(),
            chunk_size=int(chunk_size),
        )

    def validate_against(self, run: "RunKey") -> None:
        """Raise :class:`CheckpointMismatchError` naming every mismatch."""
        mismatches = [
            f"{field.name}: checkpoint has {getattr(self, field.name)!r}, "
            f"run has {getattr(run, field.name)!r}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != getattr(run, field.name)
        ]
        if mismatches:
            raise CheckpointMismatchError(
                "checkpoint does not belong to this run — "
                + "; ".join(mismatches)
            )


@dataclasses.dataclass
class GenerationCheckpoint:
    """One run's resumable progress (see module docstring).

    Only the fields relevant to the run ``kind`` are populated:
    ``columns`` + ``population_state`` for ``generate``,
    ``population_state`` + ``events_emitted`` for ``stream``,
    ``chunk_columns`` for ``parallel``.
    """

    key: RunKey
    hours_done: int = 0
    events_emitted: int = 0  #: stream runs: events yielded so far
    population_state: Optional[np.ndarray] = None   # per-UE chain states
    columns: Optional[Columns] = None               # accumulated events
    chunk_columns: Dict[int, Columns] = dataclasses.field(default_factory=dict)
    provenance: Dict[str, Any] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    def save(self, path: "str | os.PathLike[str]") -> None:
        """Atomically write the checkpoint (temp file + ``os.replace``).

        Every snapshot is recorded on the ambient telemetry collector:
        a ``checkpoint`` span entry plus the ``checkpoint_snapshots``
        and ``checkpoint_bytes`` counters.
        """
        from ..telemetry import get_telemetry

        with get_telemetry().span("checkpoint"):
            self._save(path)
        tele = get_telemetry()
        tele.count("checkpoint_snapshots")
        try:
            tele.count("checkpoint_bytes", os.path.getsize(path))
        except OSError:  # pragma: no cover - racing deletion
            pass

    def _save(self, path: "str | os.PathLike[str]") -> None:
        meta = {
            "format": CHECKPOINT_FORMAT,
            "key": dataclasses.asdict(self.key),
            "hours_done": int(self.hours_done),
            "events_emitted": int(self.events_emitted),
            "completed_chunks": sorted(self.chunk_columns),
            "has_population_state": self.population_state is not None,
            "has_columns": self.columns is not None,
            "provenance": self.provenance,
        }
        arrays: Dict[str, np.ndarray] = {"meta": np.asarray(json.dumps(meta))}
        if self.population_state is not None:
            arrays["population_state"] = np.asarray(
                self.population_state, dtype=np.int32
            )
        if self.columns is not None:
            for name, col in zip(_COLUMN_NAMES, self.columns):
                arrays[f"col_{name}"] = col
        for idx, cols in self.chunk_columns.items():
            for name, col in zip(_COLUMN_NAMES, cols):
                arrays[f"chunk{idx}_{name}"] = col

        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez_compressed(fh, **arrays)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "GenerationCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                if meta.get("format") != CHECKPOINT_FORMAT:
                    raise CheckpointError(
                        f"{path}: unknown checkpoint format "
                        f"{meta.get('format')!r}"
                    )
                population_state = (
                    np.asarray(data["population_state"], dtype=np.int32)
                    if meta["has_population_state"]
                    else None
                )
                columns: Optional[Columns] = None
                if meta["has_columns"]:
                    columns = tuple(
                        np.asarray(data[f"col_{name}"], dtype=dtype)
                        for name, dtype in zip(_COLUMN_NAMES, _COLUMN_DTYPES)
                    )
                chunk_columns: Dict[int, Columns] = {}
                for idx in meta["completed_chunks"]:
                    chunk_columns[int(idx)] = tuple(
                        np.asarray(data[f"chunk{idx}_{name}"], dtype=dtype)
                        for name, dtype in zip(_COLUMN_NAMES, _COLUMN_DTYPES)
                    )
            # A key with unknown or missing fields is malformed too.
            key = RunKey(**meta["key"])
        except CheckpointError:
            raise
        except (
            OSError, KeyError, TypeError, ValueError, zipfile.BadZipFile
        ) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        return cls(
            key=key,
            hours_done=int(meta["hours_done"]),
            events_emitted=int(meta["events_emitted"]),
            population_state=population_state,
            columns=columns,
            chunk_columns=chunk_columns,
            provenance=meta.get("provenance", {}),
        )

    @classmethod
    def load_for_run(
        cls, path: "str | os.PathLike[str]", key: RunKey
    ) -> "GenerationCheckpoint":
        """Load and verify the checkpoint belongs to the run ``key``."""
        checkpoint = cls.load(path)
        checkpoint.key.validate_against(key)
        return checkpoint


# ---------------------------------------------------------------------------
# Shared run machinery for the serial / streaming entry points
# ---------------------------------------------------------------------------


def generate_checkpointed(
    model_set: ModelSet,
    counts: Dict[DeviceType, int],
    *,
    start_hour: int,
    num_hours: int,
    seed: int,
    first_ue_id: int,
    checkpoint_path: "str | os.PathLike[str]",
    resume: bool,
) -> Trace:
    """Materialize a trace hour by hour, checkpointing after each hour.

    Produces output bit-identical to
    :meth:`TrafficGenerator.generate` with the same arguments and no
    checkpointing: it runs the very same per-hour cohort stepping.
    """
    if checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")
    key = RunKey.for_run(
        model_set,
        counts,
        kind="generate",
        seed=seed,
        start_hour=start_hour,
        num_hours=num_hours,
        first_ue_id=first_ue_id,
    )
    hours_done = 0
    parts: List[Columns] = []
    checkpoint: Optional[GenerationCheckpoint] = None
    if resume:
        checkpoint = GenerationCheckpoint.load_for_run(checkpoint_path, key)
        hours_done = checkpoint.hours_done
        if checkpoint.columns is not None and len(checkpoint.columns[0]):
            parts.append(checkpoint.columns)

    def _save(population_state) -> None:
        GenerationCheckpoint(
            key=key,
            hours_done=hours_done,
            population_state=population_state,
            columns=_concat_columns(parts),
            provenance=_rng_provenance(),
        ).save(checkpoint_path)

    from ..telemetry import get_telemetry

    tele = get_telemetry()
    total_ues = sum(counts.values())

    population = population_for_counts(
        model_set, counts, seed=seed, start_hour=start_hour
    )
    if checkpoint is not None:
        if checkpoint.population_state is None:
            raise CheckpointError(
                f"{checkpoint_path}: checkpoint is missing the population "
                "carryover state"
            )
        population.restore(checkpoint.population_state, hours_done)
    elif hours_done == 0:
        _save(population.snapshot()[0])
    draws_before = population.rng_draws
    for _ in range(hours_done, num_hours):
        rows, times, events = population.advance_hour()
        if len(rows):
            parts.append(
                (
                    first_ue_id + rows,
                    times,
                    events.astype(np.int8),
                    population.device_codes[rows],
                )
            )
        hours_done += 1
        tele.count("ue_hours", total_ues)
        tele.progress("generate", hours_done, num_hours)
        _save(population.snapshot()[0])
    tele.count("rng_draws", population.rng_draws - draws_before)

    columns = _concat_columns(parts)
    if len(columns[0]) == 0:
        return Trace.empty()
    return Trace(*columns, validate=False)


def _concat_columns(parts: List[Columns]) -> Columns:
    """Concatenate per-hour column blocks (typed empties when none)."""
    if not parts:
        return tuple(
            np.empty(0, dtype=dtype) for dtype in _COLUMN_DTYPES
        )
    return tuple(
        np.concatenate([p[i] for p in parts]) for i in range(4)
    )
