"""Checkpoint/resume for long generation runs.

The paper's week-long 37K-UE traces (§7) assume multi-hour generation
that real infrastructure cannot promise to keep alive; this module
makes runs *restartable* instead.  A :class:`GenerationCheckpoint`
snapshots run progress — the chunk plan and completed chunks of a
materialized run, or the completed hours and per-UE carryover state of
a stream — plus RNG provenance and the content hash of the fitted model
set, to a single file that is always replaced atomically
(write-to-temp + ``os.replace``), so a crash at any instant leaves
either the previous checkpoint or the new one, never a torn file.

Because every random draw comes from a SplitMix64 counter mix that is a
pure function of ``(seed, ue position)``, the carryover needed for
bit-identical continuation is small:

- **generate**: chunks are independent pure functions of the run
  parameters, so the checkpoint stores the plan (UEs per chunk, per
  device type) and the finished chunks' event columns; a resume reruns
  the saved plan's missing chunks under any ``processes``.
- **stream**: the per-UE chain-state array plus the hour counter
  (:meth:`CompiledPopulation.snapshot`); personas and per-UE keys are
  replayed from the seed.

A checkpoint is bound to its run by a :class:`RunKey` — every
generation parameter plus :meth:`ModelSet.content_hash`.  Resuming with
*any* differing parameter (or a re-fitted model set) raises
:class:`CheckpointMismatchError` instead of silently producing a trace
that is not bit-identical to the uninterrupted run; so does one whose
provenance names other random streams (``rng``).  :func:`open_run` is
the one place both entry points key, load and snapshot a run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import zipfile
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointMismatchError",
    "GenerationCheckpoint",
    "RunKey",
]

CHECKPOINT_FORMAT = "repro-generation-checkpoint-v3"

#: Four event columns: (ue_ids, times, event_types, device_types).
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_COLUMN_NAMES = ("ue", "time", "event", "device")
_COLUMN_DTYPES = (np.int64, np.float64, np.int8, np.int8)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, unreadable, or malformed."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint was produced by a run with different parameters."""


#: The generator's random streams; a checkpoint drawn from others is
#: refused, since resuming it would splice two streams into one trace.
RNG = "splitmix64 counter"


def _rng_provenance() -> Dict[str, str]:
    """What produced the random streams.  ``rng`` is checked on resume;
    the numpy version is recorded only (the engine's draws are integer
    arithmetic that does not depend on it)."""
    return {"numpy": np.__version__, "rng": RNG}


@dataclasses.dataclass(frozen=True)
class RunKey:
    """Everything that determines a generation run's output bits."""

    kind: str                #: "generate" | "stream"
    seed: int
    start_hour: int
    num_hours: int
    first_ue_id: int
    counts: Dict[str, int]   #: device name -> UE count
    model_hash: str

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
    ) -> "RunKey":
        return cls(
            kind=kind,
            seed=int(seed),
            start_hour=int(start_hour),
            num_hours=int(num_hours),
            first_ue_id=int(first_ue_id),
            counts={dt.name: int(n) for dt, n in counts.items()},
            model_hash=model_set.content_hash(),
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
    ``chunk_ues`` + ``chunk_columns`` for ``generate``,
    ``hours_done`` + ``events_emitted`` + ``population_state`` for
    ``stream``.
    """

    key: RunKey
    hours_done: int = 0
    events_emitted: int = 0  #: stream runs: events yielded so far
    population_state: Optional[np.ndarray] = None   # per-UE chain states
    #: The chunk plan: UEs per chunk, by device name.
    chunk_ues: Dict[str, int] = dataclasses.field(default_factory=dict)
    chunk_columns: Dict[int, Columns] = dataclasses.field(default_factory=dict)
    provenance: Dict[str, Any] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    def save(self, path: "str | os.PathLike[str]") -> None:
        """Atomically write the checkpoint (temp file + ``os.replace``).

        Every snapshot is recorded on the ambient telemetry collector:
        a ``checkpoint`` span entry plus the ``checkpoint_snapshots``
        and ``checkpoint_bytes`` counters.
        """
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
            "chunk_ues": self.chunk_ues,
            "completed_chunks": sorted(self.chunk_columns),
            "has_population_state": self.population_state is not None,
            "provenance": self.provenance,
        }
        arrays: Dict[str, np.ndarray] = {"meta": np.asarray(json.dumps(meta))}
        if self.population_state is not None:
            arrays["population_state"] = np.asarray(
                self.population_state, dtype=np.int32
            )
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
                chunk_columns: Dict[int, Columns] = {}
                for idx in meta["completed_chunks"]:
                    chunk_columns[int(idx)] = tuple(
                        np.asarray(data[f"chunk{idx}_{name}"], dtype=dtype)
                        for name, dtype in zip(_COLUMN_NAMES, _COLUMN_DTYPES)
                    )
            chunk_ues = {
                str(name): int(n) for name, n in meta["chunk_ues"].items()
            }
            # A key with unknown or missing fields is malformed too.
            key = RunKey(**meta["key"])
            provenance = dict(meta.get("provenance", {}))
        except CheckpointError:
            raise
        except (
            AttributeError, OSError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile,
        ) as exc:
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc}"
            ) from exc
        return cls(
            key=key,
            hours_done=int(meta["hours_done"]),
            events_emitted=int(meta["events_emitted"]),
            population_state=population_state,
            chunk_ues=chunk_ues,
            chunk_columns=chunk_columns,
            provenance=provenance,
        )

    @classmethod
    def load_for_run(
        cls, path: "str | os.PathLike[str]", key: RunKey
    ) -> "GenerationCheckpoint":
        """Load and verify the checkpoint belongs to the run ``key`` and
        was drawn from this engine's random streams."""
        checkpoint = cls.load(path)
        saved = checkpoint.provenance.get("rng")
        if saved != RNG:
            raise CheckpointMismatchError(
                "checkpoint was drawn from other random streams — "
                f"rng: checkpoint has {saved!r}, run has {RNG!r}"
            )
        checkpoint.key.validate_against(key)
        return checkpoint


def open_run(
    path: "Optional[str | os.PathLike[str]]",
    model_set: ModelSet,
    counts: Dict[DeviceType, int],
    *,
    kind: str,
    resume: bool,
    telemetry: RunTelemetry,
    seed: int,
    start_hour: int,
    num_hours: int,
    first_ue_id: int,
) -> Tuple[Optional[GenerationCheckpoint], Callable[..., None]]:
    """Key a run and open its checkpoint file.

    Returns the checkpoint to resume from (``None`` for a fresh run or
    no ``path``) and ``save(**fields)``, which snapshots the run's
    progress to ``path`` under ``telemetry`` (a no-op without ``path``).
    """
    if path is None:
        if resume:
            raise ValueError("resume=True requires checkpoint_path")
        return None, lambda **fields: None
    key = RunKey.for_run(
        model_set,
        counts,
        kind=kind,
        seed=seed,
        start_hour=start_hour,
        num_hours=num_hours,
        first_ue_id=first_ue_id,
    )
    resumed = GenerationCheckpoint.load_for_run(path, key) if resume else None

    def save(**fields: Any) -> None:
        # A stream's consumer controls which collector is ambient at
        # next() time; snapshots report to the run's own.
        with use_telemetry(telemetry):
            GenerationCheckpoint(
                key=key, provenance=_rng_provenance(), **fields
            ).save(path)

    return resumed, save
