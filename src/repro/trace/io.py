"""Reading and writing traces.

Two formats are supported:

* **CSV** — one header row ``ue_id,time,event,device`` followed by one
  row per event; event and device columns use the protocol names
  (``SRV_REQ``, ``PHONE``, ...).  Human-readable, diff-friendly.
* **NPZ** — the four raw columns in a compressed numpy archive.
  Compact and fast; the format of choice for large synthetic traces.

Either reader hands its columns to the :class:`Trace` constructor,
which checks them and keeps rows already in ``(time, ue_id)`` order
as they are.
"""

from __future__ import annotations

import csv
import math
import os
from typing import Union

import numpy as np

from .events import DeviceType, EventType
from .trace import COLUMNS, Trace

PathLike = Union[str, "os.PathLike[str]"]

_CSV_HEADER = ["ue_id", "time", "event", "device"]


def _parse_ue(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("negative UE id")
    return value


def _parse_time(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite time")
    if value < 0:
        raise ValueError("negative time")
    return value


#: One parser per CSV column, in ``_CSV_HEADER`` order.
_CSV_PARSERS = (
    _parse_ue,
    _parse_time,
    lambda text: int(EventType[text]),
    lambda text: int(DeviceType[text]),
)


def write_csv(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in the CSV trace format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i in range(len(trace)):
            writer.writerow(
                [
                    int(trace.ue_ids[i]),
                    f"{trace.times[i]:.3f}",
                    EventType(int(trace.event_types[i])).name,
                    DeviceType(int(trace.device_types[i])).name,
                ]
            )


def read_csv(path: PathLike) -> Trace:
    """Read a trace previously written by :func:`write_csv`.

    A malformed value raises :class:`ValueError` naming the file, the
    line and the column.
    """
    columns = ([], [], [], [])
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ValueError(
                f"unexpected CSV header {header!r}; expected {_CSV_HEADER!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            for name, parse, text, column in zip(
                _CSV_HEADER, _CSV_PARSERS, row, columns
            ):
                try:
                    column.append(parse(text))
                except (KeyError, ValueError) as exc:
                    reason = "unknown name" if isinstance(exc, KeyError) else exc
                    raise ValueError(
                        f"{path}:{lineno}: column {name!r}: "
                        f"bad value {text!r} ({reason})"
                    ) from None
    ue_ids, times, events, devices = columns
    try:
        return Trace(
            np.asarray(ue_ids, dtype=np.int64),
            np.asarray(times, dtype=np.float64),
            np.asarray(events, dtype=np.int8),
            np.asarray(devices, dtype=np.int8),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_npz(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` as a compressed numpy archive."""
    np.savez_compressed(
        path, **{name: getattr(trace, name) for name in COLUMNS}
    )


def read_npz(path: PathLike) -> Trace:
    """Read a trace previously written by :func:`write_npz`.

    A missing or malformed column raises :class:`ValueError` naming the
    file and the column.
    """
    with np.load(path) as data:
        for name in COLUMNS:
            if name not in data.files:
                raise ValueError(f"{path}: trace archive lacks column {name!r}")
        columns = [data[name] for name in COLUMNS]
    try:
        return Trace(*columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
