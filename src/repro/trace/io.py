"""Reading and writing traces.

Two formats are supported:

* **CSV** — one header row ``ue_id,time,event,device`` followed by one
  row per event; event and device columns use the protocol names
  (``SRV_REQ``, ``PHONE``, ...).  Human-readable, diff-friendly.
* **NPZ** — the four raw columns in a compressed numpy archive.
  Compact and fast; the format of choice for large synthetic traces.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import zipfile
from typing import Dict, Union

import numpy as np

from .events import DeviceType, EventType
from .trace import Trace

PathLike = Union[str, "os.PathLike[str]"]

_CSV_HEADER = ["ue_id", "time", "event", "device"]

_NPZ_COLUMNS = ("ue_ids", "times", "event_types", "device_types")


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


def write_npz(trace: Trace, path: PathLike, *, compress: bool = True) -> None:
    """Write ``trace`` to ``path`` as a numpy archive.

    ``compress=False`` stores the columns raw (``np.savez``), which
    makes the file eligible for zero-copy memory mapping via
    ``read_npz(path, mmap=True)``.
    """
    saver = np.savez_compressed if compress else np.savez
    saver(
        path,
        ue_ids=trace.ue_ids,
        times=trace.times,
        event_types=trace.event_types,
        device_types=trace.device_types,
    )


def _mmap_npz_members(path: PathLike) -> Dict[str, np.ndarray]:
    """Memory-map the array members of an *uncompressed* NPZ archive.

    ``np.load`` always decompresses NPZ members into fresh in-memory
    arrays, so a multi-GB training trace gets materialized twice (the
    loader copy plus the Trace columns).  For archives written with
    ``write_npz(..., compress=False)`` every member is ZIP_STORED, i.e.
    a plain ``.npy`` byte range inside the file — so each column can be
    a ``np.memmap`` view at the right offset instead of a copy.

    Raises ``ValueError`` if any member is compressed (caller falls
    back to ``np.load``).
    """
    members: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"{info.filename} is compressed; cannot mmap")
            with open(path, "rb") as fh:
                # The central directory's header_offset points at the
                # local file header; its name/extra lengths live at
                # struct offset 26 and precede the member's bytes.
                fh.seek(info.header_offset)
                local = fh.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    raise ValueError(f"bad local file header for {info.filename}")
                name_len, extra_len = struct.unpack("<2H", local[26:30])
                data_offset = info.header_offset + 30 + name_len + extra_len
                fh.seek(data_offset)
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(fh)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(fh)
                else:
                    raise ValueError(f"unsupported npy version {version}")
                shape, fortran, dtype = header
                if fortran:
                    raise ValueError(f"{info.filename} is Fortran-ordered")
                array_offset = fh.tell()
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            members[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=array_offset, shape=shape
            )
    return members


def read_npz(path: PathLike, *, mmap: bool = False) -> Trace:
    """Read a trace previously written by :func:`write_npz`.

    With ``mmap=True`` and an uncompressed archive the four columns are
    memory-mapped straight out of the file — the trace is never
    materialized in RAM beyond the pages actually touched.  Compressed
    archives silently fall back to a normal load.  A missing or
    malformed column raises :class:`ValueError` naming the file and the
    column.
    """
    if mmap:
        try:
            data = _mmap_npz_members(path)
        except (ValueError, OSError, KeyError):
            data = None
        if data is not None:
            return _trace_from_columns(data, path)
    with np.load(path) as data:
        return _trace_from_columns(
            {name: data[name] for name in data.files}, path
        )


def _trace_from_columns(data: Dict[str, np.ndarray], path: PathLike) -> Trace:
    for name in _NPZ_COLUMNS:
        if name not in data:
            raise ValueError(f"{path}: trace archive lacks column {name!r}")
    ue_ids = data["ue_ids"]
    times = data["times"]
    # Traces are written sorted by (time, ue_id); when that still holds
    # we can skip the constructor's re-sort (which would force a copy
    # of memory-mapped columns).
    already_sorted = True
    if len(times) > 1:
        dt = np.diff(times)
        due = np.diff(ue_ids)
        already_sorted = bool(np.all((dt > 0) | ((dt == 0) & (due >= 0))))
    try:
        return Trace(
            ue_ids,
            times,
            data["event_types"],
            data["device_types"],
            sort=not already_sorted,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
