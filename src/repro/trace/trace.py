"""Column-oriented container for control-plane event traces.

A :class:`Trace` stores events as parallel numpy arrays — UE id,
timestamp (float seconds from the trace epoch), event type, and device
type — kept in ``(time, ue_id)`` order whatever built them, and offers
the slicing operations the modeling pipeline needs: per-UE views,
per-hour windows, and device filters.  The columns are read-only
views, so whatever a trace derives from them (its per-UE index, its
content hash, the values held by :meth:`Trace.memo`) stays valid for
its lifetime; operations return new ``Trace`` views or copies.
"""

from __future__ import annotations

import dataclasses
import math
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from .events import (
    ALL_DEVICE_TYPES,
    SECONDS_PER_HOUR,
    DeviceType,
    EventType,
)


#: A Trace's four columns, in constructor order.
COLUMNS = ("ue_ids", "times", "event_types", "device_types")

_T = TypeVar("_T")


def _read_only(column: np.ndarray) -> np.ndarray:
    """``column`` if it is read-only, else a read-only view of it (the
    caller's array keeps its flags)."""
    if not column.flags.writeable:
        return column
    view = column.view()
    view.flags.writeable = False
    return view


@dataclasses.dataclass(frozen=True)
class Event:
    """A single control-plane event, as emitted by a generator."""

    ue_id: int
    time: float
    event_type: EventType
    device_type: DeviceType

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise ValueError(
                f"event time must be finite and non-negative, got {self.time}"
            )


def _check_integers(raw, column: str, top: Optional[int], bad: str) -> None:
    """Reject what the integer cast would hide in a raw column.

    The cast would truncate non-integral values (NaN and infinities
    included) and wrap codes outside ``[0, top]``; ``top=None`` only
    bounds the column below.  ``bad`` names an out-of-range value.
    """
    raw = np.asarray(raw)
    if not raw.size:
        return
    if raw.dtype.kind == "f" and not (
        np.isfinite(raw).all() and np.array_equal(raw, np.trunc(raw))
    ):
        raise ValueError(f"trace column {column!r} contains non-integer values")
    if raw.min() < 0 or (top is not None and raw.max() > top):
        raise ValueError(f"trace column {column!r} contains {bad}")


def _in_time_order(ue_ids: np.ndarray, times: np.ndarray) -> bool:
    """Whether the rows already run in ``(time, ue_id)`` order.

    One O(n) pass: times never fall (a NaN counts as a fall), and ids
    never fall between rows with equal times.
    """
    if len(times) < 2:
        return True
    if not (times[1:] >= times[:-1]).all():
        return False
    tied = np.flatnonzero(times[1:] == times[:-1])
    return bool((ue_ids[tied + 1] >= ue_ids[tied]).all())


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys.

    Sorts the composite ``key * n + position`` instead: one plain
    ``np.sort`` of int64 values, which NumPy runs several times faster
    than a stable argsort, gives the same permutation.  Negative keys,
    and keys too large for the composite to fit in int64, fall back to
    the stable argsort.
    """
    n = keys.size
    if n == 0 or int(keys.min()) < 0 or (
        int(keys.max()) >= np.iinfo(np.int64).max // n - 1
    ):
        return np.argsort(keys, kind="stable")
    return np.sort(keys.astype(np.int64) * n + np.arange(n)) % n


@dataclasses.dataclass(frozen=True)
class UEIndex:
    """A trace's rows grouped by UE: UE ``ues[i]`` owns rows
    ``order[bounds[i]:bounds[i + 1]]``, in time order.  Read-only."""

    order: np.ndarray   #: (n,) stable row permutation into (ue, time) order
    ues: np.ndarray     #: (U,) sorted distinct UE ids
    bounds: np.ndarray  #: (U + 1,) each UE's run in ``order``

    @classmethod
    def build(cls, ue_ids: np.ndarray) -> "UEIndex":
        order = stable_order(ue_ids)
        ue = ue_ids[order]
        first = np.ones(len(ue), dtype=bool)
        first[1:] = ue[1:] != ue[:-1]
        starts = np.flatnonzero(first)
        index = cls(order, ue[starts], np.append(starts, len(ue)))
        for array in (index.order, index.ues, index.bounds):
            array.flags.writeable = False
        return index

    def rows(self, i: int) -> np.ndarray:
        """Row indices of the ``i``-th UE, in time order."""
        return self.order[self.bounds[i]: self.bounds[i + 1]]

    def codes(self) -> np.ndarray:
        """Each row's UE code (index into ``ues``), in ``order``."""
        return np.repeat(np.arange(len(self.ues)), np.diff(self.bounds))

    def firsts(self) -> np.ndarray:
        """``True`` at each UE's first row, in ``order``."""
        first = np.zeros(len(self.order), dtype=bool)
        first[self.bounds[:-1]] = True
        return first


class Trace:
    """An ordered collection of control-plane events.

    Events are always sorted by ``(time, ue_id)``: the constructor
    keeps columns already in that order as given (no copy) and
    reorders others with one stable ``lexsort``.  All four columns have
    equal length.  Every construction checks the columns and names the
    first bad one in a ``ValueError``: ``ue_ids`` are arbitrary
    non-negative integers, ``times`` finite and non-negative, the codes
    in range, and each UE keeps one device type.  Row subsets of a
    trace (:meth:`filter_device`, :meth:`window`, :meth:`per_ue`, ...)
    cannot fail the checks and skip them.  The columns are read-only
    views (of the given arrays when no cast or reorder was needed).
    Every per-UE view reads one :class:`UEIndex`, built on first use.
    """

    __slots__ = (
        "ue_ids",
        "times",
        "event_types",
        "device_types",
        "_ue_index",
        "_content_hash",
        "_memos",
    )

    def __init__(
        self,
        ue_ids: np.ndarray,
        times: np.ndarray,
        event_types: np.ndarray,
        device_types: np.ndarray,
    ) -> None:
        times = np.asarray(times, dtype=np.float64)
        _check_integers(ue_ids, "ue_ids", None, "negative UE ids")
        _check_integers(
            event_types, "event_types", max(EventType), "unknown event types"
        )
        _check_integers(
            device_types, "device_types", max(DeviceType), "unknown device types"
        )
        if len(times) > 0:
            # NaN propagates through min(), so two reductions catch NaN
            # and both infinities.
            lo, hi = times.min(), times.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(
                    "trace column 'times' contains non-finite timestamps"
                )
            if lo < 0:
                raise ValueError(
                    "trace column 'times' contains negative timestamps"
                )
        ue_ids = np.asarray(ue_ids, dtype=np.int64)
        event_types = np.asarray(event_types, dtype=np.int8)
        device_types = np.asarray(device_types, dtype=np.int8)

        lengths = {len(ue_ids), len(times), len(event_types), len(device_types)}
        if len(lengths) != 1:
            raise ValueError(f"column lengths differ: {sorted(lengths)}")

        if not _in_time_order(ue_ids, times):
            order = np.lexsort((ue_ids, times))
            ue_ids = ue_ids[order]
            times = times[order]
            event_types = event_types[order]
            device_types = device_types[order]
            # Freed before the one-device check builds the UE index:
            # the caller still holds the unsorted columns.
            del order

        self._set_columns(ue_ids, times, event_types, device_types)
        if len(times) > 1:
            self._check_one_device_per_ue()

    def _set_columns(self, *columns: np.ndarray) -> None:
        """Hold ``columns`` (in :data:`COLUMNS` order) as read-only views."""
        for name, column in zip(COLUMNS, columns):
            setattr(self, name, _read_only(column))
        self._ue_index: Optional[UEIndex] = None
        self._content_hash: Optional[str] = None
        self._memos: Dict[Hashable, Any] = {}

    def _check_one_device_per_ue(self) -> None:
        """Reject a UE whose rows carry more than one device type.

        Reads the per-UE index every consumer builds anyway, so the
        check costs no extra sort.
        """
        index = self.ue_index()
        devices = self.device_types[index.order]
        mixed = np.flatnonzero(
            (devices[1:] != devices[:-1]) & ~index.firsts()[1:]
        )
        if mixed.size:
            ue = index.ues[index.codes()[mixed[0] + 1]]
            raise ValueError(
                f"trace column 'device_types' gives UE {int(ue)} more than "
                "one device type"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "Trace":
        """Build a trace from an iterable of :class:`Event` records."""
        events = list(events)
        return cls(
            np.array([e.ue_id for e in events], dtype=np.int64),
            np.array([e.time for e in events], dtype=np.float64),
            np.array([int(e.event_type) for e in events], dtype=np.int8),
            np.array([int(e.device_type) for e in events], dtype=np.int8),
        )

    @classmethod
    def empty(cls) -> "Trace":
        """An event-free trace."""
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int8),
            np.empty(0, dtype=np.int8),
        )

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"]) -> "Trace":
        """Merge several traces into one (re-sorted by time)."""
        if not traces:
            return cls.empty()
        return cls(
            np.concatenate([t.ue_ids for t in traces]),
            np.concatenate([t.times for t in traces]),
            np.concatenate([t.event_types for t in traces]),
            np.concatenate([t.device_types for t in traces]),
        )

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, i: int) -> Event:
        return Event(
            ue_id=int(self.ue_ids[i]),
            time=float(self.times[i]),
            event_type=EventType(int(self.event_types[i])),
            device_type=DeviceType(int(self.device_types[i])),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self.ue_ids, other.ue_ids)
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.event_types, other.event_types)
            and np.array_equal(self.device_types, other.device_types)
        )

    def __reduce__(self):
        # Unpickled arrays are writeable, and nothing derived from the
        # columns travels: the checked constructor makes them read-only
        # views and starts with no index, hash or memos.
        return Trace, tuple(getattr(self, column) for column in COLUMNS)

    def __repr__(self) -> str:
        span = f"[{self.times[0]:.3f}, {self.times[-1]:.3f}]s" if len(self) else "[]"
        return f"Trace({len(self)} events, {self.num_ues} UEs, span {span})"

    # ------------------------------------------------------------------
    # Summary properties
    # ------------------------------------------------------------------
    @property
    def num_ues(self) -> int:
        """Number of distinct UEs appearing in the trace."""
        return len(self.ue_index().ues)

    @property
    def duration(self) -> float:
        """Span between the first and last event, in seconds."""
        if len(self) == 0:
            return 0.0
        return float(self.times[-1] - self.times[0])

    def unique_ues(self) -> np.ndarray:
        """Sorted (read-only) array of distinct UE ids."""
        return self.ue_index().ues

    def ue_index(self) -> UEIndex:
        """The rows grouped by UE; built on first use, then memoized."""
        if self._ue_index is None:
            self._ue_index = UEIndex.build(self.ue_ids)
        return self._ue_index

    def content_hash(self) -> str:
        """SHA-256 over the four column arrays (dtype-normalized bytes).

        Two traces with identical events hash identically regardless of
        how they were constructed or stored (compressed NPZ, memory map,
        in-memory).  The digest is memoized; the columns are read-only.
        """
        if self._content_hash is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(b"repro-trace-v1")
            for column in (
                self.ue_ids,
                self.times,
                self.event_types,
                self.device_types,
            ):
                digest.update(np.ascontiguousarray(column).tobytes())
            self._content_hash = digest.hexdigest()
        return self._content_hash

    def memo(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """``build()``, computed on the first call with ``key`` and then
        held for the trace's lifetime.

        For values derived from the columns: ``key`` must name every
        other input the value depends on.  The held value is shared by
        every caller, which must not modify it.
        """
        try:
            return self._memos[key]
        except KeyError:
            value = self._memos[key] = build()
            return value

    def device_of(self) -> Dict[int, DeviceType]:
        """Map every UE id to its device type (that of its first event)."""
        index = self.ue_index()
        firsts = self.device_types[index.order[index.bounds[:-1]]]
        return dict(zip(index.ues.tolist(), map(DeviceType, firsts.tolist())))

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def _select(self, rows) -> "Trace":
        """The rows ``rows`` (a mask, a slice or increasing indices).

        A row subset keeps this trace's dtypes and ``(time, ue_id)``
        order, and passes every constructor check because this trace
        did, so it is the one construction that skips them.
        """
        subset = Trace.__new__(Trace)
        subset._set_columns(
            self.ue_ids[rows],
            self.times[rows],
            self.event_types[rows],
            self.device_types[rows],
        )
        return subset

    def filter_device(self, device_type: DeviceType) -> "Trace":
        """Events of UEs of one device type."""
        return self._select(self.device_types == int(device_type))

    def filter_event(self, event_type: EventType) -> "Trace":
        """Events of one event type."""
        return self._select(self.event_types == int(event_type))

    def filter_ues(self, ue_ids: Iterable[int]) -> "Trace":
        """Events belonging to the given set of UEs."""
        wanted = np.fromiter(ue_ids, dtype=np.int64)
        return self._select(np.isin(self.ue_ids, wanted))

    def window(self, start: float, end: float) -> "Trace":
        """Events with ``start <= time < end``."""
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        lo = np.searchsorted(self.times, start, side="left")
        hi = np.searchsorted(self.times, end, side="left")
        return self._select(slice(lo, hi))

    def hour_window(self, hour_index: int) -> "Trace":
        """Events in the ``hour_index``-th one-hour interval of the trace."""
        start = hour_index * SECONDS_PER_HOUR
        return self.window(start, start + SECONDS_PER_HOUR)

    def shift(self, offset: float) -> "Trace":
        """A copy of the trace with ``offset`` added to every timestamp."""
        return Trace(
            self.ue_ids.copy(),
            self.times + offset,
            self.event_types.copy(),
            self.device_types.copy(),
        )

    # ------------------------------------------------------------------
    # Per-UE access
    # ------------------------------------------------------------------
    def per_ue(self) -> Iterator[Tuple[int, "Trace"]]:
        """Yield ``(ue_id, sub_trace)`` for every UE, in UE-id order.

        The sub-traces preserve time order.
        """
        index = self.ue_index()
        for i, ue in enumerate(index.ues.tolist()):
            yield ue, self._select(index.rows(i))

    def ue_trace(self, ue_id: int) -> "Trace":
        """The events of one UE (time-ordered)."""
        index = self.ue_index()
        i = int(np.searchsorted(index.ues, ue_id))
        if i == len(index.ues) or index.ues[i] != ue_id:
            return Trace.empty()
        return self._select(index.rows(i))

    def events_per_ue(self, event_type: Optional[EventType] = None) -> Dict[int, int]:
        """Count events per UE, optionally restricted to one event type.

        UEs present in the trace but with zero matching events still
        appear with count 0.
        """
        index = self.ue_index()
        if event_type is None:
            counts = np.diff(index.bounds)
        else:
            rows = self.event_types[index.order] == int(event_type)
            counts = np.bincount(index.codes()[rows], minlength=len(index.ues))
        return dict(zip(index.ues.tolist(), counts.tolist()))

    def breakdown(self) -> Dict[EventType, float]:
        """Fraction of events per event type (sums to 1 for non-empty traces)."""
        total = len(self)
        out: Dict[EventType, float] = {}
        for et in EventType:
            n = int(np.count_nonzero(self.event_types == int(et)))
            out[et] = n / total if total else 0.0
        return out

    def device_mix(self) -> Dict[DeviceType, int]:
        """Number of distinct UEs per device type."""
        out = {dt: 0 for dt in ALL_DEVICE_TYPES}
        for ue, dt in self.device_of().items():
            out[dt] += 1
        return out
