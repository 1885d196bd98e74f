"""Control-plane event and device-type vocabulary.

The paper studies six primary LTE control-plane event types recorded at
the MME (Table 1 of the paper) for three primary device types.  5G SA
uses renamed counterparts of the LTE events (Table 2), with ``TAU``
having no 5G equivalent.

Events are encoded as small integers so traces can be stored in compact
numpy arrays; the enums carry the human-readable protocol names.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Tuple, Union


class EventType(enum.IntEnum):
    """LTE control-plane event types exchanged between UE/RAN and the MCN.

    The integer values are stable and used as the on-disk encoding.
    """

    ATCH = 0          #: Attach - registers the UE with the MCN.
    DTCH = 1          #: Detach - deregisters the UE (e.g. powered off).
    SRV_REQ = 2       #: Service Request - establishes a signaling connection.
    S1_CONN_REL = 3   #: S1 Connection Release - tears the connection down.
    HO = 4            #: Handover - switches the UE between serving cells.
    TAU = 5           #: Tracking Area Update.

    @property
    def is_category1(self) -> bool:
        """Whether the event changes the UE state (EMM/ECM transitions)."""
        return self in _CATEGORY1

    @property
    def is_category2(self) -> bool:
        """Whether the event leaves the UE state unchanged (``HO``/``TAU``)."""
        return not self.is_category1


_CATEGORY1 = frozenset(
    {EventType.ATCH, EventType.DTCH, EventType.SRV_REQ, EventType.S1_CONN_REL}
)

#: Events considered "dominant" by the paper (84.1%-93.0% of all events).
DOMINANT_EVENTS: Tuple[EventType, EventType] = (
    EventType.SRV_REQ,
    EventType.S1_CONN_REL,
)


class NrEventType(enum.IntEnum):
    """5G SA control-plane event types (Table 2 of the paper).

    Values are chosen to line up with the mapped :class:`EventType`
    members so a 4G trace can be relabelled in place; ``TAU`` has no
    5G SA counterpart and therefore no member here.
    """

    REGISTER = 0      #: Registration (maps from ``ATCH``).
    DEREGISTER = 1    #: Deregistration (maps from ``DTCH``).
    SRV_REQ = 2       #: Service Request (same name in both generations).
    AN_REL = 3        #: AN Release (maps from ``S1_CONN_REL``).
    HO = 4            #: Handover (same name in both generations).


#: One-to-one mapping of primary event types between 4G and 5G (Table 2).
LTE_TO_NR_EVENT: Dict[EventType, NrEventType] = {
    EventType.ATCH: NrEventType.REGISTER,
    EventType.DTCH: NrEventType.DEREGISTER,
    EventType.SRV_REQ: NrEventType.SRV_REQ,
    EventType.S1_CONN_REL: NrEventType.AN_REL,
    EventType.HO: NrEventType.HO,
    # EventType.TAU deliberately has no 5G SA mapping.
}

NR_TO_LTE_EVENT: Dict[NrEventType, EventType] = {
    nr: lte for lte, nr in LTE_TO_NR_EVENT.items()
}


class DeviceType(enum.IntEnum):
    """Primary device categories studied in the paper.

    Derived in the paper from the Type Allocation Code (TAC) of the
    IMEI; here the type is carried explicitly on every trace.
    """

    PHONE = 0
    CONNECTED_CAR = 1
    TABLET = 2

    @property
    def short_name(self) -> str:
        """The single/double-letter code the paper uses in tables."""
        return _SHORT_NAMES[self]


_SHORT_NAMES = {
    DeviceType.PHONE: "P",
    DeviceType.CONNECTED_CAR: "CC",
    DeviceType.TABLET: "T",
}

ALL_EVENT_TYPES: Tuple[EventType, ...] = tuple(EventType)
ALL_DEVICE_TYPES: Tuple[DeviceType, ...] = tuple(DeviceType)

#: A UE population: one total, or a count per device type.
DeviceCounts = Union[int, Mapping[DeviceType, int]]


def _ue_count(value: object, name: str) -> int:
    """``value`` as a whole, non-negative UE count; ``ValueError`` naming
    ``name`` otherwise (``10.7`` UEs is an error, not 10)."""
    try:
        n = int(value)  # type: ignore[call-overload]
        whole = n == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return n


def check_counts(num_ues: DeviceCounts) -> "int | Dict[DeviceType, int]":
    """``num_ues`` with every count whole and non-negative: the total,
    or a dict of counts per device type.  ``ValueError`` names
    ``num_ues`` or ``num_ues[<DEVICE>]`` otherwise."""
    if isinstance(num_ues, Mapping):
        return {
            DeviceType(k): _ue_count(v, f"num_ues[{DeviceType(k).name}]")
            for k, v in num_ues.items()
        }
    return _ue_count(num_ues, "num_ues")


#: Seconds per hour / day, used pervasively when slicing traces.
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR

#: Millisecond timestamp granularity of the collected traces (paper, §4).
TIMESTAMP_GRANULARITY = 1e-3


def quantize_timestamp(t: float) -> float:
    """Round ``t`` (seconds) to the trace's millisecond granularity."""
    return round(t / TIMESTAMP_GRANULARITY) * TIMESTAMP_GRANULARITY


def quantize_times(times) -> "np.ndarray":
    """Vectorized :func:`quantize_timestamp` (same half-even rounding)."""
    import numpy as np

    arr = np.asarray(times, dtype=np.float64)
    return np.round(arr / TIMESTAMP_GRANULARITY) * TIMESTAMP_GRANULARITY
