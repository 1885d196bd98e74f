"""Trace anonymization utilities.

Privacy is the reason control-plane traces are not public (the paper's
§D): carriers anonymize user identity before any analysis.  These
helpers apply the standard safeguards to a trace while preserving
exactly the statistics the model consumes:

* **UE-id remapping** — a seeded random permutation replaces ids, so
  re-identification via stable identifiers is impossible but per-UE
  event sequences stay intact.
* **Epoch shifting** — a constant time offset detaches the trace from
  wall-clock time without touching inter-arrival structure.

Both transforms are loss-free for fitting: the fitted model of an
anonymized trace is identical (up to UE labels) to the original's.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .trace import Trace


def remap_ue_ids(
    trace: Trace, *, seed: int = 0, start_id: int = 0
) -> Tuple[Trace, Dict[int, int]]:
    """Replace UE ids with a seeded random permutation.

    Returns the anonymized trace and the ``old -> new`` mapping (which
    a carrier would discard; tests use it to verify losslessness).
    """
    rng = np.random.default_rng(seed)
    index = trace.ue_index()
    new_ids = start_id + rng.permutation(len(index.ues))
    mapping = dict(zip(index.ues.tolist(), new_ids.tolist()))
    remapped = np.empty(len(trace), dtype=np.int64)
    remapped[index.order] = new_ids[index.codes()]
    return (
        Trace(
            remapped,
            trace.times.copy(),
            trace.event_types.copy(),
            trace.device_types.copy(),
        ),
        mapping,
    )


def shift_epoch(trace: Trace, *, seed: int = 0, max_shift: float = 86400.0) -> Trace:
    """Shift all timestamps by one seeded random constant.

    Inter-arrival times, sojourns, and relative ordering are untouched;
    only the absolute epoch moves.
    """
    if max_shift < 0:
        raise ValueError("max_shift must be non-negative")
    rng = np.random.default_rng(seed)
    offset = float(rng.uniform(0.0, max_shift))
    return trace.shift(offset)


def anonymize(trace: Trace, *, seed: int = 0) -> Trace:
    """Apply both safeguards with one seed."""
    remapped, _ = remap_ue_ids(trace, seed=seed)
    return shift_epoch(remapped, seed=seed + 1)
