"""Per-UE traffic features for adaptive clustering (§5.3).

The paper characterizes each UE with two features per dominant event
type (``SRV_REQ`` and ``S1_CONN_REL``, 84.1%-93.0% of all events):

1. the number of events of that type, and
2. the standard deviation of the sojourn time in the state the event
   enters (``CONNECTED`` for ``SRV_REQ``, ``IDLE`` for ``S1_CONN_REL``),

giving a 4-dimensional feature vector per UE.  The fitter computes
these per hour from its array replay, pooled over the hour's slots, as
one ``(n, 4)`` matrix whose rows follow the trace's sorted UE ids and
whose columns follow :data:`FEATURE_NAMES` (counts are per slot the UE
was seen in); each device type clusters its own UEs' rows.  See
:func:`repro.model.compiled_fit._cluster_codes`.
"""

from __future__ import annotations

#: Names of the feature dimensions, in vector order.
FEATURE_NAMES = (
    "srv_req_count",
    "s1_conn_rel_count",
    "connected_sojourn_std",
    "idle_sojourn_std",
)

NUM_FEATURES = len(FEATURE_NAMES)
