"""Fuzz of raw trace columns through the whole pipeline.

Every input either fails at the :class:`~repro.trace.Trace` boundary
with a ``ValueError`` naming the bad column, or runs through fit →
generate → evaluate → the MCN simulators with no NaN in any report.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import fit_method
from repro.generator import TrafficGenerator, compiled
from repro.harness import evaluate_methods
from repro.mcn import CoreNetworkSimulator, MmeSimulator
from repro.model import ModelSet
from repro.trace import DeviceType, EventType, Trace

_NAMED_COLUMN = re.compile(r"trace column '(ue_ids|times|event_types|device_types)'")

#: The ways a raw column goes bad, each applied to one drawn row.
_FAULTS = (
    "time-nan",
    "time-inf",
    "time-neg-inf",
    "time-negative",
    "ue-negative",
    "ue-fractional",
    "event-code",
    "device-code",
    "second-device",
    "unsorted",
)


@st.composite
def raw_columns(draw):
    """At most 30 rows of at most 6 UEs in one hour, with 0-3 faults."""
    n = draw(st.integers(1, 30))
    ue_ids = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), float)
    devices = np.array(
        draw(st.lists(st.sampled_from(list(DeviceType)), min_size=6, max_size=6)),
        dtype=np.int64,
    )[ue_ids.astype(int)]
    times = np.sort(
        draw(st.lists(st.integers(0, 3599_000), min_size=n, max_size=n))
    ) / 1000.0
    events = np.array(
        draw(st.lists(st.integers(0, max(EventType)), min_size=n, max_size=n))
    )
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        row = draw(st.integers(0, n - 1))
        if fault.startswith("time-"):
            times[row] = {"nan": np.nan, "inf": np.inf, "neg-inf": -np.inf}.get(
                fault[5:], -1.5
            )
        elif fault == "ue-negative":
            ue_ids[row] = -1
        elif fault == "ue-fractional":
            ue_ids[row] += 0.5
        elif fault == "event-code":
            events[row] = draw(st.sampled_from([-1, max(EventType) + 1, 127, 300]))
        elif fault == "device-code":
            devices[row] = draw(st.sampled_from([-1, max(DeviceType) + 1, 300]))
        elif fault == "second-device":
            devices[ue_ids == ue_ids[row]] = draw(st.sampled_from(list(DeviceType)))
            devices[row] = (devices[row] + 1) % len(DeviceType)
        else:
            order = np.array(draw(st.permutations(range(n))))
            ue_ids, times, events, devices = (
                column[order] for column in (ue_ids, times, events, devices)
            )
    return ue_ids, times, events, devices


def _nan_paths(value, path="report"):
    """The paths of every NaN float reachable from ``value``."""
    if isinstance(value, (Trace, ModelSet)):
        return []
    if dataclasses.is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _nan_paths(v, f"{path}[{k!r}]")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in _nan_paths(v, f"{path}[{i}]")]
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        return [path] if np.isnan(value).any() else []
    if isinstance(value, (float, np.floating)) and np.isnan(value):
        return [path]
    return []


#: 25 examples in tier-1 (under a second), 1,500 under the
#: ``fuzz-campaign`` profile (``tests/conftest.py``).
_EXAMPLES = 1500 if settings.get_current_profile_name() == "fuzz-campaign" else 25


@settings(
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(columns=raw_columns())
def test_raw_columns_rejected_or_run_clean(columns):
    try:
        trace = Trace(*columns)
    except ValueError as exc:
        assert _NAMED_COLUMN.search(str(exc)), str(exc)
        return
    ours = fit_method("ours", trace, theta_n=5, trace_start_hour=0)
    with pytest.MonkeyPatch.context() as patch:
        # Same-millisecond rows fit rates that only the cap bounds; a
        # lower cap keeps such an example cheap.
        patch.setattr(compiled, "MAX_EVENTS_PER_HOUR", 10_000)
        synthesized = TrafficGenerator(ours).generate(trace.num_ues, seed=1)
        reports = [
            evaluate_methods(
                trace, trace, methods=("base", "ours"), models={"ours": ours},
                theta_n=5,
            ),
            CoreNetworkSimulator("epc", seed=1).process(synthesized),
            CoreNetworkSimulator("5gc", seed=1).process(synthesized),
        ]
    if len(synthesized):
        reports.append(MmeSimulator(seed=1).process(synthesized))
    assert _nan_paths(reports) == []
