"""Table 6: count-CDF y-distance split by inactive/active UE groups.

The paper explains the residual count-CDF error of connected cars and
tablets: it is concentrated in *inactive* UEs (<= 2 events/hour) that
the model over-predicts by one event, while active UEs fit well.
Shape to reproduce: for cars/tablets, the active-group distance is
smaller than the inactive-group distance.
"""

import math

from repro.trace import DeviceType, EventType
from repro.validation import activity_split_ydistance, format_table, summarize

from conftest import write_result

DEVICES = (DeviceType.CONNECTED_CAR, DeviceType.TABLET)
EVENTS = (EventType.SRV_REQ, EventType.S1_CONN_REL)


def _split_table(scenario):
    real = scenario["real"]
    syn = scenario["synthesized"]["ours"]
    out = {}
    for dt in DEVICES:
        real_dt, syn_dt = summarize(real, dt), summarize(syn, dt)
        for event in EVENTS:
            out[(dt, event)] = activity_split_ydistance(real_dt, syn_dt, event)
    return out


def test_table6_activity_split(benchmark, scenario1, scenario2):
    s1 = benchmark.pedantic(
        _split_table, args=(scenario1,), rounds=1, iterations=1
    )
    s2 = _split_table(scenario2)

    rows = []
    for event in EVENTS:
        row = [event.name]
        for results in (s1, s2):
            for dt in DEVICES:
                inactive, active = results[(dt, event)]
                row.append(f"{100 * inactive:.1f}/{100 * active:.1f}")
        rows.append(row)
    headers = ["Event"] + [
        f"{scen}-{dt.short_name} inact/act"
        for scen in ("S1", "S2")
        for dt in DEVICES
    ]
    text = format_table(
        headers,
        rows,
        title=(
            "Table 6: max y-distance (%) by activity group, Ours "
            "(paper: inactive 20.7-30.8, active 7.6-12.2)"
        ),
    )
    write_result("table6_activity", text)

    # Shape: active UEs fit better than inactive ones on average.
    gaps = []
    for results in (s1, s2):
        for (dt, event), (inactive, active) in results.items():
            if not (math.isnan(inactive) or math.isnan(active)):
                gaps.append(inactive - active)
    assert gaps, "no comparable activity groups"
    assert sum(gaps) / len(gaps) > 0.0, (
        "active UEs should fit better than inactive ones"
    )
