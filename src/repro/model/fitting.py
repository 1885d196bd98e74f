"""Model fitting pipeline (§5): trace -> per-(cluster, hour, device) models.

The pipeline mirrors the paper end to end:

1. slice the input trace into non-overlapping one-hour segments per UE,
   pooling the same hour-of-day across days;
2. extract per-UE features and run the adaptive clustering scheme for
   every (device type, hour) combination (§5.3) — or skip clustering
   for the ``Base`` baseline;
3. replay every segment through the configured state machine and fit,
   per cluster, the semi-Markov transition probabilities and sojourn
   distributions (§5.2) plus the first-event model (§5.4);
4. for the EMM–ECM baselines, additionally fit per-UE Poisson overlay
   rates for the ``HO``/``TAU`` events the machine cannot express.

Steps 2–4 run array-at-a-time in :mod:`repro.model.compiled_fit`, one
:func:`repro.jobs.run_jobs` job per hour of day that fits every device
type at once, optionally fanned across processes;
``cache_dir`` additionally enables the content-addressed disk cache
(:mod:`repro.model.fit_cache`).  The hour-slot planner
(:func:`plan_hour_slots`) is shared with the §4 goodness-of-fit study.
"""

from __future__ import annotations

import math
from numbers import Integral
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..clustering.quadtree import DEFAULT_THETA_F, DEFAULT_THETA_N
from ..jobs import Job, check_processes, run_jobs
from ..statemachines.compiled_replay import table_for
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import SECONDS_PER_HOUR, DeviceType
from ..trace.trace import Trace
from . import compiled_fit
from .fit_cache import fit_cache_key, load_cached, store_cached
from .model_set import HourModel, ModelSet, build_machine


def fit_model_set(
    trace: Trace,
    *,
    machine_kind: str = "two_level",
    family: str = "empirical",
    clustered: bool = True,
    theta_f: float = DEFAULT_THETA_F,
    theta_n: int = DEFAULT_THETA_N,
    trace_start_hour: int = 0,
    max_cdf_points: int = 512,
    processes: Optional[int] = None,
    cache_dir: "Optional[str | Path]" = None,
    telemetry: Optional[RunTelemetry] = None,
) -> ModelSet:
    """Fit the full model set from a control-plane trace.

    Parameters
    ----------
    trace:
        The training trace ("real" data).
    machine_kind:
        ``"two_level"`` (the paper's model, Fig. 5) or ``"emm_ecm"``
        (the Base/V1 baselines; ``HO``/``TAU`` become Poisson overlays).
    family:
        Sojourn-time model: ``"empirical"`` (the paper) or ``"poisson"``
        (the Base/V1/V2 baselines).
    clustered:
        Apply the adaptive clustering scheme (off for ``Base``).
    theta_f, theta_n:
        Clustering thresholds (§5.3).
    trace_start_hour:
        Hour-of-day at trace time 0, so hour slots map onto the diurnal
        clock correctly.
    max_cdf_points:
        Compression limit for stored empirical CDFs: a positive integer,
        checked before any job runs.
    processes:
        ``None`` or ``1`` fits serially in-process; ``0`` fans
        the per-hour jobs across all CPUs; ``>= 2`` uses that
        many worker processes (see :func:`repro.jobs.run_jobs`).  A job
        that keeps failing raises :class:`repro.jobs.JobFailedError`
        (stage ``"fit"``).
    cache_dir:
        Directory of the content-addressed model cache.  ``None``
        (default) disables caching; a hit returns the stored model set
        without refitting (telemetry counter ``cache_hits``).
    telemetry:
        Explicit collector; defaults to the ambient one.  Fit phases
        record spans plus the ``segments_replayed``,
        ``transitions_counted`` and ``cache_hits``/``cache_misses``
        counters.
    """
    if machine_kind not in ("two_level", "emm_ecm"):
        raise ValueError(f"unknown machine_kind {machine_kind!r}")
    if family not in ("empirical", "poisson"):
        raise ValueError(f"unknown sojourn family {family!r}")
    if not isinstance(max_cdf_points, Integral) or max_cdf_points < 1:
        raise ValueError(
            f"max_cdf_points must be a positive integer, got {max_cdf_points!r}"
        )
    check_processes(processes)
    if len(trace) == 0:
        raise ValueError("cannot fit a model set to an empty trace")

    tele = telemetry if telemetry is not None else get_telemetry()
    with use_telemetry(tele), tele.span("fit"):
        key = None
        if cache_dir is not None:
            with tele.span("fit-cache-lookup"):
                key = fit_cache_key(
                    trace,
                    machine_kind=machine_kind,
                    family=family,
                    clustered=clustered,
                    theta_f=theta_f,
                    theta_n=theta_n,
                    trace_start_hour=trace_start_hour,
                    max_cdf_points=max_cdf_points,
                )
                cached = load_cached(cache_dir, key)
            if cached is not None:
                tele.count("cache_hits")
                return cached
            tele.count("cache_misses")

        model_set = _fit_all(
            trace,
            machine_kind=machine_kind,
            family=family,
            clustered=clustered,
            theta_f=theta_f,
            theta_n=theta_n,
            trace_start_hour=trace_start_hour,
            max_cdf_points=max_cdf_points,
            processes=processes,
        )

        if cache_dir is not None and key is not None:
            with tele.span("fit-cache-store"):
                store_cached(cache_dir, key, model_set)
        return model_set


def _fit_all(
    trace: Trace,
    *,
    machine_kind: str,
    family: str,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    trace_start_hour: int,
    max_cdf_points: int,
    processes: Optional[int],
) -> ModelSet:
    """Plan and run the per-hour fit jobs for one model set."""
    with get_telemetry().span("fit-arrays"):
        total_slots, hour_plan = plan_hour_slots(trace, trace_start_hour)
        arrays = compiled_fit.fit_arrays(trace, total_slots)
        table = table_for(build_machine(machine_kind))

    jobs = [Job((tuple(slots),), {"hour": hour}) for hour, slots in hour_plan]
    shared = {
        "arrays": arrays,
        "table": table,
        "fit": {
            "machine_kind": machine_kind,
            "family": family,
            "clustered": clustered,
            "theta_f": theta_f,
            "theta_n": theta_n,
            "max_cdf_points": max_cdf_points,
        },
    }
    fitted = dict(
        run_jobs(
            compiled_fit.fit_job,
            jobs,
            shared=shared,
            processes=processes,
            stage="fit",
        )
    )
    models: Dict[DeviceType, Dict[int, HourModel]] = {
        dt: {hour: fitted[i][d] for i, (hour, _) in enumerate(hour_plan)}
        for d, dt in enumerate(arrays.devices)
    }
    device_ues = {
        dt: arrays.ues[ues].tolist()
        for dt, ues in zip(arrays.devices, arrays.device_ues)
    }

    return ModelSet(
        machine_kind=machine_kind,
        family=family,
        clustered=clustered,
        models=models,
        device_ues=device_ues,
        theta_f=theta_f,
        theta_n=theta_n,
    )


def plan_hour_slots(
    trace: Trace, trace_start_hour: int
) -> Tuple[int, List[Tuple[int, List[int]]]]:
    """Group the trace's one-hour slots by hour of day.

    Slot ``k`` covers trace time ``[k*3600, (k+1)*3600)`` and falls on
    hour ``(trace_start_hour + k) % 24``, so a multi-day trace pools
    the same hour of day across days.  Returns ``(total_slots,
    [(hour, slots), ...])`` sorted by hour.
    """
    total_slots = int(math.ceil((float(trace.times.max()) + 1e-9) / SECONDS_PER_HOUR))
    total_slots = max(total_slots, 1)
    slots_by_hour: Dict[int, List[int]] = {}
    for slot in range(total_slots):
        slots_by_hour.setdefault((trace_start_hour + slot) % 24, []).append(slot)
    return total_slots, sorted(slots_by_hour.items())
