"""Command-line interface: ``python -m repro <command>``.

The open-source artifact of the paper is a *usable generator*; this CLI
exposes the full pipeline without writing Python:

========== =========================================================
simulate   produce a behaviour-driven "real" trace
fit        fit a model set (ours / base / v1 / v2) from a trace
generate   synthesize traffic from a fitted model set
inspect    print analytic statistics of a fitted model set
validate   compare a synthesized trace against a real one
evaluate   run the full §8 method comparison (fit + generate + compare)
check      audit a fitted model set for internal consistency
anonymize  remap UE ids and shift the epoch of a trace
scale5g    derive a 5G NSA / SA model set from a fitted LTE one
gof        run the §4 goodness-of-fit study on a trace
mme        drive the MME queueing model with a trace
core       drive the procedure-level EPC / 5GC core simulator
sessions   session-level statistics of a trace
hurst      self-similarity (Hurst) estimate of a trace
dot        emit Graphviz DOT for any of the paper's state machines
telemetry  summarize a telemetry report written by --telemetry
========== =========================================================

Traces are read/written by extension: ``.npz`` (compact) or ``.csv``.
Model sets are JSON, gzipped when the path ends in ``.gz``.  The
``simulate``, ``fit``, ``generate``, ``evaluate`` and ``core`` commands
take ``--telemetry PATH`` to write a versioned, schema-validated
observability report of the run (see :mod:`repro.telemetry`);
``repro telemetry summarize PATH`` renders its per-phase breakdown.
``simulate``, ``fit``, ``generate`` and ``evaluate`` fan their jobs
across ``--processes`` workers (``0`` = all CPUs; default ``1``,
in-process).
``fit`` and ``evaluate`` use the content-addressed model cache under
``~/.cache/repro`` (``--no-cache`` and ``--cache-dir`` override);
``evaluate`` can emit the full report as ``--json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis import TESTS, gof_study
from ..baselines import METHOD_NAMES, fit_method
from ..generator import CheckpointError, TrafficGenerator
from ..groundtruth import simulate_ground_truth
from ..mcn import CoreNetworkSimulator, MmeSimulator
from ..harness import evaluate_methods
from ..model import (
    ModelSet,
    default_cache_dir,
    scale_to_nsa,
    scale_to_sa,
)
from ..model.inspect import describe_model_set
from ..statemachines import (
    ecm_machine,
    emm_ecm_machine,
    emm_machine,
    nr_sa_machine,
    two_level_machine,
)
from ..statemachines.dot import machine_to_dot
from ..stats import hurst_rescaled_range, hurst_variance_time
from ..telemetry import RunTelemetry, load_report, summarize_report, use_telemetry
from ..trace import (
    DeviceType,
    Trace,
    anonymize,
    session_stats,
    read_csv,
    read_npz,
    write_csv,
    write_npz,
)
from ..validation import compare, format_comparison, format_table, summarize

_MACHINES = {
    "two_level": two_level_machine,
    "emm_ecm": emm_ecm_machine,
    "emm": emm_machine,
    "ecm": ecm_machine,
    "nr_sa": nr_sa_machine,
}


def _load_trace(path: str) -> Trace:
    if path.endswith(".npz"):
        return read_npz(path)
    if path.endswith(".csv"):
        return read_csv(path)
    raise SystemExit(f"unsupported trace extension: {path} (use .npz or .csv)")


def _save_trace(trace: Trace, path: str) -> None:
    if path.endswith(".npz"):
        write_npz(trace, path)
    elif path.endswith(".csv"):
        write_csv(trace, path)
    else:
        raise SystemExit(f"unsupported trace extension: {path} (use .npz or .csv)")


def _device_counts(args: argparse.Namespace):
    explicit = {
        DeviceType.PHONE: args.phones,
        DeviceType.CONNECTED_CAR: args.cars,
        DeviceType.TABLET: args.tablets,
    }
    explicit = {dt: n for dt, n in explicit.items() if n}
    if explicit and args.ues:
        raise SystemExit("give either --ues or per-device counts, not both")
    if explicit:
        return explicit
    if args.ues:
        return args.ues
    raise SystemExit("population size required (--ues or --phones/--cars/--tablets)")


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    if not args.hours > 0:
        raise ValueError(f"--hours must be positive, got {args.hours:g}")
    tele = RunTelemetry(
        {
            "command": "simulate",
            "start_hour": args.start_hour,
            "hours": args.hours,
            "seed": args.seed,
            "processes": args.processes,
        }
    )
    if args.progress:
        tele.on_progress(_print_progress)
    with use_telemetry(tele):
        trace = simulate_ground_truth(
            _device_counts(args),
            duration=args.hours * 3600.0,
            seed=args.seed,
            start_hour=args.start_hour,
            processes=args.processes,
        )
    with tele.span("trace-write"):
        _save_trace(trace, args.out)
    print(f"wrote {len(trace):,} events / {trace.num_ues} UEs to {args.out}")
    if args.telemetry:
        tele.write_report(args.telemetry)
        print(f"telemetry report -> {args.telemetry}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    tele = RunTelemetry(
        {
            "command": "fit",
            "trace": args.trace,
            "method": args.method,
            "processes": args.processes,
        }
    )
    if args.progress:
        tele.on_progress(_print_progress)
    with tele.span("trace-load"):
        trace = _load_trace(args.trace)
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    model = fit_method(
        args.method,
        trace,
        theta_f=args.theta_f,
        theta_n=args.theta_n,
        trace_start_hour=args.start_hour,
        max_cdf_points=args.max_cdf_points,
        processes=args.processes,
        cache_dir=cache_dir,
        telemetry=tele,
    )
    with tele.span("model-save"):
        model.save(args.out)
    cached = " (cache hit)" if tele.counters.get("cache_hits") else ""
    print(
        f"fitted {model.num_models} models ({args.method})"
        f"{cached} -> {args.out}"
    )
    if args.telemetry:
        tele.write_report(args.telemetry)
    return 0


def _print_progress(phase: str, done: int, total: int) -> None:
    if total:
        print(f"[{phase}] {done}/{total}", file=sys.stderr)
    else:
        print(f"[{phase}] {done}", file=sys.stderr)


def _cmd_generate(args: argparse.Namespace) -> int:
    tele = RunTelemetry(
        {
            "command": "generate",
            "model": args.model,
            "start_hour": args.start_hour,
            "num_hours": args.hours,
            "seed": args.seed,
            "processes": args.processes,
        }
    )
    if args.progress:
        tele.on_progress(_print_progress)
    with tele.span("model-load"):
        model = ModelSet.load(args.model)
    counts = _device_counts(args)
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint")
    trace = TrafficGenerator(model).generate(
        counts,
        start_hour=args.start_hour,
        num_hours=args.hours,
        seed=args.seed,
        processes=args.processes,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        telemetry=tele,
    )
    with tele.span("trace-write"):
        _save_trace(trace, args.out)
    print(f"synthesized {len(trace):,} events / {trace.num_ues} UEs -> {args.out}")
    if args.telemetry:
        tele.write_report(args.telemetry)
        print(f"telemetry report -> {args.telemetry}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    model = ModelSet.load(args.model)
    print(describe_model_set(model))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    real = _load_trace(args.real)
    synthesized = _load_trace(args.synthesized)
    for device_type in DeviceType:
        if not (real.device_types == device_type).any():
            continue
        real_summary = summarize(real, device_type)
        comparison = compare(real_summary, summarize(synthesized, device_type))
        print(format_comparison(real_summary, {"synthesized": comparison}))
        print()
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    tele = RunTelemetry(
        {
            "command": "evaluate",
            "train": args.train,
            "real": args.real,
            "methods": args.methods,
            "generation_hour": args.hour,
            "seed": args.seed,
            "processes": args.processes,
        }
    )
    if args.progress:
        tele.on_progress(_print_progress)
    with tele.span("trace-load"):
        train = _load_trace(args.train)
        real = _load_trace(args.real)
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    report = evaluate_methods(
        train,
        real,
        num_ues=args.ues,
        methods=tuple(args.methods.split(",")),
        theta_n=args.theta_n,
        trace_start_hour=args.train_start_hour,
        generation_hour=args.hour,
        seed=args.seed,
        processes=args.processes,
        cache_dir=cache_dir,
        telemetry=tele,
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"evaluation report -> {args.json}")
    print(report.to_text())
    for device_type in DeviceType:
        if len(real.filter_device(device_type)) > 0:
            print(f"winner ({device_type.name}): {report.winner(device_type)}")
    if args.telemetry:
        tele.write_report(args.telemetry)
        print(f"telemetry report -> {args.telemetry}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Loading checks the tables and audits the model set
    # (repro.model.checks); a model that fails raises ValueError.
    try:
        model = ModelSet.load(args.model)
    except ValueError as exc:
        print(f"PROBLEM: {exc}")
        return 1
    print(f"OK: {model.num_models} models, no problems found")
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    _save_trace(anonymize(trace, seed=args.seed), args.out)
    print(f"anonymized {trace.num_ues} UEs -> {args.out}")
    return 0


def _cmd_scale5g(args: argparse.Namespace) -> int:
    scale = scale_to_nsa if args.mode == "nsa" else scale_to_sa
    scaled = scale(ModelSet.load(args.model), args.ho_scale)
    scaled.save(args.out)
    print(f"scaled to 5G {args.mode.upper()} -> {args.out}")
    return 0


def _cmd_gof(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    device_type = DeviceType[args.device.upper()]
    result = gof_study(
        trace,
        device_type,
        clustered=args.clustered,
        theta_n=args.theta_n,
        trace_start_hour=args.start_hour,
        quantities=args.quantities,
    )
    quantities = sorted(result.combos)
    rows = [
        [test] + [f"{100 * result.rates[test][q]:.1f}%" for q in quantities]
        for test in TESTS
    ]
    print(format_table(["Test"] + quantities, rows,
                       title=f"GoF pass rates - {device_type.name}"))
    return 0


def _cmd_mme(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    report = MmeSimulator(num_workers=args.workers, seed=args.seed).process(trace)
    print(f"events:      {report.num_events:,}")
    print(f"span:        {report.span:.1f} s")
    print(f"throughput:  {report.throughput:.1f} events/s")
    print(f"utilization: {report.utilization:.1%}")
    print(f"wait p50/p95/p99/max: "
          f"{report.p50_wait * 1e3:.2f} / {report.p95_wait * 1e3:.2f} / "
          f"{report.p99_wait * 1e3:.2f} / {report.max_wait * 1e3:.2f} ms")
    print(f"protocol violations: {report.protocol_violations:,}")
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    tele = RunTelemetry(
        {"command": "core", "core": args.core, "trace": args.trace}
    )
    with tele.span("trace-load"):
        trace = _load_trace(args.trace)
    sim = CoreNetworkSimulator(
        args.core, workers=args.workers, seed=args.seed
    )
    report = sim.process(trace, telemetry=tele)
    print(f"core: {report.core}  events: {report.num_events:,}  "
          f"messages: {report.num_messages:,}  span: {report.span:.1f}s")
    rows = [
        [f.name, f.messages, f"{f.utilization:.1%}",
         f"{f.mean_wait * 1e3:.2f} ms", f"{f.p95_wait * 1e3:.2f} ms"]
        for f in report.functions.values()
    ]
    print(format_table(
        ["NF", "messages", "util", "mean wait", "p95 wait"], rows
    ))
    rows = [
        [p.name, p.count, f"{p.mean_latency * 1e3:.2f} ms",
         f"{p.p99_latency * 1e3:.2f} ms"]
        for p in sorted(report.procedures.values(), key=lambda p: p.name)
    ]
    print(format_table(["procedure", "count", "mean", "p99"], rows))
    bottleneck = report.bottleneck()
    print(f"bottleneck: {bottleneck if bottleneck is not None else '(no traffic)'}")
    if args.telemetry:
        tele.write_report(args.telemetry)
        print(f"telemetry report -> {args.telemetry}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    try:
        report = load_report(args.report)
    except Exception as exc:
        raise SystemExit(str(exc))
    print(summarize_report(report))
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    for device_type in DeviceType:
        if len(trace.filter_device(device_type)) == 0:
            continue
        stats = session_stats(trace, device_type)
        print(f"{device_type.name}: {stats.num_sessions:,} sessions, "
              f"{stats.sessions_per_ue:.1f}/UE, "
              f"median {stats.median_duration:.1f}s / "
              f"p95 {stats.p95_duration:.1f}s, "
              f"{stats.mean_handovers:.2f} HO/session")
    return 0


def _cmd_hurst(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    vt = hurst_variance_time(trace.times)
    rs = hurst_rescaled_range(trace.times)
    print(f"variance-time: H = {vt.hurst:.3f} (r^2 = {vt.r_squared:.3f})")
    print(f"rescaled-range: H = {rs.hurst:.3f} (r^2 = {rs.r_squared:.3f})")
    verdict = "long-range dependent" if vt.is_long_range_dependent else "short-range"
    print(f"verdict: {verdict} aggregate traffic")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    machine = _MACHINES[args.machine]()
    print(machine_to_dot(machine))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_population_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ues", type=int, help="total UEs (split by device mix)")
    parser.add_argument("--phones", type=int, default=0)
    parser.add_argument("--cars", type=int, default=0)
    parser.add_argument("--tablets", type=int, default=0)


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """``--processes``, ``--telemetry`` and ``--progress`` for the
    commands that run jobs through :func:`repro.jobs.run_jobs`."""
    parser.add_argument("--processes", type=int, default=1,
                        help="worker processes (0 = all CPUs)")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="write a schema-validated JSON telemetry "
                             "report of the run to PATH")
    parser.add_argument("--progress", action="store_true",
                        help="print rate-limited progress lines to stderr")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None,
                        help="model cache directory (default ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed model cache")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands registered."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Control-plane traffic modeling and generation (IMC '23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a ground-truth trace")
    _add_population_args(p)
    p.add_argument("--hours", type=float, default=24.0)
    p.add_argument("--start-hour", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    _add_run_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a model set from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--method", choices=METHOD_NAMES, default="ours")
    p.add_argument("--theta-f", type=float, default=5.0)
    p.add_argument("--theta-n", type=int, default=1000)
    p.add_argument("--start-hour", type=int, default=0)
    p.add_argument("--max-cdf-points", type=int, default=512)
    _add_run_args(p)
    _add_cache_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("generate", help="synthesize traffic from a model")
    p.add_argument("--model", required=True)
    _add_population_args(p)
    p.add_argument("--start-hour", type=int, default=0)
    p.add_argument("--hours", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_run_args(p)
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="snapshot run progress to PATH (atomic) so an "
                        "interrupted run can be resumed")
    p.add_argument("--resume", action="store_true",
                   help="resume an interrupted run from --checkpoint; "
                        "output is bit-identical to an uninterrupted run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("inspect", help="describe a fitted model set")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("validate", help="compare synthesized vs real traces")
    p.add_argument("--real", required=True)
    p.add_argument("--synthesized", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evaluate", help="full method comparison (§8)")
    p.add_argument("--train", required=True)
    p.add_argument("--real", required=True)
    p.add_argument("--ues", type=int, default=None)
    p.add_argument("--methods", default="base,v1,v2,ours")
    p.add_argument("--theta-n", type=int, default=1000)
    p.add_argument("--train-start-hour", type=int, default=0)
    p.add_argument("--hour", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    _add_run_args(p)
    _add_cache_args(p)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write the report as JSON to PATH")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("check", help="audit a fitted model set")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("anonymize", help="anonymize a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_anonymize)

    p = sub.add_parser("scale5g", help="derive a 5G model from an LTE one")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("nsa", "sa"), required=True)
    p.add_argument("--ho-scale", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scale5g)

    p = sub.add_parser("gof", help="goodness-of-fit study (§4)")
    p.add_argument("--trace", required=True)
    p.add_argument("--device", choices=[d.name.lower() for d in DeviceType],
                   default="phone")
    p.add_argument("--clustered", action="store_true")
    p.add_argument("--theta-n", type=int, default=1000)
    p.add_argument("--start-hour", type=int, default=0)
    p.add_argument("--quantities", choices=("events_and_states", "transitions"),
                   default="events_and_states")
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("mme", help="drive the MME queueing model")
    p.add_argument("--trace", required=True)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mme)

    p = sub.add_parser("core", help="drive the procedure-level core simulator")
    p.add_argument("--trace", required=True)
    p.add_argument("--core", choices=("epc", "5gc"), default="epc")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="write a schema-validated JSON telemetry report "
                        "of the run to PATH")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("sessions", help="session-level trace statistics")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_sessions)

    p = sub.add_parser("hurst", help="self-similarity estimate of a trace")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=_cmd_hurst)

    p = sub.add_parser("dot", help="emit Graphviz DOT for a state machine")
    p.add_argument("--machine", choices=sorted(_MACHINES), default="two_level")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("telemetry", help="inspect telemetry reports")
    tsub = p.add_subparsers(dest="action", required=True)
    ps = tsub.add_parser("summarize",
                         help="render a report's per-phase breakdown")
    ps.add_argument("report", help="path to a telemetry report JSON")
    ps.set_defaults(func=_cmd_telemetry)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and run the command.

    A ``ValueError`` from the command (a bad argument value, such as
    ``--ho-scale 0``) or a :class:`CheckpointError` (a ``--resume``
    checkpoint that is unreadable or belongs to another run) is reported
    as a usage error: ``repro: error: <message>`` on stderr and exit
    status 2.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CheckpointError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
