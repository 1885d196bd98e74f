"""Tests for the command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.generator import GenerationCheckpoint
from repro.model import ModelSet
from repro.trace import read_npz

from conftest import make_trace
from oracle import fit as oracle_fit


@pytest.fixture()
def workspace(tmp_path, ground_truth_trace, ours_model_set):
    """A tmp dir pre-seeded with a trace and a fitted model."""
    from repro.trace import write_npz

    trace_path = tmp_path / "real.npz"
    write_npz(ground_truth_trace, trace_path)
    model_path = tmp_path / "model.json.gz"
    ours_model_set.save(model_path)
    return tmp_path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_engine_flag_removed(self, command, capsys):
        stubs = {
            "fit": _minimal_args("fit"),
            "evaluate": ["evaluate", "--train", "a.npz", "--real", "b.npz"],
        }
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(stubs[command] + ["--engine", "compiled"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--processes", "2"], ["--progress"]])
    def test_simulate_runs_in_one_process(self, flag, capsys):
        """Ground truth has no worker pool, so ``simulate`` takes no
        ``--processes`` (nor ``--progress``: it has no jobs to tick)."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(_minimal_args("simulate") + flag)
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_run_flags_shared(self):
        """fit, generate and evaluate parse the run flags identically."""
        parser = build_parser()
        for command in ("fit", "generate", "evaluate"):
            stub = _minimal_args(command)
            default = parser.parse_args(stub)
            assert (default.processes, default.telemetry, default.progress) == (
                1, None, False,
            )
            assert parser.parse_args(stub + ["--processes", "0"]).processes == 0

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "simulate", "fit", "generate", "inspect", "validate",
            "scale5g", "gof", "mme", "dot",
        ):
            args = parser.parse_args(_minimal_args(command))
            assert args.command == command


def _minimal_args(command):
    stubs = {
        "simulate": ["simulate", "--ues", "1", "--out", "x.npz"],
        "fit": ["fit", "--trace", "x.npz", "--out", "m.json"],
        "generate": ["generate", "--model", "m.json", "--ues", "1", "--out", "y.npz"],
        "inspect": ["inspect", "--model", "m.json"],
        "validate": ["validate", "--real", "a.npz", "--synthesized", "b.npz"],
        "scale5g": ["scale5g", "--model", "m.json", "--mode", "sa", "--out", "n.json"],
        "gof": ["gof", "--trace", "x.npz"],
        "mme": ["mme", "--trace", "x.npz"],
        "dot": ["dot"],
        "evaluate": ["evaluate", "--train", "a.npz", "--real", "b.npz"],
    }
    return stubs[command]


class TestSimulate:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        rc = main(
            [
                "simulate", "--phones", "5", "--tablets", "2",
                "--hours", "1", "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        trace = read_npz(out)
        assert trace.num_ues <= 7
        assert "wrote" in capsys.readouterr().out

    def test_telemetry(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "sim_tele.json"
        assert main([
            "simulate", "--phones", "6", "--cars", "3", "--tablets", "2",
            "--hours", "2", "--start-hour", "18", "--seed", "4",
            "--telemetry", str(report_path), "--out", str(tmp_path / "t.npz"),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["run"]["command"] == "simulate"
        assert "processes" not in report["run"]
        assert report["counters"]["events_emitted"] == len(read_npz(tmp_path / "t.npz"))
        assert report["counters"]["ue_hours"] == 11 * 2
        assert "simulate" in report["spans"]

    def test_rejects_conflicting_population(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--ues", "5", "--phones", "2",
                 "--out", str(tmp_path / "t.npz")]
            )

    def test_rejects_missing_population(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "t.npz")])

    def test_rejects_unknown_extension(self, tmp_path):
        with pytest.raises(SystemExit, match="extension"):
            main(["simulate", "--ues", "2", "--out", str(tmp_path / "t.parquet")])


class TestFitGenerateRoundtrip:
    def test_fit_then_generate(self, workspace, capsys):
        model_out = workspace / "fitted.json.gz"
        rc = main(
            [
                "fit", "--trace", str(workspace / "real.npz"),
                "--method", "ours", "--theta-n", "25",
                "--start-hour", "17", "--out", str(model_out),
            ]
        )
        assert rc == 0
        assert ModelSet.load(model_out).machine_kind == "two_level"

        trace_out = workspace / "syn.npz"
        rc = main(
            [
                "generate", "--model", str(model_out), "--ues", "30",
                "--start-hour", "18", "--out", str(trace_out),
            ]
        )
        assert rc == 0
        assert len(read_npz(trace_out)) > 0

    def test_generate_parallel_flag(self, workspace):
        trace_out = workspace / "syn_par.npz"
        rc = main(
            [
                "generate", "--model", str(workspace / "model.json.gz"),
                "--ues", "20", "--start-hour", "18",
                "--processes", "2", "--out", str(trace_out),
            ]
        )
        assert rc == 0
        serial_out = workspace / "syn_ser.npz"
        main(
            [
                "generate", "--model", str(workspace / "model.json.gz"),
                "--ues", "20", "--start-hour", "18",
                "--out", str(serial_out),
            ]
        )
        assert read_npz(trace_out) == read_npz(serial_out)

    def test_generate_checkpoint_roundtrip(self, workspace):
        model = str(workspace / "model.json.gz")
        plain_out = workspace / "plain.npz"
        main(
            [
                "generate", "--model", model, "--ues", "20",
                "--start-hour", "18", "--hours", "2",
                "--out", str(plain_out),
            ]
        )
        checkpoint = workspace / "run-checkpoint.npz"
        first_out = workspace / "first.npz"
        rc = main(
            [
                "generate", "--model", model, "--ues", "20",
                "--start-hour", "18", "--hours", "2",
                "--checkpoint", str(checkpoint), "--out", str(first_out),
            ]
        )
        assert rc == 0
        assert checkpoint.exists()
        resumed_out = workspace / "resumed.npz"
        rc = main(
            [
                "generate", "--model", model, "--ues", "20",
                "--start-hour", "18", "--hours", "2",
                "--checkpoint", str(checkpoint), "--resume",
                "--out", str(resumed_out),
            ]
        )
        assert rc == 0
        assert read_npz(plain_out) == read_npz(first_out)
        assert read_npz(plain_out) == read_npz(resumed_out)

    def test_resume_requires_checkpoint(self, workspace):
        with pytest.raises(SystemExit, match="--resume requires"):
            main(
                [
                    "generate", "--model", str(workspace / "model.json.gz"),
                    "--ues", "5", "--start-hour", "18", "--resume",
                    "--out", str(workspace / "x.npz"),
                ]
            )


class TestOtherCommands:
    def test_inspect(self, workspace, capsys):
        rc = main(["inspect", "--model", str(workspace / "model.json.gz")])
        assert rc == 0
        assert "predicted events/UE-hour" in capsys.readouterr().out

    def test_validate(self, workspace, capsys):
        syn = workspace / "syn.npz"
        main(
            ["generate", "--model", str(workspace / "model.json.gz"),
             "--ues", "100", "--start-hour", "18", "--out", str(syn)]
        )
        capsys.readouterr()
        rc = main(
            ["validate", "--real", str(workspace / "real.npz"),
             "--synthesized", str(syn)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Macroscopic breakdown - PHONE" in out
        assert "Microscopic max y-distance - PHONE" in out

    def test_validate_reports_measurable_quantities(self, tmp_path, capsys):
        """One quantity missing (no complete CONNECTED sojourn in the
        real trace) no longer drops the measurable ones; the skip is
        listed with its reason, as ``repro evaluate`` lists it."""
        from repro.trace import DeviceType, EventType, write_npz

        E, P = EventType, DeviceType.PHONE
        rows = [
            (1, 10.0, E.S1_CONN_REL, P),
            (1, 20.0, E.SRV_REQ, P),
            (2, 5.0, E.S1_CONN_REL, P),
            (2, 50.0, E.SRV_REQ, P),
        ]
        released = rows + [(1, 30.0, E.S1_CONN_REL, P), (2, 60.0, E.S1_CONN_REL, P)]
        write_npz(make_trace(rows), tmp_path / "real.npz")
        write_npz(make_trace(released), tmp_path / "syn.npz")
        rc = main(
            ["validate", "--real", str(tmp_path / "real.npz"),
             "--synthesized", str(tmp_path / "syn.npz")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        micro = out.split("Microscopic max y-distance - PHONE")[1]
        table = dict(line.split() for line in micro.splitlines()[4:8])
        assert table["CONNECTED"] == "-"
        for quantity in ("SRV_REQ", "S1_CONN_REL", "IDLE"):
            assert table[quantity].endswith("%")
        assert (
            "Skipped quantities - PHONE:\n  [synthesized] CONNECTED: "
            "no complete CONNECTED sojourns for PHONE in one of the traces"
        ) in out

    def test_scale5g(self, workspace, capsys):
        out = workspace / "sa.json.gz"
        rc = main(
            ["scale5g", "--model", str(workspace / "model.json.gz"),
             "--mode", "sa", "--out", str(out)]
        )
        assert rc == 0
        assert ModelSet.load(out).machine_kind == "nr_sa"

    def test_gof(self, workspace, capsys):
        rc = main(
            ["gof", "--trace", str(workspace / "real.npz"),
             "--device", "phone", "--start-hour", "17"]
        )
        assert rc == 0
        assert "GoF pass rates" in capsys.readouterr().out

    def test_mme(self, workspace, capsys):
        rc = main(["mme", "--trace", str(workspace / "real.npz"), "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "protocol violations" in out
        assert "utilization" in out

    def test_dot(self, capsys):
        rc = main(["dot", "--machine", "two_level"])
        assert rc == 0
        assert capsys.readouterr().out.startswith('digraph "LTE-two-level"')


class TestExtendedCommands:
    def test_core(self, workspace, capsys):
        rc = main(
            ["core", "--trace", str(workspace / "real.npz"),
             "--core", "epc", "--workers", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out
        assert "MME" in out

    def test_core_5gc(self, workspace, capsys):
        rc = main(
            ["core", "--trace", str(workspace / "real.npz"), "--core", "5gc"]
        )
        assert rc == 0
        assert "AMF" in capsys.readouterr().out

    def test_sessions(self, workspace, capsys):
        rc = main(["sessions", "--trace", str(workspace / "real.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "PHONE" in out

    def test_hurst(self, workspace, capsys):
        rc = main(["hurst", "--trace", str(workspace / "real.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "variance-time" in out
        assert "verdict" in out

    def test_check_clean_model(self, workspace, capsys):
        rc = main(["check", "--model", str(workspace / "model.json.gz")])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_anonymize(self, workspace, capsys):
        out = workspace / "anon.npz"
        rc = main(
            ["anonymize", "--trace", str(workspace / "real.npz"),
             "--seed", "4", "--out", str(out)]
        )
        assert rc == 0
        original = read_npz(workspace / "real.npz")
        anon = read_npz(out)
        assert len(anon) == len(original)
        assert anon != original  # ids and epoch moved

    def test_evaluate(self, workspace, capsys):
        rc = main(
            ["evaluate", "--train", str(workspace / "real.npz"),
             "--real", str(workspace / "real.npz"),
             "--methods", "ours", "--theta-n", "25",
             "--train-start-hour", "17", "--hour", "17", "--ues", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Macroscopic breakdown" in out
        assert "winner" in out


class TestBadValues:
    """A bad argument value is a usage error (exit status 2, the message
    on stderr), not a traceback."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["scale5g", "--model", "{model}", "--mode", "sa",
              "--ho-scale", "0", "--out", "{out}"],
             "ho_scale must be finite and positive, got 0.0"),
            (["generate", "--model", "{model}", "--ues", "10",
              "--hours", "0", "--out", "{out}"],
             "num_hours must be positive, got 0"),
            (["simulate", "--ues", "10", "--hours", "-1", "--out", "{out}"],
             "--hours must be positive, got -1"),
            (["simulate", "--ues", "10", "--seed", "-1", "--out", "{out}"],
             "seed must be non-negative, got -1"),
            (["core", "--trace", "{trace}", "--seed", "-1"],
             "seed must be non-negative, got -1"),
            (["mme", "--trace", "{trace}", "--seed", "-1"],
             "seed must be non-negative, got -1"),
        ],
        ids=[
            "scale5g-ho-scale-0", "generate-hours-0", "simulate-hours-minus-1",
            "simulate-seed-minus-1", "core-seed-minus-1", "mme-seed-minus-1",
        ],
    )
    def test_usage_error(self, workspace, capsys, argv, message):
        out = workspace / "out.npz"
        argv = [
            a.format(model=workspace / "model.json.gz", out=out, trace=workspace / "real.npz")
            for a in argv
        ]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "seed,rng,message",
        [
            ("8", None, "seed: checkpoint has 7, run has 8"),
            ("7", "philox4x64-10 counter",
             "rng: checkpoint has 'philox4x64-10 counter', "
             "run has 'splitmix64 counter'"),
        ],
        ids=["other-seed", "stale-rng"],
    )
    def test_mismatched_checkpoint(self, workspace, capsys, seed, rng, message):
        """``--resume`` from a checkpoint of another run is a usage
        error naming the field, not a traceback."""
        checkpoint = workspace / "ck.npz"
        run = [
            "generate", "--model", str(workspace / "model.json.gz"),
            "--ues", "10", "--start-hour", "18", "--checkpoint",
            str(checkpoint),
        ]
        assert main(run + ["--seed", "7", "--out", str(workspace / "a.npz")]) == 0
        if rng is not None:
            saved = GenerationCheckpoint.load(checkpoint)
            saved.provenance["rng"] = rng
            saved.save(checkpoint)
        out = workspace / "b.npz"
        with pytest.raises(SystemExit) as excinfo:
            main(run + ["--seed", seed, "--resume", "--out", str(out)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: checkpoint" in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestFitFlags:
    def _fit_args(self, workspace, out, extra):
        return [
            "fit", "--trace", str(workspace / "real.npz"),
            "--theta-n", "25", "--start-hour", "17",
            "--out", str(out), *extra,
        ]

    def test_engines_produce_equal_models(self, workspace, ground_truth_trace):
        """``repro fit`` equals the per-segment reference fit exactly."""
        ref_out = workspace / "ref.json.gz"
        comp_out = workspace / "comp.json.gz"
        oracle_fit.fit_model_set(
            ground_truth_trace, theta_n=25, trace_start_hour=17
        ).save(ref_out)
        assert main(self._fit_args(workspace, comp_out, ["--no-cache"])) == 0
        assert (
            ModelSet.load(ref_out).to_dict() == ModelSet.load(comp_out).to_dict()
        )

    def test_second_fit_is_a_cache_hit(self, workspace, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold_out = workspace / "cold.json.gz"
        warm_out = workspace / "warm.json.gz"
        assert main(self._fit_args(
            workspace, cold_out, ["--cache-dir", str(cache)]
        )) == 0
        out = capsys.readouterr().out
        assert "(cache hit)" not in out
        assert main(self._fit_args(
            workspace, warm_out, ["--cache-dir", str(cache)]
        )) == 0
        out = capsys.readouterr().out
        assert "(cache hit)" in out
        assert (
            ModelSet.load(cold_out).to_dict() == ModelSet.load(warm_out).to_dict()
        )

    def test_telemetry_report_written(self, workspace, tmp_path):
        import json

        report_path = tmp_path / "fit_tele.json"
        assert main(self._fit_args(
            workspace, workspace / "tele.json.gz",
            ["--no-cache", "--telemetry", str(report_path)],
        )) == 0
        report = json.loads(report_path.read_text())
        assert report["run"]["command"] == "fit"
        assert "engine" not in report["run"]
        assert report["counters"]["segments_replayed"] > 0
        assert report["counters"]["transitions_counted"] > 0

    @pytest.mark.slow
    def test_processes_flag_matches_serial(self, workspace):
        par_out = workspace / "par.json.gz"
        ser_out = workspace / "ser.json.gz"
        assert main(self._fit_args(
            workspace, par_out, ["--no-cache", "--processes", "2"]
        )) == 0
        assert main(self._fit_args(workspace, ser_out, ["--no-cache"])) == 0
        assert (
            ModelSet.load(par_out).to_dict() == ModelSet.load(ser_out).to_dict()
        )
