"""Checkpoint/resume and fault-tolerance tests.

The contract under test: a run interrupted at *any* point and resumed
from its checkpoint produces output bit-identical to an uninterrupted
run with the same arguments — for ``TrafficGenerator.generate`` under
any ``processes`` (also when the resume uses a different one than the
interrupted run) and for ``stream_events`` — and failed generation
chunks are either masked transparently or reported as a structured
:class:`repro.jobs.JobFailedError`.
"""

import dataclasses
import itertools
import json
import os

import numpy as np
import pytest

from repro.generator import (
    CheckpointError,
    CheckpointMismatchError,
    GenerationCheckpoint,
    RunKey,
    TrafficGenerator,
    stream_events,
    traffgen,
)
from repro.generator.checkpoint import CHECKPOINT_FORMAT
from repro.generator.compiled import CompiledPopulation
from repro import jobs
from repro.jobs import FAULT_ENV, JobFailedError
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType

from conftest import TRACE_START_HOUR

RUN = dict(start_hour=TRACE_START_HOUR, num_hours=3, seed=7)
POP = 40


def inject_fault(monkeypatch, tmp_path, job, fails, mode="raise"):
    """Fail the first ``fails`` attempts of generation job ``job``."""
    monkeypatch.setenv(
        FAULT_ENV,
        f"stage=generate;job={job};fails={fails};mode={mode};dir={tmp_path}",
    )


@pytest.fixture
def small_chunks(monkeypatch):
    """Seven-UE chunks: a 40-UE run plans 7 jobs (24/9/7 UEs by device)."""
    monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 7 * RUN["num_hours"])


def assert_traces_equal(a, b):
    assert np.array_equal(a.ue_ids, b.ue_ids)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.event_types, b.event_types)
    assert np.array_equal(a.device_types, b.device_types)


@pytest.fixture(scope="module")
def generator(ours_model_set):
    return TrafficGenerator(ours_model_set)


@pytest.fixture(scope="module")
def baseline(generator):
    """The uninterrupted serial trace — the bit-identity oracle."""
    return generator.generate(POP, **RUN)


class TestModelHash:
    def test_stable(self, ours_model_set):
        assert ours_model_set.content_hash() == ours_model_set.content_hash()

    def test_roundtrip_preserves_hash(self, ours_model_set):
        from repro.model import ModelSet

        clone = ModelSet.from_dict(ours_model_set.to_dict())
        assert clone.content_hash() == ours_model_set.content_hash()

    def test_differs_across_model_sets(self, ours_model_set, base_model_set):
        assert ours_model_set.content_hash() != base_model_set.content_hash()


class TestSerialCheckpoint:
    def test_checkpointed_run_matches_plain(
        self, generator, baseline, tmp_path
    ):
        path = tmp_path / "run.npz"
        trace = generator.generate(POP, checkpoint_path=path, **RUN)
        assert_traces_equal(baseline, trace)
        assert path.exists()

    def test_interrupt_and_resume_bit_identical(
        self, generator, baseline, tmp_path, monkeypatch
    ):
        path = tmp_path / "run.npz"
        calls = itertools.count()
        original = CompiledPopulation.advance_hour

        def dying(self, *args, **kwargs):
            # The default serial plan is one chunk per device type, each
            # stepping once per hour: kill the run in the second hour of
            # the second chunk, after the first chunk was checkpointed.
            if next(calls) >= RUN["num_hours"] + 1:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledPopulation, "advance_hour", dying)
        with pytest.raises(KeyboardInterrupt):
            generator.generate(POP, checkpoint_path=path, **RUN)
        monkeypatch.setattr(CompiledPopulation, "advance_hour", original)
        assert set(GenerationCheckpoint.load(path).chunk_columns) == {0}

        resumed = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, resumed)

    def test_resume_after_completion(self, generator, baseline, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        again = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, again)

    def test_checkpoint_written_before_first_hour(
        self, generator, tmp_path, monkeypatch
    ):
        """A kill before any hour completes still leaves a resumable
        file: the chunk plan, with no chunk done."""
        path = tmp_path / "run.npz"

        def dying(self, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(CompiledPopulation, "advance_hour", dying)
        with pytest.raises(KeyboardInterrupt):
            generator.generate(POP, checkpoint_path=path, **RUN)
        saved = GenerationCheckpoint.load(path)
        assert saved.chunk_ues == {"PHONE": 24, "CONNECTED_CAR": 9, "TABLET": 7}
        assert saved.chunk_columns == {}

    def test_mismatched_seed_rejected(self, generator, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            generator.generate(
                POP,
                checkpoint_path=path,
                resume=True,
                start_hour=RUN["start_hour"],
                num_hours=RUN["num_hours"],
                seed=RUN["seed"] + 1,
            )

    def test_mismatched_model_rejected(
        self, generator, base_model_set, tmp_path
    ):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        other = TrafficGenerator(base_model_set)
        with pytest.raises(CheckpointMismatchError, match="model_hash"):
            other.generate(POP, checkpoint_path=path, resume=True, **RUN)

    def test_mismatch_message_names_all_fields(self, generator, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            generator.generate(
                POP,
                checkpoint_path=path,
                resume=True,
                start_hour=RUN["start_hour"] + 1,
                num_hours=RUN["num_hours"] + 1,
                seed=RUN["seed"],
            )
        message = str(excinfo.value)
        assert "start_hour" in message and "num_hours" in message

    def test_other_rng_rejected(self, generator, tmp_path):
        """A checkpoint drawn from Philox-4x64-10 streams would splice
        two streams into one trace."""
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        saved = GenerationCheckpoint.load(path)
        assert saved.provenance["rng"] == "splitmix64 counter"
        saved.provenance["rng"] = "philox4x64-10 counter"
        saved.save(path)
        with pytest.raises(CheckpointMismatchError) as excinfo:
            generator.generate(POP, checkpoint_path=path, resume=True, **RUN)
        assert str(excinfo.value).endswith(
            "rng: checkpoint has 'philox4x64-10 counter', "
            "run has 'splitmix64 counter'"
        )
        del saved.provenance["rng"]
        saved.save(path)
        with pytest.raises(CheckpointMismatchError, match="rng: checkpoint has None"):
            generator.generate(POP, checkpoint_path=path, resume=True, **RUN)

    def test_other_numpy_version_accepted(self, generator, baseline, tmp_path):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        saved = GenerationCheckpoint.load(path)
        saved.provenance["numpy"] = "1.0.0"
        saved.save(path)
        resumed = generator.generate(
            POP, checkpoint_path=path, resume=True, **RUN
        )
        assert resumed == baseline

    def test_resume_without_checkpoint_path(self, generator):
        with pytest.raises(ValueError, match="checkpoint_path"):
            generator.generate(POP, resume=True, **RUN)

    def test_missing_file(self, generator, tmp_path):
        with pytest.raises(CheckpointError):
            generator.generate(
                POP,
                checkpoint_path=tmp_path / "nope.npz",
                resume=True,
                **RUN,
            )

    def test_garbage_file(self, generator, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            generator.generate(POP, checkpoint_path=path, resume=True, **RUN)


def _write_meta(path, meta):
    """Hand-write a checkpoint file holding only ``meta``."""
    np.savez_compressed(path, meta=np.asarray(json.dumps(meta)))


def _meta(ours_model_set, **overrides):
    key = RunKey.for_run(
        ours_model_set,
        {DeviceType.PHONE: POP},
        kind="generate",
        seed=RUN["seed"],
        start_hour=RUN["start_hour"],
        num_hours=RUN["num_hours"],
        first_ue_id=0,
    )
    meta = {
        "format": CHECKPOINT_FORMAT,
        "key": dataclasses.asdict(key),
        "hours_done": 0,
        "events_emitted": 0,
        "chunk_ues": {"PHONE": POP},
        "completed_chunks": [],
        "has_population_state": False,
        "provenance": {},
    }
    meta.update(overrides)
    return meta


class TestCheckpointFormat:
    def test_hand_written_current_format_loads(self, ours_model_set, tmp_path):
        path = tmp_path / "ok.npz"
        _write_meta(path, _meta(ours_model_set))
        assert GenerationCheckpoint.load(path).key.kind == "generate"

    def test_v2_file_rejected(self, ours_model_set, tmp_path):
        """A v2 checkpoint (hourly ``columns``, a ``chunk_size`` key field
        and no chunk plan) is an unknown format."""
        meta = _meta(
            ours_model_set,
            format="repro-generation-checkpoint-v2",
            has_columns=False,
        )
        meta["key"]["chunk_size"] = 0
        del meta["chunk_ues"]
        path = tmp_path / "v2.npz"
        _write_meta(path, meta)
        with pytest.raises(CheckpointError, match="unknown checkpoint format"):
            GenerationCheckpoint.load(path)

    def test_v1_file_rejected(self, ours_model_set, tmp_path):
        """A v1 checkpoint (with the removed ``engine`` key field and
        reference ``sessions``) is an unknown format."""
        meta = _meta(
            ours_model_set,
            format="repro-generation-checkpoint-v1",
            sessions=None,
        )
        meta["key"]["engine"] = "compiled"
        path = tmp_path / "v1.npz"
        _write_meta(path, meta)
        with pytest.raises(CheckpointError, match="unknown checkpoint format"):
            GenerationCheckpoint.load(path)

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_malformed_key_rejected(self, ours_model_set, tmp_path, change):
        """A key with an unknown or a missing field is a CheckpointError,
        not a bare TypeError from the RunKey constructor."""
        meta = _meta(ours_model_set)
        if change == "extra":
            meta["key"]["engine"] = "compiled"
        else:
            del meta["key"]["model_hash"]
        path = tmp_path / "malformed.npz"
        _write_meta(path, meta)
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            GenerationCheckpoint.load(path)


class TestStreamingCheckpoint:
    def test_interrupted_stream_plus_resumed_equals_whole(
        self, ours_model_set, tmp_path
    ):
        """Kill a stream mid-hour; concatenated streams match end to end."""
        path = tmp_path / "stream.npz"
        whole = list(stream_events(ours_model_set, POP, **RUN))

        stream = stream_events(
            ours_model_set, POP, checkpoint_path=path, **RUN
        )
        # Consume into the middle of the second hour, then drop the stream
        # (simulating a crash between checkpoints).
        consumed = [next(stream) for _ in range(len(whole) // 2)]
        stream.close()

        # The checkpoint tells the consumer exactly how many of its
        # events precede the resume point.
        replay_from = GenerationCheckpoint.load(path).events_emitted
        assert 0 < replay_from <= len(consumed)

        resumed = list(
            stream_events(
                ours_model_set,
                POP,
                checkpoint_path=path,
                resume=True,
                **RUN,
            )
        )
        assert consumed[:replay_from] + resumed == whole

    def test_stream_checkpoint_written_eagerly(self, ours_model_set, tmp_path):
        path = tmp_path / "stream.npz"
        stream = stream_events(
            ours_model_set, POP, checkpoint_path=path, **RUN
        )
        next(stream)  # killed in the very first hour
        stream.close()
        assert GenerationCheckpoint.load(path).events_emitted == 0

    def test_stream_resume_requires_checkpoint_path(self, ours_model_set):
        with pytest.raises(ValueError, match="checkpoint_path"):
            stream_events(ours_model_set, POP, resume=True, **RUN)

    def test_stream_rejects_serial_checkpoint(
        self, generator, ours_model_set, tmp_path
    ):
        path = tmp_path / "run.npz"
        generator.generate(POP, checkpoint_path=path, **RUN)
        with pytest.raises(CheckpointMismatchError, match="kind"):
            next(
                iter(
                    stream_events(
                        ours_model_set,
                        POP,
                        checkpoint_path=path,
                        resume=True,
                        **RUN,
                    )
                )
            )


@pytest.mark.usefixtures("small_chunks")
class TestParallelCheckpoint:
    def test_checkpointed_parallel_matches_serial(
        self, generator, baseline, tmp_path
    ):
        path = tmp_path / "par.npz"
        trace = generator.generate(
            POP, processes=1, checkpoint_path=path, **RUN
        )
        assert_traces_equal(baseline, trace)
        assert len(GenerationCheckpoint.load(path).chunk_columns) == 7

    def test_interrupted_parallel_resumes(
        self, generator, baseline, tmp_path, monkeypatch
    ):
        path = tmp_path / "par.npz"
        inject_fault(monkeypatch, tmp_path, job=3, fails=99)
        monkeypatch.setattr(jobs, "RETRIES", 0)
        with pytest.raises(JobFailedError):
            generator.generate(
                POP, processes=1, checkpoint_path=path, **RUN
            )
        # Chunks 0-2 are in the checkpoint; the resume regenerates the rest.
        assert len(GenerationCheckpoint.load(path).chunk_columns) == 3
        monkeypatch.delenv(FAULT_ENV)
        tele = RunTelemetry()
        resumed = generator.generate(
            POP,
            processes=1,
            checkpoint_path=path,
            resume=True,
            telemetry=tele,
            **RUN,
        )
        assert_traces_equal(baseline, resumed)
        assert tele.counters["chunks_resumed"] == 3

    def test_inline_retry_masks_transient_failure(
        self, generator, baseline, tmp_path, monkeypatch
    ):
        inject_fault(monkeypatch, tmp_path, job=1, fails=2)
        monkeypatch.setattr(jobs, "BACKOFF", (0.0, 0.0))
        trace = generator.generate(POP, processes=1, **RUN)
        assert sorted(os.listdir(tmp_path)) == ["fault-1-0", "fault-1-1"]
        assert_traces_equal(baseline, trace)

    def test_inline_poisoned_chunk_fails_structured(
        self, generator, tmp_path, monkeypatch
    ):
        inject_fault(monkeypatch, tmp_path, job=2, fails=99)
        monkeypatch.setattr(jobs, "RETRIES", 1)
        monkeypatch.setattr(jobs, "BACKOFF", (0.0, 0.0))
        with pytest.raises(JobFailedError) as excinfo:
            generator.generate(POP, processes=1, **RUN)
        err = excinfo.value
        assert err.stage == "generate"
        assert err.labels == {
            "device": DeviceType.PHONE.name,
            "UEs": (14, 21),
            "hours": (RUN["start_hour"], RUN["start_hour"] + RUN["num_hours"]),
        }
        assert err.attempts == 2
        assert "UEs [14, 21)" in str(err)
        assert isinstance(err.__cause__, RuntimeError)

    def test_corrupt_chunk_plan_rejected(self, generator, tmp_path):
        path = tmp_path / "par.npz"
        generator.generate(POP, processes=1, checkpoint_path=path, **RUN)
        checkpoint = GenerationCheckpoint.load(path)
        checkpoint.chunk_ues["PHONE"] = 0
        checkpoint.save(path)
        with pytest.raises(CheckpointError, match="chunk plan"):
            generator.generate(
                POP, checkpoint_path=path, resume=True, **RUN
            )


@pytest.mark.slow
@pytest.mark.usefixtures("small_chunks")
class TestParallelWorkerCrash:
    """Real multiprocess fault injection via the env knob."""

    @pytest.fixture(autouse=True)
    def _short_backoff(self, monkeypatch):
        monkeypatch.setattr(jobs, "BACKOFF", (0.01, 30.0))

    def _run(self, model_set, **kwargs):
        return TrafficGenerator(model_set).generate(
            POP, processes=2, **RUN, **kwargs
        )

    def test_killed_worker_recovers_bit_identical(
        self, ours_model_set, baseline, tmp_path, monkeypatch
    ):
        inject_fault(monkeypatch, tmp_path, job=2, fails=1, mode="exit")
        trace = self._run(ours_model_set)
        assert_traces_equal(baseline, trace)
        # Exactly one injected death.
        assert sorted(os.listdir(tmp_path)) == ["fault-2-0"]

    def test_raising_worker_recovers_bit_identical(
        self, ours_model_set, baseline, tmp_path, monkeypatch
    ):
        inject_fault(monkeypatch, tmp_path, job=0, fails=2)
        monkeypatch.setattr(jobs, "RETRIES", 2)
        trace = self._run(ours_model_set)
        assert_traces_equal(baseline, trace)

    def test_poisoned_raising_chunk_names_itself(
        self, ours_model_set, tmp_path, monkeypatch
    ):
        inject_fault(monkeypatch, tmp_path, job=1, fails=99)
        monkeypatch.setattr(jobs, "RETRIES", 1)
        with pytest.raises(JobFailedError) as excinfo:
            self._run(ours_model_set)
        assert excinfo.value.labels["UEs"] == (7, 14)
        assert excinfo.value.labels["device"] == DeviceType.PHONE.name

    def test_poisoned_crashing_chunk_isolated_and_named(
        self, ours_model_set, tmp_path, monkeypatch
    ):
        """A chunk that always kills its worker is confirmed via the
        single-worker isolation round, never a bare BrokenProcessPool."""
        inject_fault(monkeypatch, tmp_path, job=0, fails=99, mode="exit")
        monkeypatch.setattr(jobs, "RETRIES", 1)
        with pytest.raises(JobFailedError) as excinfo:
            self._run(ours_model_set)
        assert excinfo.value.labels["UEs"] == (0, 7)
        assert "died" in str(excinfo.value)

    def test_crash_then_resume_from_checkpoint(
        self, ours_model_set, baseline, tmp_path, monkeypatch
    ):
        path = tmp_path / "par.npz"
        inject_fault(monkeypatch, tmp_path, job=3, fails=99)
        monkeypatch.setattr(jobs, "RETRIES", 0)
        with pytest.raises(JobFailedError):
            self._run(ours_model_set, checkpoint_path=path)
        monkeypatch.delenv(FAULT_ENV)
        resumed = self._run(
            ours_model_set, checkpoint_path=path, resume=True
        )
        assert_traces_equal(baseline, resumed)


@pytest.mark.slow
class TestResumeAcrossProcesses:
    """The checkpoint stores the chunk plan, so a run interrupted under
    one ``processes`` resumes under another to the same bits."""

    @pytest.mark.parametrize("first, then", [(1, 2), (2, 1)])
    def test_resume_under_other_processes_bit_identical(
        self, generator, baseline, tmp_path, monkeypatch, first, then
    ):
        path = tmp_path / "run.npz"
        # Job 1: the car chunk at processes=1 (24/9/7 UEs), the second
        # phone chunk at processes=2 (12/12, 5/4, 4/3 UEs).
        inject_fault(monkeypatch, tmp_path, job=1, fails=99)
        monkeypatch.setattr(jobs, "RETRIES", 0)
        monkeypatch.setattr(jobs, "BACKOFF", (0.0, 0.0))
        with pytest.raises(JobFailedError):
            generator.generate(
                POP, processes=first, checkpoint_path=path, **RUN
            )
        interrupted = GenerationCheckpoint.load(path)
        assert len(interrupted.chunk_columns) < (3 if first == 1 else 6)
        monkeypatch.delenv(FAULT_ENV)
        resumed = generator.generate(
            POP, processes=then, checkpoint_path=path, resume=True, **RUN
        )
        assert_traces_equal(baseline, resumed)
        # The resume ran the interrupted run's plan, not its own.
        assert GenerationCheckpoint.load(path).chunk_ues == interrupted.chunk_ues
