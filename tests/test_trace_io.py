"""Tests for trace serialization (repro.trace.io)."""

import numpy as np
import pytest

from repro.trace import (
    DeviceType,
    EventType,
    Trace,
    read_csv,
    read_npz,
    write_csv,
    write_npz,
)

from conftest import make_trace

P = DeviceType.PHONE
E = EventType


@pytest.fixture()
def sample():
    return make_trace(
        [
            (1, 0.123, E.ATCH, P),
            (1, 10.5, E.SRV_REQ, P),
            (2, 3.004, E.HO, DeviceType.CONNECTED_CAR),
        ]
    )


class TestCsv:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        back = read_csv(path)
        assert back == sample

    def test_header_written(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "ue_id,time,event,device"

    def test_uses_protocol_names(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        body = path.read_text()
        assert "SRV_REQ" in body
        assert "CONNECTED_CAR" in body

    def test_millisecond_precision_preserved(self, sample, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(sample, path)
        back = read_csv(path)
        assert back.times[0] == pytest.approx(0.123, abs=1e-9)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ue_id,time,event,device\n1,2.0,ATCH\n")
        with pytest.raises(ValueError, match="4 columns"):
            read_csv(path)

    @pytest.mark.parametrize(
        "row,column",
        [
            ("1,2.0,FOO,PHONE", "event"),
            ("1,2.0,ATCH,WATCH", "device"),
            ("x,2.0,ATCH,PHONE", "ue_id"),
            ("-3,2.0,ATCH,PHONE", "ue_id"),
            ("1,nan,ATCH,PHONE", "time"),
            ("1,-2.0,ATCH,PHONE", "time"),
        ],
    )
    def test_bad_value_names_path_line_and_column(self, tmp_path, row, column):
        path = tmp_path / "bad.csv"
        path.write_text(f"ue_id,time,event,device\n0,1.0,ATCH,PHONE\n{row}\n")
        with pytest.raises(ValueError) as excinfo:
            read_csv(path)
        assert f"{path}:3: column '{column}'" in str(excinfo.value)

    def test_ue_with_two_device_types_names_path_column_and_ue(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            "ue_id,time,event,device\n"
            "2,1.000,ATCH,PHONE\n"
            "2,2.000,SRV_REQ,TABLET\n"
        )
        with pytest.raises(ValueError) as excinfo:
            read_csv(path)
        message = str(excinfo.value)
        assert str(path) in message and "'device_types'" in message
        assert "UE 2 " in message

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(Trace.empty(), path)
        assert len(read_csv(path)) == 0


def _savez(compressed):
    """The numpy writer for a plain or a compressed archive.

    :func:`read_npz` reads archives from other producers too, so its
    errors must name the path and column for either kind.
    """
    return np.savez_compressed if compressed else np.savez


class TestNpz:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        back = read_npz(path)
        assert back == sample

    def test_exact_float_preservation(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        back = read_npz(path)
        assert np.array_equal(back.times, sample.times)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_ue_with_two_device_types_names_path_column_and_ue(
        self, sample, tmp_path, compressed
    ):
        path = tmp_path / "mixed.npz"
        _savez(compressed)(
            path,
            ue_ids=sample.ue_ids,
            times=sample.times,
            event_types=sample.event_types,
            device_types=np.asarray(
                [int(P), int(P), int(DeviceType.TABLET)], dtype=np.int8
            ),
        )
        with pytest.raises(ValueError) as excinfo:
            read_npz(path)
        message = str(excinfo.value)
        assert str(path) in message and "'device_types'" in message
        assert "UE 1 " in message

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        write_npz(Trace.empty(), path)
        assert len(read_npz(path)) == 0

    @pytest.mark.parametrize("compressed", [False, True])
    def test_missing_column_names_path_and_column(self, tmp_path, compressed):
        path = tmp_path / "partial.npz"
        _savez(compressed)(path, ue_ids=[1], times=[1.0], event_types=[0])
        with pytest.raises(ValueError) as excinfo:
            read_npz(path)
        assert str(path) in str(excinfo.value)
        assert "'device_types'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "column,value",
        [("ue_ids", 1.7), ("device_types", 0.5), ("event_types", 2.5), ("ue_ids", -4)],
    )
    def test_malformed_column_names_path_and_column(self, tmp_path, column, value):
        columns = {
            "ue_ids": [1], "times": [1.0], "event_types": [0], "device_types": [0]
        }
        columns[column] = [value]
        path = tmp_path / "bad.npz"
        np.savez(path, **columns)
        with pytest.raises(ValueError) as excinfo:
            read_npz(path)
        assert str(path) in str(excinfo.value)
        assert f"'{column}'" in str(excinfo.value)


class TestContentHash:
    def test_stable_across_roundtrip(self, sample, tmp_path):
        path = tmp_path / "trace.npz"
        write_npz(sample, path)
        assert read_npz(path).content_hash() == sample.content_hash()

    def test_cached_per_instance(self, sample):
        assert sample.content_hash() is sample.content_hash()

    def test_differs_on_content_change(self, sample):
        shifted = Trace(
            sample.ue_ids, sample.times + 1.0,
            sample.event_types, sample.device_types,
        )
        assert shifted.content_hash() != sample.content_hash()
