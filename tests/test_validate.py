"""Tests for the interval-file validator and its CLI."""

import struct

import pytest

from repro.core import IntervalFileWriter, standard_profile
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.utils.validate import validate_files, validate_interval_file

PROFILE = standard_profile()


def table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])


def rec(itype=IntervalType.RUNNING, bebits=BeBits.COMPLETE, start=0, dura=10,
        thread=0, **extra):
    return IntervalRecord(itype, bebits, start, dura, 0, 0, thread, extra)


def write(path, records, markers=None):
    with IntervalFileWriter(
        path, PROFILE, table(), field_mask=MASK_ALL_PER_NODE,
        markers=markers or {}, frame_bytes=512,
    ) as writer:
        for r in sorted(records, key=lambda x: x.end):
            writer.write(r)
    return path


class TestValidFiles:
    def test_clean_file_passes(self, tmp_path):
        path = write(tmp_path / "ok.ute", [rec(start=i * 20) for i in range(50)])
        report = validate_interval_file(path, PROFILE)
        assert report.ok, report.summary()
        assert report.records == 50
        assert report.frames >= 1
        assert "OK" in report.summary()

    def test_balanced_pieces_pass(self, tmp_path):
        records = [
            rec(bebits=BeBits.BEGIN, start=0, dura=10),
            rec(bebits=BeBits.CONTINUATION, start=20, dura=10),
            rec(bebits=BeBits.END, start=40, dura=10),
        ]
        report = validate_interval_file(write(tmp_path / "p.ute", records), PROFILE)
        assert report.ok

    def test_marker_with_table_entry_passes(self, tmp_path):
        records = [rec(itype=IntervalType.MARKER, markerId=1)]
        path = write(tmp_path / "m.ute", records, markers={1: "phase"})
        assert validate_interval_file(path, PROFILE).ok

    def test_real_pipeline_files_pass(self, tmp_path):
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_pingpong

        run = run_pingpong(tmp_path / "raw")
        conv = convert_traces(run.raw_paths, tmp_path / "ivl")
        merged = merge_interval_files(
            conv.interval_paths, tmp_path / "m.ute", PROFILE, frame_bytes=2048
        )
        reports = validate_files(
            [*conv.interval_paths, merged.merged_path], PROFILE
        )
        for report in reports:
            assert report.ok, report.summary()


class TestViolations:
    def test_unknown_thread_flagged(self, tmp_path):
        path = write(tmp_path / "t.ute", [rec(thread=7)])
        report = validate_interval_file(path, PROFILE)
        assert not report.ok
        assert any("unknown thread" in e for e in report.errors)

    def test_unknown_marker_flagged(self, tmp_path):
        path = write(tmp_path / "um.ute", [rec(itype=IntervalType.MARKER, markerId=9)])
        report = validate_interval_file(path, PROFILE)
        assert any("unknown marker" in e for e in report.errors)

    def test_orphan_continuation_flagged(self, tmp_path):
        path = write(tmp_path / "oc.ute", [rec(bebits=BeBits.CONTINUATION, dura=5)])
        report = validate_interval_file(path, PROFILE)
        assert any("orphan continuation" in e for e in report.errors)

    def test_end_without_begin_flagged(self, tmp_path):
        path = write(tmp_path / "eb.ute", [rec(bebits=BeBits.END)])
        report = validate_interval_file(path, PROFILE)
        assert any("end without begin" in e for e in report.errors)

    def test_open_state_warned(self, tmp_path):
        path = write(tmp_path / "open.ute", [rec(bebits=BeBits.BEGIN)])
        report = validate_interval_file(path, PROFILE)
        assert report.ok  # warning, not error
        assert any("left open" in w for w in report.warnings)

    def test_zero_duration_continuation_counted_as_pseudo(self, tmp_path):
        records = [
            rec(bebits=BeBits.BEGIN, start=0, dura=10),
            rec(bebits=BeBits.CONTINUATION, start=20, dura=0),
            rec(bebits=BeBits.END, start=30, dura=10),
        ]
        report = validate_interval_file(write(tmp_path / "z.ute", records), PROFILE)
        assert report.ok
        assert report.pseudo_records == 1

    def test_corrupt_file_reported_not_raised(self, tmp_path):
        path = tmp_path / "junk.ute"
        path.write_bytes(b"not an interval file at all")
        report = validate_interval_file(path, PROFILE)
        assert not report.ok


class TestDamagedFrames:
    """The structure pass reads each frame's batch, the record pass its
    records: messages, and their order, are what a reader of either form
    would report."""

    def _tamper(self, path, frame_index, field_offset, delta):
        """Add ``delta`` to one u64/u32 field of one directory entry."""
        from repro.core.reader import IntervalReader

        with IntervalReader(path, PROFILE) as reader:
            (directory,) = list(reader.directories())
        at = directory.offset + 24 + 40 * frame_index + field_offset
        data = bytearray(path.read_bytes())
        fmt = "<I" if field_offset == 16 else "<Q"
        (value,) = struct.unpack_from(fmt, data, at)
        struct.pack_into(fmt, data, at, value + delta)
        path.write_bytes(bytes(data))

    def test_count_and_time_range_mismatches_in_order(self, tmp_path):
        from repro.core.reader import IntervalReader

        path = write(tmp_path / "d.ute", [rec(start=i * 20) for i in range(40)])
        with IntervalReader(path, PROFILE) as reader:
            f0, f1, f2 = list(reader.frames())[:3]
        self._tamper(path, 1, 16, 1)  # n_records: one more than the frame holds
        self._tamper(path, 2, 24, -5)  # start_time: earlier than any record
        report = validate_interval_file(path, PROFILE)
        count = (
            f"{path}: frame at {f1.offset}: decoded {f1.n_records} records, "
            f"directory says {f1.n_records + 1}"
        )
        assert report.errors == [
            count,
            f"frame at {f2.offset}: time range [{f2.start_time}, {f2.end_time}] "
            f"!= entry [{f2.start_time - 5}, {f2.end_time}]",
            count,  # the record pass stops at the same frame
        ]
        assert report.warnings == []
        assert report.frames >= 3 and report.records == f0.n_records

    def test_records_materialise_once_per_frame(self, tmp_path, monkeypatch):
        from repro.query.columnar import FrameBatch

        path = write(tmp_path / "ok.ute", [rec(start=i * 20) for i in range(40)])
        calls = []
        original = FrameBatch.to_records
        monkeypatch.setattr(
            FrameBatch, "to_records", lambda self: calls.append(self.n) or original(self)
        )
        report = validate_interval_file(path, PROFILE)
        assert report.ok and report.frames > 1
        assert len(calls) == report.frames and sum(calls) == report.records == 40


class TestCli:
    def test_cli_ok_exit_zero(self, tmp_path, capsys):
        from repro import cli

        path = write(tmp_path / "ok.ute", [rec()])
        assert cli.main_validate([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_invalid_exit_one(self, tmp_path, capsys):
        from repro import cli

        path = write(tmp_path / "bad.ute", [rec(thread=9)])
        assert cli.main_validate([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out
