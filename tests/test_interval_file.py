"""Tests for interval file writer/reader: frames, directories, thread table,
markers, and the Figure-5 simple API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IntervalFileWriter,
    IntervalReader,
    get_interval,
    get_item_by_name,
    read_frame_dir,
    read_header,
    read_profile,
    standard_profile,
)
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.frames import NO_DIRECTORY
from repro.core.reader import get_marker_string
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError, ProfileMismatchError

PROFILE = standard_profile()
MASK = MASK_ALL_PER_NODE


def simple_table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])


def running(start, dura, thread=0, bebits=BeBits.COMPLETE):
    return IntervalRecord(IntervalType.RUNNING, bebits, start, dura, 0, 0, thread)


def write_file(path, records, **kwargs):
    kwargs.setdefault("field_mask", MASK)
    kwargs.setdefault("frame_bytes", 256)
    kwargs.setdefault("frames_per_dir", 3)
    with IntervalFileWriter(path, PROFILE, simple_table(), **kwargs) as w:
        for rec in records:
            w.write(rec)
    return path


class TestRoundTrip:
    def test_records_roundtrip_in_order(self, tmp_path):
        records = [running(i * 10, 5) for i in range(100)]
        path = write_file(tmp_path / "f.ute", records)
        back = list(IntervalReader(path, PROFILE).intervals())
        assert [(r.start, r.duration) for r in back] == [(i * 10, 5) for i in range(100)]

    def test_empty_file_valid(self, tmp_path):
        path = write_file(tmp_path / "empty.ute", [])
        reader = IntervalReader(path, PROFILE)
        assert list(reader.intervals()) == []
        assert reader.totals() == (0, 0, 0)

    def test_thread_table_roundtrip(self, tmp_path):
        table = ThreadTable(
            [
                ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0"),
                ThreadEntry(-1, 100, 5001, 0, 1, 1, "worker"),
                ThreadEntry(-1, 1, 2, 0, 2, 2, "kproc"),
            ]
        )
        path = tmp_path / "t.ute"
        with IntervalFileWriter(path, PROFILE, table, field_mask=MASK) as w:
            w.write(running(0, 1))
        reader = IntervalReader(path, PROFILE)
        assert len(reader.thread_table) == 3
        assert reader.thread_table.lookup(0, 1).name == "worker"
        assert reader.thread_table.lookup(0, 2).thread_type == 2
        assert reader.thread_table.lookup(0, 0).mpi_task == 0

    def test_marker_table_roundtrip(self, tmp_path):
        path = tmp_path / "m.ute"
        with IntervalFileWriter(
            path, PROFILE, simple_table(), field_mask=MASK,
            markers={1: "Initial Phase", 2: "Main Loop"},
        ) as w:
            w.write(running(0, 1))
        reader = IntervalReader(path, PROFILE)
        assert reader.markers == {1: "Initial Phase", 2: "Main Loop"}

    @given(
        durations=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=60)
    )
    @settings(max_examples=40)
    def test_roundtrip_property(self, tmp_path_factory, durations):
        # Build end-time-ordered records from cumulative durations.
        t = 0
        records = []
        for d in durations:
            records.append(running(t, d))
            t += d
        path = write_file(tmp_path_factory.mktemp("ivl") / "p.ute", records)
        back = list(IntervalReader(path, PROFILE).intervals())
        assert [(r.start, r.duration) for r in back] == [
            (r.start, r.duration) for r in records
        ]


class TestOrderingInvariant:
    def test_out_of_order_write_rejected(self, tmp_path):
        with IntervalFileWriter(
            tmp_path / "o.ute", PROFILE, simple_table(), field_mask=MASK
        ) as w:
            w.write(running(100, 50))
            with pytest.raises(FormatError, match="end-time order"):
                w.write(running(0, 10))

    def test_equal_end_times_allowed(self, tmp_path):
        with IntervalFileWriter(
            tmp_path / "e.ute", PROFILE, simple_table(), field_mask=MASK
        ) as w:
            w.write(running(0, 100))
            w.write(running(50, 50))  # same end
            w.write(running(90, 10))


class TestFramesAndDirectories:
    def test_multiple_directories_linked(self, tmp_path):
        records = [running(i * 10, 5) for i in range(300)]
        path = write_file(tmp_path / "d.ute", records, frame_bytes=256, frames_per_dir=2)
        reader = IntervalReader(path, PROFILE)
        dirs = list(reader.directories())
        assert len(dirs) > 2
        # Doubly linked: next/prev pointers are consistent.
        assert dirs[0].prev_offset == NO_DIRECTORY
        assert dirs[-1].next_offset == NO_DIRECTORY
        for a, b in zip(dirs, dirs[1:]):
            assert a.next_offset == b.offset
            assert b.prev_offset == a.offset

    def test_directory_chain_parsed_once(self, tmp_path):
        records = [running(i * 10, 5) for i in range(300)]
        path = write_file(tmp_path / "dc.ute", records, frame_bytes=256, frames_per_dir=2)
        reader = IntervalReader(path, PROFILE)
        first = list(reader.directories())
        second = list(reader.directories())
        # The strict chain is cached after one complete walk — random access
        # (find_frame) must not re-decode every directory per lookup.
        assert [id(d) for d in first] == [id(d) for d in second]
        # An abandoned walk must not freeze a partial chain.
        fresh = IntervalReader(path, PROFILE)
        next(fresh.directories())
        assert len(list(fresh.directories())) == len(first)

    def test_frame_entries_describe_their_frames(self, tmp_path):
        records = [running(i * 10, 5) for i in range(200)]
        path = write_file(tmp_path / "fe.ute", records)
        reader = IntervalReader(path, PROFILE)
        total = 0
        for frame in reader.frames():
            recs = reader.read_frame(frame)
            assert len(recs) == frame.n_records
            assert min(r.start for r in recs) == frame.start_time
            assert max(r.end for r in recs) == frame.end_time
            total += len(recs)
        assert total == 200

    def test_find_frame_locates_time(self, tmp_path):
        records = [running(i * 10, 5) for i in range(500)]
        path = write_file(tmp_path / "ff.ute", records)
        reader = IntervalReader(path, PROFILE)
        for t in (0, 1234, 2501, 4985):
            frame = reader.find_frame(t)
            assert frame is not None
            assert frame.contains_time(t)
        assert reader.find_frame(10**9) is None

    def test_intervals_between_uses_window(self, tmp_path):
        records = [running(i * 10, 5) for i in range(500)]
        path = write_file(tmp_path / "w.ute", records)
        reader = IntervalReader(path, PROFILE)
        window = list(reader.intervals_between(1000, 1100))
        assert window
        assert all(r.end >= 1000 and r.start <= 1100 for r in window)
        # Every overlapping record is found.
        expected = [r for r in records if r.end >= 1000 and r.start <= 1100]
        assert len(window) == len(expected)

    def test_totals_from_directories_only(self, tmp_path):
        records = [running(i * 10, 7) for i in range(123)]
        path = write_file(tmp_path / "tot.ute", records)
        count, first, last = IntervalReader(path, PROFILE).totals()
        assert count == 123
        assert first == 0
        assert last == 122 * 10 + 7


class TestProfileChecking:
    def test_wrong_profile_rejected(self, tmp_path):
        path = write_file(tmp_path / "pm.ute", [running(0, 1)])
        from repro.core.profilefmt import Profile

        other = Profile(["Other"], ["rectype"], {})
        with pytest.raises(ProfileMismatchError):
            IntervalReader(path, other)

    def test_reader_without_profile_reads_structure_only(self, tmp_path):
        path = write_file(tmp_path / "np.ute", [running(0, 1)])
        reader = IntervalReader(path)
        assert reader.totals()[0] == 1
        with pytest.raises(FormatError, match="requires a profile"):
            list(reader.intervals())


class TestSimpleApi:
    """The Figure 5 program, line for line."""

    def test_total_bytes_sent(self, tmp_path):
        send_type = IntervalType.for_mpi_fn(0)
        records = []
        for i in range(40):
            records.append(
                IntervalRecord(
                    send_type, BeBits.COMPLETE, i * 100, 50, 0, 0, 0,
                    extra={"peer": 1, "tag": 0, "msgSizeSent": 1024, "seqno": i + 1},
                )
            )
            records.append(running(i * 100 + 50, 50))
        path = write_file(tmp_path / "api.ute", records)
        profile_path = PROFILE.write(tmp_path / "profile.ute")

        handle, header = read_header(path)
        framedir = read_frame_dir(handle)
        assert framedir.n_frames >= 1
        table = read_profile(profile_path, header.field_mask)
        total = 0
        count = 0
        while (raw := get_interval(handle)) is not None:
            count += 1
            value = get_item_by_name(table, raw, "msgSizeSent")
            if value is not None:
                total += value
        assert count == 80
        assert total == 40 * 1024

    def test_get_item_missing_field_returns_none(self, tmp_path):
        path = write_file(tmp_path / "mf.ute", [running(0, 1)])
        profile_path = PROFILE.write(tmp_path / "profile.ute")
        handle, header = read_header(path)
        table = read_profile(profile_path, header.field_mask)
        raw = get_interval(handle)
        assert get_item_by_name(table, raw, "msgSizeSent") is None
        assert get_item_by_name(table, raw, "start") == 0

    def test_get_marker_string(self, tmp_path):
        path = tmp_path / "ms.ute"
        with IntervalFileWriter(
            path, PROFILE, simple_table(), field_mask=MASK, markers={7: "Loop"}
        ) as w:
            w.write(running(0, 1))
        handle, _ = read_header(path)
        assert get_marker_string(handle, 7) == "Loop"
        with pytest.raises(FormatError):
            get_marker_string(handle, 8)


class TestThreadTableLimits:
    def test_512_thread_limit_enforced(self):
        table = ThreadTable()
        with pytest.raises(FormatError, match="512"):
            table.add(ThreadEntry(0, 1, 1, 0, 512, 0))

    def test_duplicate_entry_rejected(self):
        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0)])
        with pytest.raises(FormatError, match="duplicate"):
            table.add(ThreadEntry(1, 2, 2, 0, 0, 1))

    def test_merged_with_combines_nodes(self):
        a = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0)])
        b = ThreadTable([ThreadEntry(1, 2, 2, 1, 0, 0)])
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert merged.lookup(1, 0).mpi_task == 1

    def test_of_type_partitions(self):
        table = ThreadTable(
            [
                ThreadEntry(0, 1, 1, 0, 0, 0),
                ThreadEntry(-1, 1, 2, 0, 1, 1),
                ThreadEntry(-1, 1, 3, 0, 2, 2),
            ]
        )
        assert len(table.of_type(0)) == 1
        assert len(table.of_type(1)) == 1
        assert len(table.of_type(2)) == 1
