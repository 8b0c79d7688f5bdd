"""Tests for the remaining section 2.4 utility-library helpers."""

import pytest

from repro.core import (
    IntervalFileWriter,
    get_interval,
    read_header,
    read_profile,
    standard_profile,
)
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.reader import (
    get_interval_at,
    is_vector_field,
    total_elapsed_and_records,
)
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError

PROFILE = standard_profile()


@pytest.fixture()
def sample_file(tmp_path):
    path = tmp_path / "s.ute"
    table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
    with IntervalFileWriter(
        path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=512
    ) as writer:
        for i in range(30):
            writer.write(
                IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 50, 0, 0, 0)
            )
    profile_path = PROFILE.write(tmp_path / "profile.ute")
    return path, profile_path


class TestGetIntervalAt:
    def test_fetch_by_frame_offset(self, sample_file):
        path, profile_path = sample_file
        handle, header = read_header(path)
        table = read_profile(profile_path, header.field_mask)
        frame = handle._frames[1]  # second frame: random access
        raw = get_interval_at(handle, frame.offset)
        from repro.core.reader import get_item_by_name

        start = get_item_by_name(table, raw, "start")
        # The second frame's first record starts exactly at the frame start.
        assert start == frame.start_time

    def test_sequential_and_random_agree(self, sample_file):
        path, profile_path = sample_file
        handle, header = read_header(path)
        first_frame = handle._frames[0]
        sequential_first = get_interval(handle)
        random_first = get_interval_at(handle, first_frame.offset)
        assert sequential_first == random_first

    def test_bad_offset_rejected(self, sample_file):
        path, _ = sample_file
        handle, _ = read_header(path)
        with pytest.raises(FormatError, match="outside file"):
            get_interval_at(handle, 10**9)


class TestGetIntervalTruncation:
    """The sequential cursor refuses a frame the file or the frame itself
    cuts short instead of handing out a short record."""

    @staticmethod
    def drain(handle) -> int:
        count = 0
        while get_interval(handle) is not None:
            count += 1
        return count

    def test_file_ending_inside_a_frame(self, sample_file):
        path, _ = sample_file
        handle, _ = read_header(path)
        assert self.drain(handle) == 30
        last = handle._frames[-1]
        data = path.read_bytes()
        path.write_bytes(data[: last.offset + last.size // 2])
        handle, _ = read_header(path)
        with pytest.raises(FormatError, match=f"frame at {last.offset} runs past end of file"):
            self.drain(handle)

    def test_record_running_past_its_frame(self, sample_file):
        path, _ = sample_file
        handle, _ = read_header(path)
        first = handle._frames[0]
        data = bytearray(path.read_bytes())
        blob = bytes(data[first.offset : first.offset + first.size])
        at = 0
        while at + 1 + blob[at] < len(blob):  # the frame's last record
            at += 1 + blob[at]
        data[first.offset + at] = 255  # its length now runs past the frame
        path.write_bytes(bytes(data))
        handle, _ = read_header(path)
        with pytest.raises(FormatError, match=f"record at {first.offset + at} runs past its frame"):
            self.drain(handle)


class TestIsVectorField:
    def test_scalar_field(self, sample_file):
        _, profile_path = sample_file
        table = read_profile(profile_path, MASK_ALL_PER_NODE)
        assert is_vector_field(table, IntervalType.RUNNING, "start") is False

    def test_unknown_field_rejected(self, sample_file):
        _, profile_path = sample_file
        table = read_profile(profile_path, MASK_ALL_PER_NODE)
        with pytest.raises(FormatError, match="no field"):
            is_vector_field(table, IntervalType.RUNNING, "bogus")


class TestAggregation:
    def test_total_elapsed_and_records(self, sample_file):
        path, _ = sample_file
        handle, _ = read_header(path)
        elapsed, count = total_elapsed_and_records(handle)
        assert count == 30
        assert elapsed == 29 * 100 + 50  # first start 0 to last end


class TestSharedReaderThreadSafety:
    """Regression: one IntervalReader shared by a thread pool (the serving
    daemon's executor) must not corrupt its LRU frame cache."""

    def test_concurrent_frame_reads_agree(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.reader import IntervalReader

        path = tmp_path / "shared.ute"
        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
        with IntervalFileWriter(
            path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=256
        ) as writer:
            for i in range(200):
                writer.write(
                    IntervalRecord(
                        IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 50, 0, 0, 0
                    )
                )
        # Tiny cache so concurrent readers constantly evict each other.
        reader = IntervalReader(path, PROFILE, cache_frames=2)
        frames = list(reader.frames())
        assert len(frames) >= 8
        expected = {
            i: [(r.start, r.duration) for r in reader.read_frame(f)]
            for i, f in enumerate(frames)
        }

        def hammer(worker: int) -> bool:
            for step in range(120):
                i = (worker * 7 + step) % len(frames)
                got = [(r.start, r.duration) for r in reader.read_frame(frames[i])]
                if got != expected[i]:
                    return False
            return True

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(hammer, range(8)))
        assert all(results)
        stats = reader.stats()
        assert stats["hits"] + stats["misses"] == 8 * 120 + len(frames)
