"""Streaming readers must be observationally identical to the legacy
whole-file in-memory path: same record sequences, same frame-directory
walks, same simple-API byte streams — only the memory profile differs."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IntervalFileWriter, IntervalReader, standard_profile
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.frames import FrameDirectory
from repro.core.reader import IntervalFileHandle, get_interval
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.utils.slog import SlogFile, SlogWriter
from tests.conftest import byte_source, max_examples

PROFILE = standard_profile()
STREAMING_MODES = ("mmap", "file")

_COUNTER = itertools.count()

record_strategy = st.lists(
    st.tuples(
        st.sampled_from([IntervalType.RUNNING, IntervalType.MARKER]),
        st.integers(min_value=0, max_value=10**6),  # start
        st.integers(min_value=0, max_value=10**4),  # duration
        st.integers(min_value=0, max_value=3),  # thread
    ),
    min_size=1,
    max_size=120,
)


def build_records(raw):
    records = [
        IntervalRecord(
            itype,
            BeBits.COMPLETE,
            start,
            dura,
            0,
            0,
            thread,
            {"markerId": 1} if itype == IntervalType.MARKER else {},
        )
        for itype, start, dura, thread in raw
    ]
    records.sort(key=lambda r: r.end)
    return records


def write_interval_file(tmp, records, frame_bytes=512, frames_per_dir=2):
    path = tmp / f"parity-{next(_COUNTER)}.ute"
    table = ThreadTable([ThreadEntry(0, 1, 1, 0, t, 0, f"t{t}") for t in range(4)])
    with IntervalFileWriter(
        path, PROFILE, table, field_mask=MASK_ALL_PER_NODE,
        markers={1: "phase"}, frame_bytes=frame_bytes, frames_per_dir=frames_per_dir,
    ) as writer:
        for record in records:
            writer.write(record)
    return path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parity")


@given(raw=record_strategy)
@settings(max_examples=max_examples(40), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_streaming_reader_matches_memory_reader(workdir, raw):
    """Property (satellite): for any record set, every streaming backend
    yields the identical record sequence, directory walk, and totals as the
    in-memory path."""
    records = build_records(raw)
    path = write_interval_file(workdir, records)
    with IntervalReader(path, PROFILE, source=byte_source("memory", path)) as baseline:
        # The baseline is the per-record reference decoder, so this is not
        # the store's batch decode compared with itself.
        want_records = [
            r for f in baseline.frames() for r in baseline.reference_frame(f)
        ]
        want_dirs = [
            (d.offset, d.prev_offset, d.next_offset, tuple(d.frames))
            for d in baseline.directories()
        ]
        want_totals = baseline.totals()
    assert len(want_records) == len(records)
    for mode in STREAMING_MODES:
        with IntervalReader(path, PROFILE, source=byte_source(mode, path)) as reader:
            assert list(reader.intervals()) == want_records
            assert [
                (d.offset, d.prev_offset, d.next_offset, tuple(d.frames))
                for d in reader.directories()
            ] == want_dirs
            assert reader.totals() == want_totals


@given(raw=record_strategy)
@settings(max_examples=max_examples(20), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_simple_api_byte_stream_parity(workdir, raw):
    """The Figure-5 simple API returns the identical raw record bytes from
    every backend."""
    path = write_interval_file(workdir, build_records(raw))

    def raw_stream(mode):
        with IntervalReader(path, PROFILE, source=byte_source(mode, path)) as reader:
            handle = IntervalFileHandle(reader, list(reader.frames()))
            out = []
            while (blob := get_interval(handle)) is not None:
                out.append(blob)
            return out

    want = raw_stream("memory")
    for mode in STREAMING_MODES:
        assert raw_stream(mode) == want


def test_slog_streaming_parity(workdir):
    records = build_records(
        [(IntervalType.RUNNING, i * 100, 50, i % 3) for i in range(200)]
    )
    path = workdir / "parity.slog"
    table = ThreadTable([ThreadEntry(0, 1, 1, 0, t, 0, f"t{t}") for t in range(4)])
    writer = SlogWriter(
        path, PROFILE, table, field_mask=MASK_ALL_PER_NODE,
        time_range=(0, records[-1].end), frame_bytes=512,
    )
    for record in records:
        writer.write(record)
    writer.close()
    with SlogFile(path, source=byte_source("memory", path)) as baseline:
        want = [
            r for f in baseline.frames for r in baseline.reference_frame(f)
        ]
        want_frames = list(baseline.frames)
        _, want_matrix = baseline.preview_matrix()
    assert want == records
    for mode in STREAMING_MODES:
        with SlogFile(path, source=byte_source(mode, path)) as slog:
            assert slog.frames == want_frames
            assert slog.records() == want
            _, matrix = slog.preview_matrix()
            assert (matrix == want_matrix).all()


def test_frame_cache_hits_skip_fetches(workdir):
    records = build_records(
        [(IntervalType.RUNNING, i * 100, 50, 0) for i in range(300)]
    )
    path = write_interval_file(workdir, records, frame_bytes=1024)
    with IntervalReader(path, PROFILE, source=byte_source("file", path)) as reader:
        frames = list(reader.frames())
        assert len(frames) > 2
        first = reader.read_frame(frames[0])
        reader.source.reset_accounting()
        again = reader.read_frame(frames[0])
        assert again == first
        assert reader.source.fetch_count == 0  # served from cache
        assert reader.stats()["hits"] == 1

        # Eviction: touch more frames than the cache holds, then re-read.
        small = IntervalReader(
            path, PROFILE, source=byte_source("file", path), cache_frames=2
        )
        for frame in frames:
            small.read_frame(frame)
        small.read_frame(frames[0])
        assert small.stats()["misses"] == len(frames) + 1  # frames[0] was evicted
        assert small.stats()["evictions"] == len(frames) - 1
        small.close()

        # cache_frames=0 disables caching entirely.
        uncached = IntervalReader(
            path, PROFILE, source=byte_source("file", path), cache_frames=0
        )
        uncached.read_frame(frames[0])
        uncached.read_frame(frames[0])
        stats = uncached.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)
        assert (stats["evictions"], stats["resident_bytes"]) == (0, 0)
        uncached.close()


def test_frame_display_fetches_o_frame_bytes(workdir):
    """Displaying one frame of a file-backed reader fetches the frame
    directories plus that frame, never the records of any other frame."""
    records = build_records(
        [(IntervalType.RUNNING, i * 100, 50, i % 4) for i in range(3000)]
    )
    path = write_interval_file(workdir, records, frame_bytes=1024, frames_per_dir=8)
    with IntervalReader(path, PROFILE, source=byte_source("file", path)) as reader:
        _, first, last = reader.totals()
        dir_bytes = sum(
            FrameDirectory.encoded_size(d.n_frames) for d in reader.directories()
        )
        reader.source.reset_accounting()
        frame = reader.find_frame((first + last) // 2)
        assert reader.read_frame(frame)
        fetched = reader.source.bytes_fetched
    assert fetched <= frame.size + dir_bytes + 4096, (fetched, frame.size, dir_bytes)
    assert fetched < path.stat().st_size / 10, fetched


def test_cached_frame_returns_fresh_list(workdir):
    records = build_records([(IntervalType.RUNNING, i, 1, 0) for i in range(10)])
    path = write_interval_file(workdir, records, frame_bytes=4096)
    with IntervalReader(path, PROFILE) as reader:
        frame = next(reader.frames())
        first = reader.read_frame(frame)
        first.clear()  # caller may mutate the *list* without harming the cache
        assert reader.read_frame(frame) == records
