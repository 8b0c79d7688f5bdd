"""Byte-source backends: clamped fetches, accounting, chunk caching, the
open_source rule (mapped, else a buffered file), and that a reader which
refuses its file closes the source it opened."""

import os

import pytest

from repro.core import bytesource
from repro.core.bytesource import FileSource, MemorySource, MmapSource, open_source
from repro.core.fields import MASK_ALL_MERGED
from repro.core.reader import IntervalReader
from repro.core.profilefmt import standard_profile
from repro.errors import FormatError, ReproError
from repro.tracing.rawfile import RawTraceReader
from repro.utils.slog import SlogFile

DATA = bytes(range(256)) * 5  # 1280 bytes, every value present


@pytest.fixture
def blob_path(tmp_path):
    path = tmp_path / "blob.bin"
    path.write_bytes(DATA)
    return path


def make_source(kind, path):
    if kind == "memory":
        return MemorySource(path.read_bytes())
    if kind == "mmap":
        return MmapSource(path)
    return FileSource(path, chunk_bytes=128)


@pytest.mark.parametrize("kind", ["memory", "mmap", "file"])
class TestFetch:
    def test_exact_range(self, blob_path, kind):
        with make_source(kind, blob_path) as src:
            assert len(src) == len(DATA)
            assert src.fetch(100, 50) == DATA[100:150]
            assert src.fetch(0, len(DATA)) == DATA

    def test_clamped_at_eof(self, blob_path, kind):
        with make_source(kind, blob_path) as src:
            assert src.fetch(len(DATA) - 10, 100) == DATA[-10:]
            assert src.fetch(len(DATA), 10) == b""
            assert src.fetch(len(DATA) + 5, 10) == b""

    def test_degenerate_requests(self, blob_path, kind):
        with make_source(kind, blob_path) as src:
            assert src.fetch(-5, 10) == b""
            assert src.fetch(10, 0) == b""
            assert src.fetch(10, -1) == b""

    def test_oversized_request_capped_at_file_size(self, blob_path, kind):
        """A corrupt header announcing an absurd size cannot allocate more
        than the file actually holds."""
        with make_source(kind, blob_path) as src:
            blob = src.fetch(0, 10**9)
            assert blob == DATA
            assert src.bytes_fetched == len(DATA)

    def test_accounting(self, blob_path, kind):
        with make_source(kind, blob_path) as src:
            src.fetch(0, 100)
            src.fetch(200, 50)
            src.fetch(len(DATA), 10)  # empty result: not a fetch
            assert src.fetch_count == 2
            assert src.bytes_fetched == 150
            src.reset_accounting()
            assert src.fetch_count == 0
            assert src.bytes_fetched == 0

    def test_stats_dict(self, blob_path, kind):
        """stats() exposes the accounting under the unified key names the
        reader/SLOG layers and the serving daemon's /metrics build on."""
        with make_source(kind, blob_path) as src:
            src.fetch(0, 100)
            assert src.stats() == {"fetch_count": 1, "bytes_fetched": 100}


@pytest.mark.parametrize("kind", ["mmap", "file"])
def test_fetch_after_close_is_empty(blob_path, kind):
    """Closing zeroes the extent, so fetches clamp to empty instead of
    touching the released handle."""
    src = make_source(kind, blob_path)
    src.close()
    assert src.fetch(0, 10) == b""
    src.close()  # idempotent


def test_mmap_source_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with MmapSource(path) as src:
        assert len(src) == 0
        assert src.fetch(0, 10) == b""


class TestFileSourceChunking:
    def test_fetches_across_chunk_boundaries(self, blob_path):
        with FileSource(blob_path, chunk_bytes=64) as src:
            # Walk the whole file in reads that straddle chunk edges.
            out = b"".join(src.fetch(off, 37) for off in range(0, len(DATA), 37))
            assert out == DATA

    def test_large_fetch_bypasses_chunk(self, blob_path):
        with FileSource(blob_path, chunk_bytes=64) as src:
            assert src.fetch(0, 1000) == DATA[:1000]
            # And small reads still work afterwards.
            assert src.fetch(5, 10) == DATA[5:15]

    def test_backward_seek(self, blob_path):
        with FileSource(blob_path, chunk_bytes=64) as src:
            assert src.fetch(1000, 16) == DATA[1000:1016]
            assert src.fetch(3, 16) == DATA[3:19]

    def test_tiny_chunk_rejected(self, blob_path):
        with pytest.raises(FormatError):
            FileSource(blob_path, chunk_bytes=16)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts open fds through /proc"
)


class TestOpenSource:
    def test_maps_else_falls_back_to_file(self, blob_path, monkeypatch):
        with open_source(blob_path) as src:
            assert isinstance(src, MmapSource)
            assert src.fetch(0, 4) == DATA[:4]

        def refuse(*args, **kwargs):
            raise OSError("mmap refused")

        monkeypatch.setattr(bytesource.mmap, "mmap", refuse)
        with open_source(blob_path) as src:
            assert isinstance(src, FileSource)
            assert src.fetch(0, 4) == DATA[:4]

    @needs_proc
    def test_failed_map_leaves_no_extra_fd(self, blob_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("mmap refused")

        monkeypatch.setattr(bytesource.mmap, "mmap", refuse)
        before = _open_fds()
        src = open_source(blob_path)
        assert isinstance(src, FileSource)
        assert _open_fds() == before + 1  # the fallback's handle, no other
        src.close()
        assert _open_fds() == before


@needs_proc
class TestRefusedFileClosesItsSource:
    """A reader that refuses its file closes the byte source it opened
    while the exception is still alive — and never one it was handed."""

    READERS = {
        "interval": lambda path, **kw: IntervalReader(path, standard_profile(), **kw),
        "slog": SlogFile,
        "raw": RawTraceReader,
    }

    @pytest.fixture
    def junk(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"this is not a trace file at all!!!!")  # 35 bytes
        return path

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_no_fd_survives_failed_opens(self, junk, kind):
        before = _open_fds()
        refusals = []
        for _ in range(20):
            with pytest.raises(ReproError) as info:
                self.READERS[kind](junk)
            refusals.append(info.value)  # keep every traceback alive
        assert _open_fds() == before

    def test_live_reader_closes_its_container_source(self, tmp_path):
        from repro.core.threadtable import ThreadEntry, ThreadTable
        from repro.live import LiveReader, LiveSlogWriter
        from repro.live.container import live_dir_for, meta_path
        from tests.test_serve import message_records

        path = tmp_path / "run.slog"
        table = ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])
        writer = LiveSlogWriter(
            path, standard_profile(), table, field_mask=MASK_ALL_MERGED,
            frame_bytes=512, node_cpus={0: 2},
        )
        try:
            for record in sorted(message_records(), key=lambda r: r.end):
                writer.write(record)
            writer.publish()
            meta = meta_path(live_dir_for(path))
            meta.write_bytes(b"NOTASLOG" + meta.read_bytes()[8:])  # same size
            before = _open_fds()
            refusals = []
            for _ in range(20):
                with pytest.raises(FormatError, match="not a SLOG file") as info:
                    LiveReader(path)
                refusals.append(info.value)
            assert _open_fds() == before
        finally:
            writer.abort()

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_an_injected_source_stays_the_callers(self, junk, kind):
        with FileSource(junk) as src:
            with pytest.raises(ReproError):
                self.READERS[kind](junk, source=src)
            assert src.fetch(0, 4) == b"this"
