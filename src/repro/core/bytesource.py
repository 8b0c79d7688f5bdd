"""Bounded-memory byte sources for the trace readers.

Every reader in the pipeline (raw traces, interval files, SLOG) used to
load its whole file with ``Path.read_bytes()``, making peak memory O(file).
A :class:`ByteSource` replaces that with random-access *fetches* of exactly
the ranges a reader needs — a header, one frame directory, one frame — so
peak memory is O(largest fetched range), typically one frame.

Three interchangeable backends:

* :class:`MmapSource` — the file is mapped read-only; a fetch copies just
  the requested range out of the map.  What :func:`open_source` opens.
* :class:`FileSource` — plain buffered ``seek``/``read`` with one cached
  chunk: :func:`open_source`'s fallback where a file cannot be mapped.
* :class:`MemorySource` — wraps ``bytes`` already in memory (uploads),
  handed to a reader with ``source=`` like any backend but the default.

All backends share *fetch accounting* (``bytes_fetched`` / ``fetch_count``)
so tests and benchmarks can assert that displaying one frame really reads
O(frame) bytes, not O(file).

Fetches are **clamped**: a range extending past end-of-file returns only
the available bytes (possibly ``b""``).  Readers detect truncation by the
short result and raise their own :class:`~repro.errors.FormatError` /
:class:`~repro.errors.TraceError`; the source itself never raises for
out-of-range requests, which also caps allocations at the file size even
when a corrupt header asks for absurd lengths.
"""

from __future__ import annotations

import io
import mmap
import os
from pathlib import Path

from repro.errors import FormatError

#: Default chunk size of the buffered-file backend.
DEFAULT_CHUNK_BYTES = 256 * 1024


class ByteSource:
    """Random-access byte provider with fetch accounting (base class)."""

    def __init__(self) -> None:
        self.bytes_fetched = 0
        self.fetch_count = 0

    # ------------------------------------------------------------------ API

    def __len__(self) -> int:
        raise NotImplementedError

    def fetch(self, offset: int, size: int) -> bytes:
        """Bytes ``[offset, offset + size)``, clamped to the file extent."""
        if offset < 0 or size <= 0:
            return b""
        end = min(offset + size, len(self))
        if offset >= end:
            return b""
        blob = self._read_range(offset, end - offset)
        self.bytes_fetched += len(blob)
        self.fetch_count += 1
        return blob

    def view(self, offset: int, size: int) -> memoryview:
        """Like :meth:`fetch`, as a memoryview — zero-copy where the
        backend allows it (the mmap source overrides this to hand out a
        window straight into the map).

        Callers must not hold the view past the source's lifetime; release
        it (or let it go out of scope) before :meth:`close`.  Accounting is
        identical to a fetch of the same range.
        """
        return memoryview(self.fetch(offset, size))

    def close(self) -> None:
        """Release the underlying file/map (idempotent)."""

    def reset_accounting(self) -> None:
        """Zero the fetch counters (benchmarks measure deltas)."""
        self.bytes_fetched = 0
        self.fetch_count = 0

    def find(self, needle: bytes, start: int = 0, end: int | None = None) -> int:
        """Lowest offset ``>= start`` where ``needle`` occurs, or -1.

        Scans in bounded chunks with needle-sized overlap, so memory stays
        O(chunk) however large the file — the salvage-mode directory resync
        (searching for frame-directory back-links) is built on this."""
        if not needle:
            return max(0, start)
        stop = len(self) if end is None else min(end, len(self))
        overlap = len(needle) - 1
        chunk = max(DEFAULT_CHUNK_BYTES, len(needle) * 2)
        pos = max(0, start)
        while stop - pos >= len(needle):
            take = min(chunk, stop - pos)
            idx = self.fetch(pos, take).find(needle)
            if idx != -1:
                return pos + idx
            pos += take - overlap
        return -1

    def stats(self) -> dict[str, int]:
        """Fetch accounting in the shared stats shape (see readers'
        ``stats()``): consumers such as ``/metrics`` and the benchmarks
        read one dict instead of poking backend attributes."""
        return {
            "fetch_count": self.fetch_count,
            "bytes_fetched": self.bytes_fetched,
        }

    # ------------------------------------------------------------ internals

    def _read_range(self, offset: int, size: int) -> bytes:
        raise NotImplementedError

    def __enter__(self) -> "ByteSource":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class MemorySource(ByteSource):
    """A byte source over data already in memory."""

    def __init__(self, data: bytes) -> None:
        super().__init__()
        self._data = bytes(data)

    def __len__(self) -> int:
        return len(self._data)

    def _read_range(self, offset: int, size: int) -> bytes:
        return self._data[offset : offset + size]


class MmapSource(ByteSource):
    """A byte source over a read-only memory-mapped file."""

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self._fh: io.BufferedReader | None = open(self.path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            # Zero-length files cannot be mapped; serve them as empty memory.
            self._map: mmap.mmap | None = (
                mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ) if size else None
            )
        except BaseException:
            self._fh.close()
            raise
        self._size = size

    def __len__(self) -> int:
        return self._size

    def _read_range(self, offset: int, size: int) -> bytes:
        if self._map is None:
            raise FormatError(f"{self.path}: byte source closed")
        return self._map[offset : offset + size]

    def view(self, offset: int, size: int) -> memoryview:
        """A zero-copy window into the map (clamped like a fetch).

        The view pins the map: release it before :meth:`close`, or the
        mmap cannot be unmapped.  Accounted exactly like a fetch.
        """
        if self._map is None:
            raise FormatError(f"{self.path}: byte source closed")
        if offset < 0 or size <= 0:
            return memoryview(b"")
        end = min(offset + size, self._size)
        if offset >= end:
            return memoryview(b"")
        self.bytes_fetched += end - offset
        self.fetch_count += 1
        return memoryview(self._map)[offset:end]

    def close(self) -> None:
        if self._map is not None:
            self._map.close()
            self._map = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._size = 0


class FileSource(ByteSource):
    """A byte source over a plain file handle with one cached chunk.

    Small fetches (record prefixes, directory headers) are served from the
    cached chunk; fetches larger than the chunk bypass it with one direct
    read.  Memory held is ``max(chunk_bytes, largest fetch)``.
    """

    def __init__(self, path: str | Path, *, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> None:
        super().__init__()
        if chunk_bytes < 64:
            raise FormatError(f"chunk size too small: {chunk_bytes}")
        self.path = Path(path)
        self.chunk_bytes = chunk_bytes
        self._fh: io.BufferedReader | None = open(self.path, "rb")
        self._size = os.fstat(self._fh.fileno()).st_size
        self._chunk_start = 0
        self._chunk = b""

    def __len__(self) -> int:
        return self._size

    def _read_range(self, offset: int, size: int) -> bytes:
        if self._fh is None:
            raise FormatError(f"{self.path}: byte source closed")
        if size > self.chunk_bytes:
            self._fh.seek(offset)
            return self._fh.read(size)
        lo = offset - self._chunk_start
        if lo < 0 or offset + size > self._chunk_start + len(self._chunk):
            self._fh.seek(offset)
            self._chunk = self._fh.read(max(self.chunk_bytes, size))
            self._chunk_start = offset
            lo = 0
        return self._chunk[lo : lo + size]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._chunk = b""
        self._size = 0


def open_source(path: str | Path) -> ByteSource:
    """Open ``path`` as a byte source: mapped when the file can be mapped,
    a buffered file otherwise."""
    try:
        return MmapSource(path)
    except (OSError, ValueError):
        return FileSource(path)
