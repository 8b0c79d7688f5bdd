"""Reading interval files: the object API and the Figure-5-style simple API.

:class:`IntervalReader` is the convenient object interface (iterate
intervals, jump to frames by time, read the thread and marker tables).  The
module-level functions — :func:`read_header`, :func:`read_frame_dir`,
:func:`read_profile`, :func:`get_interval`, :func:`get_item_by_name` —
mirror the paper's utility-library API so the Figure 5 program translates
line for line::

    handle, header = read_header("input_file")
    framedir = read_frame_dir(handle)
    table = read_profile("profile.ute", header.field_mask)
    total = 0
    while (raw := get_interval(handle)) is not None:
        value = get_item_by_name(table, raw, "msgSizeSent")
        if value is not None:
            total += value

The reader is **streaming**: file bytes come from a bounded-memory
:class:`~repro.core.bytesource.ByteSource` (mmap or buffered file), and
only the header section, one directory, or one frame is materialized at a
time — peak memory is O(frame), not O(file).  Decoded frames are kept in a
small LRU cache so repeated frame displays (the Figure 7 access pattern)
skip re-parsing; cached record objects are shared between calls, so
callers must treat them as read-only.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.bytesource import ByteSource
from repro.core.frames import NO_DIRECTORY, FrameDirectory, FrameEntry, aggregate_totals
from repro.core.framestore import DEFAULT_FRAME_CACHE, FrameStore
from repro.core.profilefmt import Profile
from repro.core.records import IntervalRecord, skip_record, unpack_type_word, decode_length
from repro.core.salvage import DECODE_ERRORS as _DECODE_ERRORS
from repro.core.threadtable import ThreadTable
from repro.core.windows import overlaps_window
from repro.core.writer import IntervalFileHeader, decode_marker_table, decode_node_table
from repro.errors import FormatError

#: Nominal byte length charged to the salvage report for a damaged frame
#: directory — its true extent is unknowable once the header lies.
_DIR_NOMINAL = 24


class IntervalReader(FrameStore):
    """Random- and sequential-access reader for one interval file.

    Header, tables and frame directories are parsed here; fetching,
    decoding and caching frames is inherited from
    :class:`~repro.core.framestore.FrameStore`."""

    def __init__(
        self,
        path: str | Path,
        profile: Profile | None = None,
        *,
        source: ByteSource | None = None,
        cache_frames: int = DEFAULT_FRAME_CACHE,
        errors: str = "strict",
    ) -> None:
        self.profile = profile
        # Parsed frame-directory chain, filled by the first complete strict
        # walk.  Interval files are immutable once written (live appends go
        # through their own container protocol), so re-decoding the chain on
        # every find_frame would make random access O(directories) instead of
        # the O(1)-per-lookup the frame directory exists to provide.
        self._dir_chain: list[FrameDirectory] | None = None
        super().__init__(path, source=source, cache_frames=cache_frames, errors=errors)

    def _open(self) -> None:
        if len(self.source) < IntervalFileHeader.size():
            raise FormatError(f"{self.path}: truncated interval file")
        try:
            head = self.source.fetch(0, IntervalFileHeader.size())
            self.header = IntervalFileHeader.decode(head)
            # The fixed tables live between the header and the first frame
            # directory; fetch that span once (clamped to the file extent,
            # so a corrupt directory offset cannot blow up memory).
            tables = self.source.fetch(
                IntervalFileHeader.size(),
                self.header.first_dir_offset - IntervalFileHeader.size(),
            )
            self.thread_table, offset = ThreadTable.decode(
                tables, 0, self.header.n_threads
            )
            self.markers, offset = decode_marker_table(
                tables, offset, self.header.n_markers
            )
            self.node_cpus, offset = decode_node_table(
                tables, offset, self.header.n_nodes
            )
        except _DECODE_ERRORS as exc:
            raise FormatError(f"{self.path}: corrupt header section ({exc})") from exc
        self.field_mask = self.header.field_mask
        self.ticks_per_sec = self.header.ticks_per_sec
        if self.profile is not None:
            self.profile.check_version(self.header.profile_version, str(self.path))

    # ------------------------------------------------------------ directories

    def first_directory(self) -> FrameDirectory:
        """The first frame directory (head of the doubly linked list)."""
        try:
            return FrameDirectory.read_from(self.source, self.header.first_dir_offset)
        except _DECODE_ERRORS as exc:
            raise FormatError(
                f"{self.path}: corrupt frame directory at "
                f"{self.header.first_dir_offset} ({exc})"
            ) from exc

    def directories(self) -> Iterator[FrameDirectory]:
        """All directories, following next pointers.

        In salvage mode a broken link or damaged directory is survivable:
        the reader searches the file for the next directory whose
        *back-link* (``prev_offset``) points at a directory it already
        trusts — the doubly linked list means every genuine successor
        carries that exact byte pattern — and resumes the chain there."""
        if self.salvage is not None:
            # Salvage walks never cache: resync decisions and the report's
            # skip accounting are per-walk side effects.
            yield from self._salvage_directories()
            return
        if self._dir_chain is not None:
            yield from self._dir_chain
            return
        offset = self.header.first_dir_offset
        seen: set[int] = set()
        chain: list[FrameDirectory] = []
        while offset != NO_DIRECTORY:
            if offset in seen:
                raise FormatError(
                    f"{self.path}: frame-directory cycle at offset {offset}"
                )
            seen.add(offset)
            try:
                directory = FrameDirectory.read_from(self.source, offset)
            except _DECODE_ERRORS as exc:
                raise FormatError(
                    f"{self.path}: corrupt frame directory at {offset} ({exc})"
                ) from exc
            chain.append(directory)
            yield directory
            offset = directory.next_offset
        # Publish only after a complete walk — an abandoned generator must
        # not freeze a partial chain.  (Plain assignment: atomic under the
        # GIL, so concurrent walkers at worst both do the full parse.)
        self._dir_chain = chain

    def _salvage_directories(self) -> Iterator[FrameDirectory]:
        report = self.salvage
        assert report is not None
        offset = self.header.first_dir_offset
        seen: set[int] = set()
        last_good = NO_DIRECTORY
        while offset != NO_DIRECTORY:
            if offset in seen:
                report.skip(offset, _DIR_NOMINAL, "frame-directory cycle")
                return
            seen.add(offset)
            directory = self._try_directory(offset)
            if directory is None:
                report.skip(offset, _DIR_NOMINAL, "corrupt frame directory")
                found = self._resync_directory({offset, last_good}, seen)
                if found is None:
                    return
                offset, directory = found
                seen.add(offset)
            yield directory
            last_good = offset
            offset = directory.next_offset

    def _try_directory(self, offset: int, *, strict: bool = False) -> FrameDirectory | None:
        """Read and sanity-check one directory; None if it is implausible.

        Chain reads (``strict=False``) tolerate frame entries overrunning
        end-of-file — that is frame-level damage (a truncated tail) the
        per-frame salvage handles, not a lying directory.  Resync
        *candidates* (``strict=True``) must pass the full screen, since a
        back-link byte pattern can occur in record payload by chance."""
        size = len(self.source)
        if not IntervalFileHeader.size() <= offset < size:
            return None
        try:
            directory = FrameDirectory.read_from(self.source, offset)
        except _DECODE_ERRORS + (FormatError,):
            return None
        for frame in directory.frames:
            if frame.start_time > frame.end_time:
                return None
            if strict and frame.offset + frame.size > size:
                return None
        return directory

    def _resync_directory(
        self, targets: set[int], seen: set[int]
    ) -> tuple[int, FrameDirectory] | None:
        """Search the file for a directory whose back-link names one of
        ``targets`` (the last trusted directory, or the offset the broken
        chain pointed at).  The prev_offset field sits 8 bytes into the
        directory header, so a needle hit at ``p`` means a candidate
        directory at ``p - 8``."""
        # Only in-file offsets make usable needles: a corrupt header can
        # name a target no i64 back-link could ever equal.
        needles = [
            struct.pack("<q", t)
            for t in sorted(targets)
            if t != NO_DIRECTORY and 0 <= t < len(self.source)
        ]
        for needle in needles:
            pos = IntervalFileHeader.size()
            while True:
                hit = self.source.find(needle, pos)
                if hit == -1:
                    break
                candidate = hit - 8
                pos = hit + 1
                if candidate in seen or candidate < IntervalFileHeader.size():
                    continue
                directory = self._try_directory(candidate, strict=True)
                if directory is not None:
                    return candidate, directory
        return None

    def frames(self) -> Iterator[FrameEntry]:
        """All frame entries, in file order."""
        for directory in self.directories():
            yield from directory.frames

    def find_frame(self, t: int) -> FrameEntry | None:
        """The first frame whose [start, end] range contains instant ``t`` —
        located through the directory index alone, without touching any
        record bytes before the frame."""
        for directory in self.directories():
            dir_start, dir_end = (
                directory.time_span() if directory.frames else (0, -1)
            )
            if t > dir_end:
                continue
            for frame in directory.frames:
                if frame.contains_time(t):
                    return frame
            if t < dir_start:
                return None
        return None

    def frame_entries(self) -> list[FrameEntry]:
        """All frame entries as a list (the name SlogFile shares)."""
        return list(self.frames())

    # ---------------------------------------------------------------- records

    def intervals(self) -> Iterator[IntervalRecord]:
        """All records in file order (ascending end time)."""
        for frame in self.frames():
            yield from self.read_frame(frame)

    def intervals_between(self, t0: int, t1: int) -> Iterator[IntervalRecord]:
        """Records overlapping the window [t0, t1], using the frame index to
        skip frames entirely outside it."""
        for frame in self.frames():
            if not overlaps_window(frame.start_time, frame.end_time, t0, t1):
                continue
            for record in self.read_frame(frame):
                if overlaps_window(record.start, record.end, t0, t1):
                    yield record

    def totals(self) -> tuple[int, int, int]:
        """(record count, first start, last end) aggregated from directories
        only — no record bytes are read."""
        return aggregate_totals(self.directories())

    def __iter__(self) -> Iterator[IntervalRecord]:
        return self.intervals()


# ---------------------------------------------------------------------------
# The Figure-5-style simple API.


@dataclass
class IntervalFileHandle:
    """Sequential-read cursor over an interval file (the simple API).

    The cursor holds at most one frame's raw bytes at a time, fetched from
    the reader's byte source when the previous frame is exhausted."""

    reader: IntervalReader
    _frames: list[FrameEntry]
    _frame_idx: int = 0
    _blob: bytes = b""
    _blob_base: int = 0
    _pos: int = -1
    _frame_end: int = -1

    @property
    def header(self) -> IntervalFileHeader:
        """The file header."""
        return self.reader.header


@dataclass
class ProfileTable:
    """A profile narrowed by a file's field-selection mask (the ``table``
    argument of the simple API)."""

    profile: Profile
    mask: int


def read_header(path: str | Path) -> tuple[IntervalFileHandle, IntervalFileHeader]:
    """Open an interval file; returns (handle, header)."""
    reader = IntervalReader(path)
    handle = IntervalFileHandle(reader, list(reader.frames()))
    return handle, reader.header


def read_frame_dir(handle: IntervalFileHandle) -> FrameDirectory:
    """The first frame directory — "a user need not read any frame
    directories except the first one"; sequential access follows links
    internally."""
    return handle.reader.first_directory()


def read_profile(path: str | Path, mask: int) -> ProfileTable:
    """Read a profile file, remembering the field-selection mask used to
    pick the fields present in the interval file."""
    return ProfileTable(Profile.read(path), mask)


def get_interval(handle: IntervalFileHandle) -> bytes | None:
    """The next raw interval record, hiding all frame and directory
    boundaries; None at end of file."""
    while True:
        if handle._pos < 0 or handle._pos >= handle._frame_end:
            if handle._frame_idx >= len(handle._frames):
                return None
            frame = handle._frames[handle._frame_idx]
            handle._frame_idx += 1
            handle._blob = handle.reader.source.fetch(frame.offset, frame.size)
            handle._blob_base = frame.offset
            handle._pos = frame.offset
            handle._frame_end = frame.offset + len(handle._blob)
            continue
        local = handle._pos - handle._blob_base
        try:
            local_end = skip_record(handle._blob, local)
        except _DECODE_ERRORS as exc:
            raise FormatError(
                f"{handle.reader.path}: corrupt record at offset {handle._pos} ({exc})"
            ) from exc
        handle._pos = handle._blob_base + local_end
        return handle._blob[local:local_end]


def get_item_by_name(table: ProfileTable, raw: bytes, name: str) -> Any | None:
    """Extract one field by name from a raw record; None if the record's
    type has no such field under the table's mask."""
    body_len, pos = decode_length(raw, 0)
    (type_word,) = struct.unpack_from("<I", raw, pos)
    itype, _bebits = unpack_type_word(type_word)
    try:
        spec = table.profile.spec_for(itype)
    except FormatError:
        return None
    for fs in spec.fields:
        if not fs.present_in(table.mask):
            continue
        value, next_pos = fs.unpack_value(raw, pos)
        if table.profile.field_name(fs) == name:
            return value
        pos = next_pos
    return None


def get_marker_string(handle: IntervalFileHandle, marker_id: int) -> str:
    """Retrieve a marker string by identifier (the paper's marker helpers)."""
    try:
        return handle.reader.markers[marker_id]
    except KeyError:
        raise FormatError(f"no marker with id {marker_id}") from None


def get_interval_at(handle: IntervalFileHandle, offset: int) -> bytes:
    """Retrieve the raw interval record at a specific file location — the
    paper's "retrieve an interval at a specific location" helper.  The
    offset must point at a record's length prefix (e.g. a frame entry's
    offset, or a position previously advanced with the length prefixes)."""
    source = handle.reader.source
    if not 0 <= offset < len(source):
        raise FormatError(f"offset {offset} outside file")
    prefix = source.fetch(offset, 3)
    try:
        body_len, body_offset = decode_length(prefix, 0)
    except _DECODE_ERRORS as exc:
        raise FormatError(f"record at {offset} runs past end of file") from exc
    length = body_offset + body_len
    if offset + length > len(source):
        raise FormatError(f"record at {offset} runs past end of file")
    return source.fetch(offset, length)


def is_vector_field(table: ProfileTable, itype: int, name: str) -> bool:
    """Whether field ``name`` of record type ``itype`` is a vector field —
    the paper's "determine if a field is a vector field" helper."""
    spec = table.profile.spec_for(itype)
    for fs in spec.fields:
        if table.profile.field_name(fs) == name:
            return fs.vector
    raise FormatError(f"record type {itype} has no field {name!r}")


def total_elapsed_and_records(handle: IntervalFileHandle) -> tuple[int, int]:
    """(total elapsed ticks, total record count), aggregated from the frame
    directory structures only — the paper's frame-directory aggregation
    helpers."""
    count, first, last = handle.reader.totals()
    return last - first, count
