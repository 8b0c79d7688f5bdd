"""The SLOG file format (paper section 4).

SLOG ("scalable log") is the format Jumpshot reads.  It addresses the two
challenges of visualizing huge traces:

* **Rapid access far into the run** — records are divided into frames with a
  time-based frame index, so the frame containing any chosen instant is
  located without reading anything before it.
* **Accurate portrayal at frame boundaries** — frames begin with
  *pseudo-interval* records supplying whatever enclosing-state data is
  needed from other frames.

The file also stores the preview data: per-state time counters accumulated
during construction, with proportional allocation of interval durations to a
fixed number of time bins — what lets Jumpshot draw the whole-run summary
instantly (Figure 7's smaller window).

The record payload encoding reuses the interval-record wire format, and the
describing profile is embedded, so a SLOG file is fully self-contained.
"""

from __future__ import annotations

import io
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.atomicio import AtomicFile, temp_path_for
from repro.core.bytesource import ByteSource
from repro.core.framestore import DEFAULT_FRAME_CACHE, FrameStore
from repro.core.profilefmt import Profile
from repro.core.records import IntervalRecord
from repro.core.salvage import DECODE_ERRORS
from repro.core.threadtable import ThreadTable
from repro.core.writer import (
    decode_marker_table,
    decode_node_table,
    encode_marker_table,
    encode_node_table,
)
from repro.errors import FormatError

MAGIC = b"UTESLOG1"

#: First metadata window fetched by the streaming reader; grown on demand.
_INITIAL_WINDOW = 64 * 1024

#: Exceptions that mean "the metadata did not fit the current window" on a
#: valid file, or "corrupt" once the window covers the whole file.
_PARSE_ERRORS = DECODE_ERRORS + (FormatError,)

_FRAME_ENTRY = struct.Struct("<QQQQII")  # start, end, offset, size, n_records, n_pseudo


@dataclass(frozen=True)
class SlogFrameEntry:
    """One entry of the time-based frame index."""

    start_time: int
    end_time: int
    offset: int
    size: int
    n_records: int
    n_pseudo: int

    def contains_time(self, t: int) -> bool:
        """Whether instant ``t`` falls in this frame's range."""
        return self.start_time <= t <= self.end_time


class SlogWriter:
    """Builds a SLOG file from an end-time-ordered record stream.

    Maintains the preview state counters while records stream through, and
    closes frames at the configured byte size.  Call :meth:`write` with
    ``pseudo=True`` for pseudo-interval records so they are counted
    separately and excluded from the preview accumulation.
    """

    def __init__(
        self,
        path: str | Path,
        profile: Profile,
        thread_table: ThreadTable,
        *,
        markers: dict[int, str] | None = None,
        node_cpus: dict[int, int] | None = None,
        field_mask: int,
        frame_bytes: int = 32 * 1024,
        time_range: tuple[int, int] = (0, 1),
        preview_bins: int = 50,
        ticks_per_sec: float = 1e9,
    ) -> None:
        if preview_bins < 1:
            raise FormatError("need at least one preview bin")
        t0, t1 = time_range
        if t1 <= t0:
            raise FormatError(f"bad preview time range {time_range}")
        self.path = Path(path)
        self.profile = profile
        self.thread_table = thread_table
        self.markers = dict(markers or {})
        self.node_cpus = dict(node_cpus or {})
        self.field_mask = field_mask
        self.frame_bytes = frame_bytes
        self.time_range = (t0, t1)
        self.preview_bins = preview_bins
        self.ticks_per_sec = ticks_per_sec
        self._bin_width = (t1 - t0) / preview_bins
        # Preview counters: itype -> per-bin accumulated duration (ticks).
        self._counters: dict[int, np.ndarray] = {}
        # Finished frames spill to a sidecar file as they close, so the
        # writer holds one open frame plus the (small) index — O(frame)
        # memory however large the trace.  Index: (start, end, size, n,
        # n_pseudo) per frame.  The spill is named like the other writers'
        # temp siblings, so a crash leaves only recognizably-ignorable
        # artifacts behind.
        self._frames: list[tuple[int, int, int, int, int]] = []
        self._spill_path = temp_path_for(self.path.with_name(self.path.name + ".frames"))
        self._spill: io.BufferedWriter | None = open(self._spill_path, "wb")
        self._buf = bytearray()
        self._buf_records = 0
        self._buf_pseudo = 0
        self._buf_start: int | None = None
        self._buf_end = 0
        self.records_written = 0
        self._closed = False

    # ------------------------------------------------------------------ API

    def write(self, record: IntervalRecord, *, pseudo: bool = False) -> None:
        """Append one record; set ``pseudo`` for pseudo-interval records."""
        if self._closed:
            raise FormatError("SLOG writer already closed")
        if not pseudo:
            self._accumulate_preview(record)
        blob = record.encode(self.profile, self.field_mask)
        self._buf += blob
        self._buf_records += 1
        self._buf_pseudo += int(pseudo)
        self._buf_start = (
            record.start if self._buf_start is None else min(self._buf_start, record.start)
        )
        self._buf_end = max(self._buf_end, record.end)
        self.records_written += 1
        if len(self._buf) >= self.frame_bytes:
            self._finish_frame()

    def close(self) -> Path:
        """Finalize frames, assemble the complete file, return its path.

        The metadata and frame index are written first, then the spilled
        frame bytes are streamed across in chunks — the whole file is never
        materialized in memory.  Assembly happens in a temp sibling that
        atomically replaces the final name, so a crash mid-assembly leaves
        the destination untouched."""
        if self._closed:
            return self.path
        self._finish_frame()
        self._closed = True
        assert self._spill is not None
        self._spill.close()
        self._spill = None
        try:
            with AtomicFile(self.path) as out:
                out.write(self._metadata_bytes())
                with open(self._spill_path, "rb") as frames:
                    shutil.copyfileobj(frames, out)
        finally:
            self._spill_path.unlink(missing_ok=True)
        return self.path

    def abort(self) -> None:
        """Discard everything written so far without touching the final
        name (idempotent; a no-op after close)."""
        if self._closed:
            return
        self._closed = True
        if self._spill is not None:
            self._spill.close()
            self._spill = None
        self._spill_path.unlink(missing_ok=True)

    def __enter__(self) -> "SlogWriter":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    # ------------------------------------------------------------ internals

    def _accumulate_preview(self, record: IntervalRecord) -> None:
        """Proportionally allocate a record's duration to the time bins."""
        counters = self._counters.get(record.itype)
        if counters is None:
            counters = np.zeros(self.preview_bins, dtype=np.float64)
            self._counters[record.itype] = counters
        t0, t1 = self.time_range
        lo = max(record.start, t0)
        hi = min(record.end, t1)
        if hi <= lo:
            return
        first = int((lo - t0) / self._bin_width)
        last = min(int((hi - t0) / self._bin_width), self.preview_bins - 1)
        for b in range(first, last + 1):
            bin_lo = t0 + b * self._bin_width
            bin_hi = bin_lo + self._bin_width
            counters[b] += max(0.0, min(hi, bin_hi) - max(lo, bin_lo))

    def _finish_frame(self) -> None:
        if not self._buf_records:
            return
        assert self._buf_start is not None and self._spill is not None
        self._spill.write(self._buf)
        self._frames.append(
            (self._buf_start, self._buf_end, len(self._buf), self._buf_records, self._buf_pseudo)
        )
        self._buf = bytearray()
        self._buf_records = 0
        self._buf_pseudo = 0
        self._buf_start = None
        self._buf_end = 0

    def _metadata_bytes(self) -> bytes:
        """Everything before the frame data: tables, preview, frame index."""
        return slog_metadata_bytes(
            self.profile,
            self.thread_table,
            markers=self.markers,
            node_cpus=self.node_cpus,
            field_mask=self.field_mask,
            ticks_per_sec=self.ticks_per_sec,
            time_range=self.time_range,
            preview_bins=self.preview_bins,
            counters=self._counters,
            frames=self._frames,
        )


def slog_metadata_bytes(
    profile: Profile,
    thread_table: ThreadTable,
    *,
    markers: dict[int, str],
    node_cpus: dict[int, int],
    field_mask: int,
    ticks_per_sec: float,
    time_range: tuple[int, int],
    preview_bins: int,
    counters: dict[int, np.ndarray],
    frames: list[tuple[int, int, int, int, int]],
) -> bytes:
    """A SLOG file's metadata section: tables, preview, frame index.

    ``frames`` holds ``(start, end, size, n_records, n_pseudo)`` per frame
    in file order; frame-index offsets are computed so the frame data
    follows the metadata contiguously.  Shared by :class:`SlogWriter` and
    the live container, whose growing files carry a zero-frame metadata
    prefix in exactly this encoding.
    """
    out = bytearray()
    out += MAGIC
    profile_blob = profile.to_bytes()
    out += struct.pack("<I", len(profile_blob)) + profile_blob
    table_blob = thread_table.encode()
    out += struct.pack("<I", len(thread_table)) + table_blob
    marker_blob = encode_marker_table(markers)
    out += struct.pack("<I", len(markers)) + marker_blob
    node_blob = encode_node_table(node_cpus)
    out += struct.pack("<I", len(node_cpus)) + node_blob
    out += struct.pack("<QdQQ", field_mask, ticks_per_sec, *time_range)
    # Preview.
    out += struct.pack("<II", preview_bins, len(counters))
    for itype in sorted(counters):
        out += struct.pack("<I", itype)
        out += np.asarray(counters[itype], dtype=np.float64).tobytes()
    # Frame index; frame data follows at data_start in spill order.
    out += struct.pack("<I", len(frames))
    offset = len(out) + len(frames) * _FRAME_ENTRY.size
    for start, end, size, n, n_pseudo in frames:
        out += _FRAME_ENTRY.pack(start, end, offset, size, n, n_pseudo)
        offset += size
    return bytes(out)


class SlogFile(FrameStore):
    """Reader for SLOG files: preview, frame index, and frame records.

    Bytes come from a bounded-memory :class:`ByteSource`.  The metadata
    (tables, preview, frame index) is parsed from a window at the head of
    the file that starts at ``_INITIAL_WINDOW`` and grows geometrically
    until the metadata fits, so a valid file costs O(metadata) memory no
    matter how large its frame data is.  Frame reads are inherited from
    :class:`~repro.core.framestore.FrameStore`: exactly one frame is
    fetched, and decoded frames sit in a small LRU keyed by
    (offset, size) — Jumpshot's scroll-back pattern revisits neighbouring
    frames constantly, and a hit skips both the fetch and the decode.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        source: ByteSource | None = None,
        mode: str = "auto",
        cache_frames: int = DEFAULT_FRAME_CACHE,
        errors: str = "strict",
    ) -> None:
        super().__init__(
            path, source=source, mode=mode, cache_frames=cache_frames, errors=errors
        )
        head = self.source.fetch(0, 8)
        if head != MAGIC:
            raise FormatError(f"{self.path}: not a SLOG file")
        window = min(max(_INITIAL_WINDOW, 8), len(self.source))
        while True:
            data = self.source.fetch(0, window)
            try:
                self._parse(data)
                break
            except _PARSE_ERRORS as exc:
                if window >= len(self.source):
                    raise FormatError(
                        f"{self.path}: corrupt SLOG structure ({exc})"
                    ) from exc
                window = min(window * 4, len(self.source))

    def _parse(self, data: bytes) -> None:
        pos = 8
        (plen,) = struct.unpack_from("<I", data, pos)
        pos += 4
        self.profile = Profile.from_bytes(data[pos : pos + plen], str(self.path))
        pos += plen
        (n_threads,) = struct.unpack_from("<I", data, pos)
        pos += 4
        self.thread_table, pos = ThreadTable.decode(data, pos, n_threads)
        (n_markers,) = struct.unpack_from("<I", data, pos)
        pos += 4
        self.markers, pos = decode_marker_table(data, pos, n_markers)
        (n_nodes,) = struct.unpack_from("<I", data, pos)
        pos += 4
        self.node_cpus, pos = decode_node_table(data, pos, n_nodes)
        self.field_mask, self.ticks_per_sec, t0, t1 = struct.unpack_from("<QdQQ", data, pos)
        pos += struct.calcsize("<QdQQ")
        self.time_range = (t0, t1)
        bins, n_states = struct.unpack_from("<II", data, pos)
        pos += 8
        self.preview_bins = bins
        self.preview: dict[int, np.ndarray] = {}
        for _ in range(n_states):
            (itype,) = struct.unpack_from("<I", data, pos)
            pos += 4
            arr = np.frombuffer(data, dtype=np.float64, count=bins, offset=pos).copy()
            pos += bins * 8
            self.preview[itype] = arr
        (n_frames,) = struct.unpack_from("<I", data, pos)
        pos += 4
        self.frames: list[SlogFrameEntry] = []
        for _ in range(n_frames):
            vals = _FRAME_ENTRY.unpack_from(data, pos)
            pos += _FRAME_ENTRY.size
            self.frames.append(SlogFrameEntry(*vals))

    def find_frame(self, t: int) -> SlogFrameEntry | None:
        """Locate the frame containing instant ``t`` via the index alone."""
        for frame in self.frames:
            if frame.contains_time(t):
                return frame
        return None

    def frame_entries(self) -> list[SlogFrameEntry]:
        """All frame entries as a list (the name IntervalReader shares)."""
        return list(self.frames)

    def records(self) -> list[IntervalRecord]:
        """Every record in the file, frame by frame."""
        out = []
        for frame in self.frames:
            out.extend(self.read_frame(frame))
        return out

    def preview_matrix(self) -> tuple[list[int], np.ndarray]:
        """(state types, bins×states duration matrix in seconds)."""
        itypes = sorted(self.preview)
        if not itypes:
            return [], np.zeros((self.preview_bins, 0))
        matrix = np.stack([self.preview[i] for i in itypes], axis=1) / self.ticks_per_sec
        return itypes, matrix


def slog_from_interval_file(
    merged_path: str | Path,
    profile: Profile,
    slog_path: str | Path,
    *,
    frame_bytes: int = 32 * 1024,
    preview_bins: int = 50,
) -> Path:
    """Build a SLOG file from an already-merged interval file."""
    from repro.core.reader import IntervalReader
    from repro.core.records import IntervalType
    from repro.utils.merge import _OpenStateTracker

    with IntervalReader(merged_path, profile) as reader:
        _, _, t_end = reader.totals()
        # The writer context aborts on exception: a failure mid-build (a
        # corrupt merged file, a full disk) leaves no half-written SLOG.
        with SlogWriter(
            slog_path,
            profile,
            reader.thread_table,
            markers=reader.markers,
            node_cpus=reader.node_cpus,
            field_mask=reader.header.field_mask,
            frame_bytes=frame_bytes,
            time_range=(0, max(t_end, 1)),
            preview_bins=preview_bins,
        ) as writer:
            tracker = _OpenStateTracker()
            last_end = 0
            started = False
            for record in reader.intervals():
                if record.itype == IntervalType.CLOCKPAIR:
                    continue
                if started and writer._buf_records == 0:
                    for pseudo in tracker.pseudo_records(last_end):
                        writer.write(pseudo, pseudo=True)
                writer.write(record)
                tracker.observe(record)
                last_end = record.end
                started = True
            return writer.close()
