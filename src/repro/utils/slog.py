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
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.atomicio import AtomicFile, temp_path_for
from repro.core.framebuilder import FrameBuilder, FrameSink, SealedFrame
from repro.core.framestore import FrameStore
from repro.core.magic import SLOG_MAGIC as MAGIC
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


class PreviewBins:
    """Per-state preview counters: each record's duration allocated
    proportionally to ``bins`` equal time bins over ``[t0, t1)``."""

    def __init__(self, bins: int, t0: int, t1: int) -> None:
        if bins < 1:
            raise FormatError("need at least one preview bin")
        if t1 <= t0:
            raise FormatError(f"bad preview time range {(t0, t1)}")
        self.bins = bins
        self.t0 = t0
        self.t1 = t1
        #: itype -> per-bin accumulated duration (ticks).
        self.counters: dict[int, np.ndarray] = {}

    def add(self, record: IntervalRecord) -> None:
        """Allocate one record's duration to the bins it overlaps."""
        self._add(record.itype, record.start, record.end)

    def _add(self, itype: int, start: int, end: int) -> None:
        counters = self._counters_of(itype)
        t0 = self.t0
        lo = max(start, t0)
        hi = min(end, self.t1)
        if hi <= lo:
            return
        width = (self.t1 - t0) / self.bins
        first = int((lo - t0) / width)
        last = min(int((hi - t0) / width), self.bins - 1)
        for b in range(first, last + 1):
            bin_lo = t0 + b * width
            counters[b] += max(0.0, min(hi, bin_lo + width) - max(lo, bin_lo))

    def add_frame(self, frame: SealedFrame) -> None:
        """:meth:`add` for every non-pseudo record of a sealed frame."""
        batch, real = frame.batch, frame.real
        self.add_columns(batch.itype[real], batch.start[real], batch.end[real])

    def add_columns(self, itype: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
        """:meth:`add` for every row of the columns, to the same float64
        sums: each (record, bin) share is the same expression in the same
        precision, and ``np.add.at`` adds them in record-then-bin order."""
        t0, t1 = self.t0, self.t1
        if not 0 <= t0 <= t1 <= 1 << 53:
            # Past 2**53 ticks int -> float64 rounds, and Python compares
            # an int with a float exactly where numpy compares the rounded
            # value: only the record loop is the record loop there.
            for row in zip(itype.tolist(), start.tolist(), end.tolist()):
                self._add(*row)
            return
        types = np.unique(itype).tolist()
        for t in types:
            self._counters_of(t)  # a type with no time in range still gets its row
        lo = np.maximum(start, t0)
        hi = np.minimum(end, t1)
        rows = np.nonzero(hi > lo)[0]
        if not len(rows):
            return
        itype, lo, hi = itype[rows], lo[rows], hi[rows]
        width = (t1 - t0) / self.bins
        first = ((lo - t0) / width).astype(np.int64)
        last = np.minimum(((hi - t0) / width).astype(np.int64), self.bins - 1)
        count = last - first + 1
        # One entry per (record, bin), records in order, bins ascending.
        row = np.repeat(np.arange(len(rows)), count)
        bins = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count) + first[row]
        bin_lo = t0 + bins * width
        share = np.maximum(
            0.0, np.minimum(hi[row], bin_lo + width) - np.maximum(lo[row], bin_lo)
        )
        for t in types:
            of_type = itype[row] == t
            np.add.at(self.counters[t], bins[of_type], share[of_type])

    def _counters_of(self, itype: int) -> np.ndarray:
        counters = self.counters.get(itype)
        if counters is None:
            counters = self.counters[itype] = np.zeros(self.bins, dtype=np.float64)
        return counters


class SlogWriter(FrameSink):
    """Sinks sealed frames into a SLOG file.

    :meth:`write` feeds records, in batches, through the sink's
    :class:`~repro.core.framebuilder.FrameBuilder` (set ``pseudo`` for a
    pseudo-interval record: it is never tracked and counts in its frame's
    ``n_pseudo`` while it extends the frame's leading pseudo run, which
    the preview skips); :meth:`add_frame` takes frames some other builder
    cut.  The writer itself keeps the preview counters, the frame index
    and the spilled frame bytes.
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
        super().__init__(
            path, profile, thread_table, markers=markers, node_cpus=node_cpus,
            field_mask=field_mask, frame_bytes=frame_bytes,
            ticks_per_sec=ticks_per_sec, continuations=False,
        )
        self.time_range = (time_range[0], time_range[1])
        self.preview_bins = preview_bins
        self._preview = PreviewBins(preview_bins, *time_range)
        # Sunk frames spill to a sidecar file as they arrive, so the
        # writer holds one open frame plus the (small) index — O(frame)
        # memory however large the trace.  The spill is named like the
        # other writers' temp siblings, so a crash leaves only
        # recognizably-ignorable artifacts behind.
        self._frames: list[SlogFrameEntry] = []
        self._spill_path = temp_path_for(self.path.with_name(self.path.name + ".frames"))
        self._spill: io.BufferedWriter | None = open(self._spill_path, "wb")

    # ------------------------------------------------------------------ API

    def close(self) -> Path:
        """Finalize frames, assemble the complete file, return its path."""
        if self._closed:
            return self.path
        self._seal_for_close()
        self._closed = True
        assert self._spill is not None
        self._spill.close()
        self._spill = None
        try:
            meta = slog_metadata_bytes(
                self, self.time_range, self._preview.counters, self._frames
            )
            assemble_slog(self.path, meta, self._spill_path)
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

    # ------------------------------------------------------------ internals

    def _sink(self, frame: SealedFrame) -> None:
        assert self._spill is not None
        self._preview.add_frame(frame)
        self._frames.append(frame_entry(frame, self._spill.tell()))
        self._spill.write(frame.blob)


def assemble_slog(path: Path, meta: bytes, frames_path: Path, digest=None) -> None:
    """Write ``meta`` followed by the frame bytes stored at ``frames_path``
    to ``path``; ``digest``, when the caller needs the finished file's hash,
    is a ``hashlib`` object updated with every byte written.

    The frame bytes stream across in blocks — the whole file is never
    materialized in memory — into a temp sibling that atomically replaces
    the final name, so a crash mid-assembly leaves the destination
    untouched."""
    with AtomicFile(path) as out, open(frames_path, "rb") as frames:
        block = meta
        while block:
            if digest is not None:
                digest.update(block)
            out.write(block)
            block = frames.read(1 << 20)


def frame_entry(frame: SealedFrame, offset: int) -> SlogFrameEntry:
    """The frame-index entry of ``frame`` stored at ``offset``."""
    return SlogFrameEntry(
        frame.start_time, frame.end_time, offset, len(frame.blob),
        frame.n_records, frame.n_pseudo,
    )


def slog_metadata_bytes(
    sink: FrameSink,
    time_range: tuple[int, int],
    counters: dict[int, np.ndarray],
    frames: list[SlogFrameEntry],
) -> bytes:
    """A SLOG file's metadata section: the tables of ``sink`` (a SLOG or
    live writer, ``preview_bins`` included), the preview ``counters`` over
    ``time_range``, and the frame index.

    ``frames`` are in file order; their own offsets are ignored and
    recomputed so the frame data follows the metadata contiguously.  The
    live container's once-written ``meta`` member is this encoding with an
    empty preview and a zero-frame index.
    """
    out = bytearray()
    out += MAGIC
    profile_blob = sink.profile.to_bytes()
    out += struct.pack("<I", len(profile_blob)) + profile_blob
    table_blob = sink.thread_table.encode()
    out += struct.pack("<I", len(sink.thread_table)) + table_blob
    marker_blob = encode_marker_table(sink.markers)
    out += struct.pack("<I", len(sink.markers)) + marker_blob
    node_blob = encode_node_table(sink.node_cpus)
    out += struct.pack("<I", len(sink.node_cpus)) + node_blob
    out += struct.pack("<QdQQ", sink.field_mask, sink.ticks_per_sec, *time_range)
    # Preview.
    out += struct.pack("<II", sink.preview_bins, len(counters))
    for itype in sorted(counters):
        out += struct.pack("<I", itype)
        out += np.asarray(counters[itype], dtype=np.float64).tobytes()
    # Frame index; frame data follows at data_start in spill order.
    out += struct.pack("<I", len(frames))
    offset = len(out) + len(frames) * _FRAME_ENTRY.size
    for f in frames:
        out += _FRAME_ENTRY.pack(
            f.start_time, f.end_time, offset, f.size, f.n_records, f.n_pseudo
        )
        offset += f.size
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

    def _open(self) -> None:
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


def _without_clock_pairs(reader):
    """The frame batches of an interval file, clock-pair rows removed."""
    from repro.core.records import IntervalType

    for frame in reader.frames():
        batch = reader.read_frame_batch(frame)
        yield batch.where(batch.itype != IntervalType.CLOCKPAIR)


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

    with IntervalReader(merged_path, profile) as reader:
        _, _, t_end = reader.totals()
        mask = reader.header.field_mask
        # The writer context aborts on exception: a failure mid-build (a
        # corrupt merged file, a full disk) leaves no half-written SLOG.
        with SlogWriter(
            slog_path,
            profile,
            reader.thread_table,
            markers=reader.markers,
            node_cpus=reader.node_cpus,
            field_mask=mask,
            frame_bytes=frame_bytes,
            time_range=(0, max(t_end, 1)),
            preview_bins=preview_bins,
        ) as writer:
            builder = FrameBuilder(profile, mask, frame_bytes, continuations=True)
            for frame in builder.batch_frames(_without_clock_pairs(reader)):
                writer.add_frame(frame)
            return writer.close()
