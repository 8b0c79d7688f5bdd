"""Interval file writer.

Produces the structure of paper Figure 4: header, thread table, marker
table, then interval records partitioned into frames with doubly linked
frame directories.  Directories are written *before* the frames they index
(so a sequential reader meets the index first), which requires knowing a
directory's frames before emitting it — the writer therefore buffers one
directory's worth of frames at a time, keeping memory bounded regardless of
trace size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from repro.core.atomicio import AtomicFile
from repro.core.framebuilder import FrameSink, SealedFrame
from repro.core.frames import NO_DIRECTORY, FrameDirectory, FrameEntry
from repro.core.magic import INTERVAL_MAGIC as MAGIC
from repro.core.profilefmt import Profile
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError

HEADER_VERSION = 1
_HEADER = struct.Struct("<8sIHHIIIQQd")
# magic, profile_version, header_version, pad, n_threads, n_markers,
# n_nodes, field_mask, first_dir_offset, ticks_per_sec


@dataclass(frozen=True)
class IntervalFileHeader:
    """Header of an interval file (paper section 2.3.3)."""

    profile_version: int
    n_threads: int
    n_markers: int
    field_mask: int
    first_dir_offset: int
    ticks_per_sec: float = 1e9
    n_nodes: int = 0
    header_version: int = HEADER_VERSION

    def encode(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            self.profile_version,
            self.header_version,
            0,
            self.n_threads,
            self.n_markers,
            self.n_nodes,
            self.field_mask,
            self.first_dir_offset,
            self.ticks_per_sec,
        )

    @classmethod
    def decode(cls, data: bytes) -> "IntervalFileHeader":
        magic, pv, hv, _pad, nt, nm, nn, mask, first_dir, tps = _HEADER.unpack(
            data[: _HEADER.size]
        )
        if magic != MAGIC:
            raise FormatError("not an interval file (bad magic)")
        if hv != HEADER_VERSION:
            raise FormatError(f"unsupported interval header version {hv}")
        return cls(pv, nt, nm, mask, first_dir, tps, nn, hv)

    @classmethod
    def size(cls) -> int:
        return _HEADER.size


_NODE_ENTRY = struct.Struct("<HH")


def encode_node_table(node_cpus: dict[int, int]) -> bytes:
    """Serialize the node table: (node id, processor count) pairs."""
    return b"".join(
        _NODE_ENTRY.pack(node, cpus) for node, cpus in sorted(node_cpus.items())
    )


def decode_node_table(data: bytes, offset: int, count: int) -> tuple[dict[int, int], int]:
    """Deserialize ``count`` node-table entries."""
    node_cpus: dict[int, int] = {}
    for _ in range(count):
        node, cpus = _NODE_ENTRY.unpack_from(data, offset)
        offset += _NODE_ENTRY.size
        node_cpus[node] = cpus
    return node_cpus, offset


def encode_marker_table(markers: dict[int, str]) -> bytes:
    """Serialize the marker string/identifier table."""
    out = bytearray()
    for marker_id in sorted(markers):
        blob = markers[marker_id].encode("utf-8")
        out += struct.pack("<IH", marker_id, len(blob)) + blob
    return bytes(out)


def decode_marker_table(data: bytes, offset: int, count: int) -> tuple[dict[int, str], int]:
    """Deserialize ``count`` marker entries."""
    markers: dict[int, str] = {}
    for _ in range(count):
        marker_id, length = struct.unpack_from("<IH", data, offset)
        offset += 6
        markers[marker_id] = data[offset : offset + length].decode("utf-8")
        offset += length
    return markers, offset


class IntervalFileWriter(FrameSink):
    """Sinks sealed frames into a framed, directory-indexed file.

    :meth:`write` feeds records, in batches, through the sink's
    :class:`~repro.core.framebuilder.FrameBuilder` (ascending **end time**
    order enforced at each record, the invariant paper section 3.1 states
    for interval files); :meth:`add_frame` takes frames some other builder
    cut.  The writer itself only groups frames into directories and
    back-patches the directory chain.
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
        frames_per_dir: int = 8,
        ticks_per_sec: float = 1e9,
    ) -> None:
        if frames_per_dir < 1:
            raise FormatError("need at least one frame per directory")
        super().__init__(
            path, profile, thread_table, markers=markers, node_cpus=node_cpus,
            field_mask=field_mask, frame_bytes=frame_bytes,
            ticks_per_sec=ticks_per_sec, continuations=False,
        )
        self.frames_per_dir = frames_per_dir

        # Bytes stage in a temp sibling and replace the final name only in
        # close() — a crash mid-write never leaves a half-written .ute that
        # a later pipeline stage (or another convert job) would trust.
        self._fh = AtomicFile(self.path)
        table_blob = thread_table.encode()
        marker_blob = encode_marker_table(self.markers)
        node_blob = encode_node_table(self.node_cpus)
        first_dir = (
            IntervalFileHeader.size() + len(table_blob) + len(marker_blob) + len(node_blob)
        )
        self.header = IntervalFileHeader(
            profile_version=profile.version_id,
            n_threads=len(thread_table),
            n_markers=len(self.markers),
            n_nodes=len(self.node_cpus),
            field_mask=field_mask,
            first_dir_offset=first_dir,
            ticks_per_sec=ticks_per_sec,
        )
        self._fh.write(self.header.encode())
        self._fh.write(table_blob)
        self._fh.write(marker_blob)
        self._fh.write(node_blob)
        self._next_write_offset = first_dir
        self._prev_dir_offset = NO_DIRECTORY
        # Sunk frames awaiting their directory: (blob, n, start, end).
        self._pending: list[tuple[bytes, int, int, int]] = []

    # ------------------------------------------------------------------ API

    def close(self) -> Path:
        """Flush everything, finalize the directory chain, and atomically
        publish the file at its final name."""
        if self._closed:
            return self.path
        self._seal_for_close()
        if self._pending or self._prev_dir_offset == NO_DIRECTORY:
            # Final (possibly partial or empty) directory.
            self._flush_directory()
        self._fh.commit()
        self._closed = True
        return self.path

    def abort(self) -> None:
        """Discard the output without publishing anything at the final
        name (idempotent; a no-op after close)."""
        if self._closed:
            return
        self._closed = True
        self._fh.abort()

    # ------------------------------------------------------------ internals

    def _sink(self, frame: SealedFrame) -> None:
        self._pending.append(
            (frame.blob, frame.n_records, frame.start_time, frame.end_time)
        )
        if len(self._pending) >= self.frames_per_dir:
            self._flush_directory()

    def _flush_directory(self) -> None:
        dir_offset = self._next_write_offset
        dir_size = FrameDirectory.encoded_size(len(self._pending))
        entries = []
        frame_offset = dir_offset + dir_size
        for blob, n, start, end in self._pending:
            entries.append(FrameEntry(frame_offset, len(blob), n, start, end))
            frame_offset += len(blob)
        directory = FrameDirectory(
            offset=dir_offset,
            prev_offset=self._prev_dir_offset,
            next_offset=NO_DIRECTORY,
            frames=entries,
        )
        self._fh.seek(dir_offset)
        self._fh.write(directory.encode())
        for blob, _, _, _ in self._pending:
            self._fh.write(blob)
        self._next_write_offset = frame_offset
        # Backpatch the previous directory's next pointer.
        if self._prev_dir_offset != NO_DIRECTORY:
            self._fh.seek(FrameDirectory.next_offset_position(self._prev_dir_offset))
            self._fh.write(struct.pack("<q", dir_offset))
            self._fh.seek(self._next_write_offset)
        self._prev_dir_offset = dir_offset
        self._pending = []
