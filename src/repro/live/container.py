"""The live-trace container: on-disk protocol for growing traces.

A trace that is still being written lives next to its final name as a
directory ``<path>.live/`` with four members:

* ``meta`` — a SLOG metadata section (tables, empty preview, zero-frame
  index) written once at creation, so every published byte range parses
  as a valid SLOG file prefix;
* ``data`` — sealed frame bytes, append-only (append, flush, fsync;
  never rewritten);
* ``epoch`` — the *frame-directory epoch*: a manifest naming exactly the
  frames a reader may see, re-published atomically (temp sibling +
  ``os.replace``) after every batch of appends;
* ``index.uteidx`` — a standard sidecar index covering the published
  epoch, re-published atomically alongside it.

The protocol's one rule gives readers their guarantees: **data is
fsynced before the epoch naming it is published**.  A reader therefore
sees exactly the frames of the last published epoch — bytes beyond
``data_size`` (a torn tail, a mid-append crash) are simply invisible —
and successive epochs only ever extend the frame list, so reads are
monotonic.  On close the container is assembled into an ordinary
``.slog``/``.ute`` file at the final name and the directory is removed.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.atomicio import atomic_write_bytes
from repro.errors import FormatError
from repro.utils.slog import _FRAME_ENTRY, SlogFrameEntry

EPOCH_MAGIC = b"UTELIVE1"
EPOCH_VERSION = 1

#: What the container assembles into at close.
FLAVOR_SLOG = 0
FLAVOR_INTERVAL = 1

#: Epoch flag: the writer has closed; this epoch is the last one.
FLAG_FINAL = 1

#: Directory-member names.
META_NAME = "meta"
DATA_NAME = "data"
EPOCH_NAME = "epoch"
INDEX_NAME = "index.uteidx"

_HEADER = struct.Struct("<8sIIQQQB7x")  # magic, version, flags, seq, meta, data, flavor
_TIME = struct.Struct("<QQ")

_DECODE_ERRORS = (struct.error, IndexError, ValueError, OverflowError)


def live_dir_for(path: str | Path) -> Path:
    """The live container directory of a trace path (``run.slog.live``)."""
    path = Path(path)
    return path.with_name(path.name + ".live")


def epoch_path(live_dir: str | Path) -> Path:
    return Path(live_dir) / EPOCH_NAME


def meta_path(live_dir: str | Path) -> Path:
    return Path(live_dir) / META_NAME


def data_path(live_dir: str | Path) -> Path:
    return Path(live_dir) / DATA_NAME


def index_path(live_dir: str | Path) -> Path:
    return Path(live_dir) / INDEX_NAME


def has_live_container(path: str | Path) -> bool:
    """Whether ``path`` is currently backed by a live container (a
    published epoch exists next to it)."""
    return epoch_path(live_dir_for(path)).exists()


@dataclass(frozen=True)
class EpochManifest:
    """One published frame-directory epoch.

    ``frames`` carry **data-relative** offsets; :meth:`absolute_frames`
    rebases them past the metadata prefix for the concatenated view a
    reader presents.  ``time_range`` is the preview's doubling horizon,
    ``preview`` the per-state bin counters accumulated so far.
    """

    seq: int
    meta_size: int
    data_size: int
    flavor: int
    finalized: bool
    time_range: tuple[int, int]
    preview_bins: int
    preview: dict[int, np.ndarray]
    frames: tuple[SlogFrameEntry, ...]

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def absolute_frames(self) -> list[SlogFrameEntry]:
        """The frame index over the virtual file ``meta + data``."""
        return [
            SlogFrameEntry(
                f.start_time, f.end_time, f.offset + self.meta_size,
                f.size, f.n_records, f.n_pseudo,
            )
            for f in self.frames
        ]

    def extends(self, older: "EpochManifest") -> bool:
        """Whether this epoch is a pure extension of ``older`` — newer
        sequence, no shrinkage, and the older frame list is a prefix of
        this one.  Anything else violates the protocol."""
        if self.seq < older.seq or self.data_size < older.data_size:
            return False
        if self.meta_size != older.meta_size or self.flavor != older.flavor:
            return False
        if len(self.frames) < len(older.frames):
            return False
        return self.frames[: len(older.frames)] == older.frames

    # ------------------------------------------------------------- encoding

    def encode(self) -> bytes:
        out = bytearray()
        out += _HEADER.pack(
            EPOCH_MAGIC, EPOCH_VERSION, FLAG_FINAL if self.finalized else 0,
            self.seq, self.meta_size, self.data_size, self.flavor,
        )
        out += _TIME.pack(*self.time_range)
        out += struct.pack("<II", self.preview_bins, len(self.preview))
        for itype in sorted(self.preview):
            out += struct.pack("<I", itype)
            out += np.asarray(self.preview[itype], dtype=np.float64).tobytes()
        out += struct.pack("<I", len(self.frames))
        for f in self.frames:
            out += _FRAME_ENTRY.pack(
                f.start_time, f.end_time, f.offset, f.size,
                f.n_records, f.n_pseudo,
            )
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "EpochManifest":
        try:
            if len(data) < _HEADER.size + 4:
                raise FormatError("live epoch truncated")
            magic, version, flags, seq, meta_size, data_size, flavor = (
                _HEADER.unpack_from(data, 0)
            )
            if magic != EPOCH_MAGIC:
                raise FormatError(f"not a live epoch (magic {magic!r})")
            if version != EPOCH_VERSION:
                raise FormatError(f"unsupported live epoch version {version}")
            (crc,) = struct.unpack_from("<I", data, len(data) - 4)
            if zlib.crc32(data[:-4]) != crc:
                raise FormatError("live epoch checksum mismatch")
            pos = _HEADER.size
            t0, t1 = _TIME.unpack_from(data, pos)
            pos += _TIME.size
            bins, n_states = struct.unpack_from("<II", data, pos)
            pos += 8
            preview: dict[int, np.ndarray] = {}
            for _ in range(n_states):
                (itype,) = struct.unpack_from("<I", data, pos)
                pos += 4
                arr = np.frombuffer(data, dtype=np.float64, count=bins, offset=pos).copy()
                pos += bins * 8
                preview[itype] = arr
            (n_frames,) = struct.unpack_from("<I", data, pos)
            pos += 4
            frames = []
            for _ in range(n_frames):
                frames.append(SlogFrameEntry(*_FRAME_ENTRY.unpack_from(data, pos)))
                pos += _FRAME_ENTRY.size
            if pos != len(data) - 4:
                raise FormatError("live epoch has trailing bytes")
        except _DECODE_ERRORS as exc:
            raise FormatError(f"corrupt live epoch ({exc})") from exc
        return cls(
            seq=seq, meta_size=meta_size, data_size=data_size, flavor=flavor,
            finalized=bool(flags & FLAG_FINAL), time_range=(t0, t1),
            preview_bins=bins, preview=preview, frames=tuple(frames),
        )


def read_manifest(live_dir: str | Path) -> EpochManifest:
    """The last published epoch of a live container.

    The epoch file is only ever replaced whole (atomic rename), so a
    single read observes one complete manifest; :class:`FormatError` means
    genuine damage, not a mid-publish race."""
    return EpochManifest.decode(epoch_path(live_dir).read_bytes())


def write_manifest(live_dir: str | Path, manifest: EpochManifest) -> Path:
    """Atomically publish ``manifest`` as the container's epoch."""
    return atomic_write_bytes(epoch_path(live_dir), manifest.encode())
