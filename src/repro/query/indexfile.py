"""The ``.uteidx`` sidecar index (docs/FORMAT.md section 7).

A trace file's frame directory already answers "which frames overlap this
time window" — but nothing else.  The sidecar index extends that with the
per-frame facts the planner needs to prune on every other predicate:

* a **state-type bitmap** (256 bits) — which interval types occur in the
  frame, with an overflow bit for types beyond the bitmap's range;
* global **posting lists** — per thread key, the sorted frame ordinals
  containing it, so a single-thread query intersects one list instead of
  testing every frame;
* the **thread-key set** of every frame — each (node, thread) pair that
  has a record in it (node sets are derived from these).  It is the
  posting lists transposed, so only the postings are stored and the
  per-frame sets are rebuilt on load;
* a **utilization section** (:mod:`repro.query.utilization`): per-thread
  and per-CPU busy/count/state-histogram bins, the aggregate store behind
  density-capped views.  Only the finest resolution is written, as
  run-length-coded sorted columns; the coarser power-of-two resolutions
  are its exact folds, derived on first use.

The index never changes query *results* — only which frames get decoded.
Every byte is a pure function of the trace file's content (no timestamps),
so rebuilding an unchanged file reproduces the sidecar bit for bit; the
builder publishes through :mod:`repro.core.atomicio` so a crash never
leaves a torn sidecar under the final name.

**Staleness** is decided in three steps (cheapest first): the recorded
source size must match; then, if the source's mtime is not newer than the
sidecar's, the index is trusted; otherwise the recorded SHA-256 of the
source content is re-verified — an atomic replace with identical bytes
keeps the index valid, any content change invalidates it.

Format **version 5** is the only version written or read: an older
sidecar answers ``stale:version`` and is rebuilt, never parsed.  A grown
or rewritten trace is indexed again from scratch — no writer produces a
file whose old bytes survive as a prefix, so there is nothing to extend.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.core.atomicio import AtomicFile
from repro.core.windows import overlaps_window
from repro.errors import FormatError
from repro.query.columnar import FrameBatch
from repro.query.trace import TraceHandle
from repro.query.utilization import (
    DEFAULT_BASE_BINS, UtilizationBuilder, UtilizationIndex, lane_keys, shift_for_span,
)

MAGIC = b"UTEIDX1\x00"
FORMAT_VERSION = 5

#: Suffix appended to the trace file's full name (``run.slog.uteidx``).
SIDECAR_SUFFIX = ".uteidx"

#: Size of the per-frame state-type bitmap.  Types ``0..254`` get a bit
#: each; bit 255 is the overflow marker ("types beyond the bitmap occur
#: here", which disables type pruning for the frame).
TYPE_BITMAP_BYTES = 32
_OVERFLOW_BIT = TYPE_BITMAP_BYTES * 8 - 1

_HEADER = struct.Struct("<8sII")          # magic, version, flags
_SOURCE = struct.Struct("<Q32s")          # source size, sha256
_SPAN = struct.Struct("<qqIII")           # t_min, t_max, n_frames, n_postings, reserved
_FRAME = struct.Struct("<QQQQI")          # offset, size, start, end, n_records
_POSTING = struct.Struct("<QI")           # thread key, n_frames

_DECODE_ERRORS = (struct.error, IndexError, ValueError, OverflowError)


class IndexVersionError(FormatError):
    """A well-formed sidecar of another format version (rebuilt, not read)."""


def summarize_frame(batch: FrameBatch) -> tuple[bytes, tuple[int, ...]]:
    """One frame's planner facts: its state-type bitmap (types beyond the
    bitmap set the overflow bit) and its sorted thread keys."""
    types = np.unique(batch.itype)
    present = np.zeros(TYPE_BITMAP_BYTES * 8, dtype=bool)
    present[np.where((types >= 0) & (types < _OVERFLOW_BIT), types, _OVERFLOW_BIT)] = True
    keys = np.unique(lane_keys(batch.node, batch.thread))
    return np.packbits(present, bitorder="little").tobytes(), tuple(keys.tolist())


@dataclass(frozen=True)
class FrameSummary:
    """Everything the planner knows about one frame without decoding it."""

    ordinal: int
    offset: int
    size: int
    n_records: int
    start_time: int
    end_time: int
    type_bits: bytes
    thread_keys: tuple[int, ...]

    def may_have_type(self, itype: int) -> bool:
        """Whether records of ``itype`` can occur here (bitmap test; an
        overflow frame answers True for out-of-range types)."""
        bit = itype if 0 <= itype < _OVERFLOW_BIT else _OVERFLOW_BIT
        return bool(self.type_bits[bit // 8] & (1 << (bit % 8)))

    def nodes(self) -> set[int]:
        """Node ids with at least one record in this frame."""
        return {key >> 32 for key in self.thread_keys}

    def overlaps(self, t0: int | None, t1: int | None) -> bool:
        """Whether the frame's time range intersects the (closed) window."""
        return overlaps_window(self.start_time, self.end_time, t0, t1)


@dataclass
class TraceIndex:
    """A parsed (or freshly built) sidecar index; ``utilization`` carries
    the per-lane aggregate hierarchy."""

    source_size: int
    source_sha256: bytes
    t_min: int
    t_max: int
    frames: list[FrameSummary]
    postings: dict[int, tuple[int, ...]]
    utilization: UtilizationIndex | None = None

    # -------------------------------------------------------------- queries

    def frames_for_thread_id(self, thread: int) -> set[int]:
        """Union of posting lists whose key carries ``thread`` on any node."""
        out: set[int] = set()
        for key, ordinals in self.postings.items():
            if key & 0xFFFFFFFF == thread:
                out.update(ordinals)
        return out

    def summary(self) -> dict:
        """JSON-friendly overview (``ute-query --build-index`` prints it)."""
        out = {
            "version": FORMAT_VERSION,
            "frames": len(self.frames),
            "threads": len(self.postings),
            "time_range": [self.t_min, self.t_max],
            "records": sum(f.n_records for f in self.frames),
            "source_sha256": self.source_sha256.hex(),
        }
        if self.utilization is not None:
            out["utilization"] = self.utilization.summary()
        return out

    # ------------------------------------------------------------- encoding

    def encode_chunks(self) -> Iterator[bytes]:
        """The serialized sidecar piece by piece, CRC32 trailer last;
        deterministic for a given trace content.  The utilization columns
        are encoded one at a time as they are pulled, so a writer never
        holds a second copy of the whole sidecar next to the index
        itself."""
        out = bytearray()
        out += _HEADER.pack(MAGIC, FORMAT_VERSION, 0)
        out += _SOURCE.pack(self.source_size, self.source_sha256)
        out += _SPAN.pack(self.t_min, self.t_max, len(self.frames), len(self.postings), 0)
        for f in self.frames:
            out += _FRAME.pack(f.offset, f.size, f.start_time, f.end_time, f.n_records)
            out += f.type_bits
        for key in sorted(self.postings):
            ordinals = self.postings[key]
            out += _POSTING.pack(key, len(ordinals))
            out += struct.pack(f"<{len(ordinals)}I", *ordinals)
        if self.utilization is None:
            out += UtilizationIndex.encode_absent()
        crc = zlib.crc32(out)
        yield bytes(out)
        if self.utilization is not None:
            for chunk in self.utilization.encode_chunks():
                crc = zlib.crc32(chunk, crc)
                yield chunk
        yield struct.pack("<I", crc)

    def encode(self) -> bytes:
        """:meth:`encode_chunks` as one ``bytes``."""
        return b"".join(self.encode_chunks())

    @classmethod
    def decode(cls, data: bytes) -> "TraceIndex":
        """Parse sidecar bytes; :class:`FormatError` on any damage
        (:class:`IndexVersionError` for another format version)."""
        try:
            if len(data) < _HEADER.size + 4:
                raise FormatError("sidecar index truncated")
            magic, version, _flags = _HEADER.unpack_from(data, 0)
            if magic != MAGIC:
                raise FormatError(f"not a sidecar index (magic {magic!r})")
            if version != FORMAT_VERSION:
                raise IndexVersionError(f"unsupported index version {version}")
            (crc,) = struct.unpack_from("<I", data, len(data) - 4)
            if zlib.crc32(memoryview(data)[:-4]) != crc:
                raise FormatError("sidecar index checksum mismatch")
            pos = _HEADER.size
            source_size, sha = _SOURCE.unpack_from(data, pos)
            pos += _SOURCE.size
            t_min, t_max, n_frames, n_postings, _ = _SPAN.unpack_from(data, pos)
            pos += _SPAN.size
            facts = []
            for _ in range(n_frames):
                offset, size, start, end, n_records = _FRAME.unpack_from(data, pos)
                pos += _FRAME.size
                bits = bytes(data[pos : pos + TYPE_BITMAP_BYTES])
                if len(bits) != TYPE_BITMAP_BYTES:
                    raise FormatError("sidecar index truncated in type bitmap")
                pos += TYPE_BITMAP_BYTES
                facts.append((offset, size, n_records, start, end, bits))
            # The per-frame key sets are the postings transposed: walking
            # the keys in their (ascending) file order leaves every frame's
            # keys sorted, which is how the accumulator builds them.
            postings: dict[int, tuple[int, ...]] = {}
            keys_of: list[list[int]] = [[] for _ in facts]
            last_key = -1
            for _ in range(n_postings):
                key, count = _POSTING.unpack_from(data, pos)
                pos += _POSTING.size
                ordinals = struct.unpack_from(f"<{count}I", data, pos)
                pos += count * 4
                if key <= last_key or any(a >= b for a, b in zip(ordinals, ordinals[1:])):
                    raise FormatError("sidecar index posting lists are not sorted")
                last_key = key
                postings[key] = ordinals
                for ordinal in ordinals:
                    keys_of[ordinal].append(key)
            frames = [
                FrameSummary(ordinal, *fact, tuple(keys))
                for ordinal, (fact, keys) in enumerate(zip(facts, keys_of))
            ]
            utilization, pos = UtilizationIndex.decode(data, pos, len(data) - 4)
            if pos != len(data) - 4:
                raise FormatError("sidecar index has trailing bytes")
        except _DECODE_ERRORS as exc:
            raise FormatError(f"corrupt sidecar index ({exc})") from exc
        return cls(source_size, sha, t_min, t_max, frames, postings, utilization)


# ---------------------------------------------------------------------------
# Building.


def hash_file(path: str | Path, *, chunk: int = 1 << 20) -> bytes:
    """SHA-256 of a file's content, read in bounded chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(chunk):
            digest.update(block)
    return digest.digest()


class IndexAccumulator:
    """Frame-at-a-time index construction: the one accounting path behind
    :func:`build_index` and the live writer's per-epoch snapshots — both
    land on the same bytes for the same frames."""

    def __init__(self) -> None:
        self.frames: list[FrameSummary] = []
        self.postings: dict[int, list[int]] = {}
        self.builder = UtilizationBuilder()

    def add_frame(
        self, batch: FrameBatch, offset: int, size: int, n_records: int,
        start_time: int, end_time: int,
    ) -> None:
        """Account the next frame (``offset`` is file-absolute)."""
        bits, keys = summarize_frame(batch)
        self.builder.add_batch(batch)
        ordinal = len(self.frames)
        self.frames.append(
            FrameSummary(ordinal, offset, size, n_records, start_time, end_time, bits, keys)
        )
        for key in keys:
            self.postings.setdefault(key, []).append(ordinal)

    def index(self, source_size: int, source_sha256: bytes) -> TraceIndex:
        """The index of the frames so far (the accumulator stays usable)."""
        return TraceIndex(
            source_size=source_size,
            source_sha256=source_sha256,
            t_min=min((f.start_time for f in self.frames), default=0),
            t_max=max((f.end_time for f in self.frames), default=0),
            frames=list(self.frames),
            postings={k: tuple(v) for k, v in self.postings.items()},
            utilization=self.builder.build(),
        )

    def scan(self, handle: TraceHandle) -> TraceIndex:
        """Account every frame of ``handle``; index it.

        A whole file's frame directory is known before any frame is
        decoded, so the utilization builder starts on the grid of the
        directory's span (:func:`shift_for_span`) and cuts each record's
        rows once, at or near the final shift.  Every frame we write
        records the least start and the last end of its rows, so that span
        is the records' span, and a seed no coarser than the final shift
        changes no byte (:class:`UtilizationBuilder`).  The decoder does
        not check directory spans, though: if the records turn out not to
        cover the directory's span, the builder's pass is repeated
        unseeded."""
        frames = handle.frames
        span = None
        if frames and not self.frames:
            span = (min(f.start_time for f in frames), max(f.end_time for f in frames))
            self.builder = UtilizationBuilder(shift=shift_for_span(*span, DEFAULT_BASE_BINS))
        for frame in frames:
            self.add_frame(
                handle.read_frame_batch(frame.ordinal), frame.offset, frame.size,
                frame.n_records, frame.start_time, frame.end_time,
            )
        seeded = self.builder
        if span is not None and (
            seeded.t_min is None or seeded.t_min > span[0] or seeded.t_max < span[1]
        ):
            self.builder = UtilizationBuilder()
            for frame in frames:
                self.builder.add_batch(handle.read_frame_batch(frame.ordinal))
        return self.index(os.stat(handle.path).st_size, hash_file(handle.path))


def build_index(handle: TraceHandle) -> TraceIndex:
    """Build the index by one full pass over an open trace.

    Deterministic: frames are visited in file order, thread keys and
    posting lists are emitted sorted, and nothing time- or
    environment-dependent is recorded.  The per-lane utilization
    hierarchy is accumulated in the same pass.
    """
    return IndexAccumulator().scan(handle)


# ---------------------------------------------------------------------------
# Sidecar files.


def index_path_for(path: str | Path) -> Path:
    """The sidecar path of a trace file (``run.slog`` -> ``run.slog.uteidx``)."""
    path = Path(path)
    return path.with_name(path.name + SIDECAR_SUFFIX)


def write_index(index: TraceIndex, sidecar: str | Path) -> Path:
    """Publish the sidecar crash-safely (temp sibling + atomic replace)."""
    with AtomicFile(sidecar) as fh:
        for chunk in index.encode_chunks():
            fh.write(chunk)
    return Path(sidecar)


def load_index(sidecar: str | Path) -> TraceIndex:
    """Parse one sidecar file (:class:`FormatError` on damage)."""
    return TraceIndex.decode(Path(sidecar).read_bytes())


def load_fresh_index(
    source: str | Path, sidecar: str | Path | None = None
) -> tuple[TraceIndex | None, str]:
    """The sidecar index of ``source`` if it exists and is fresh.

    Returns ``(index, "fresh")`` or ``(None, reason)`` with reason one of
    ``missing``, ``corrupt:...``, ``stale:version`` (an older format:
    rebuilt, not read), ``stale:size``, ``stale:content`` — the planner
    treats every ``None`` as "fall back to full scan".
    """
    source = Path(source)
    sidecar = index_path_for(source) if sidecar is None else Path(sidecar)
    if not sidecar.exists():
        return None, "missing"
    try:
        index = load_index(sidecar)
    except IndexVersionError:
        return None, "stale:version"
    except (FormatError, OSError) as exc:
        return None, f"corrupt:{exc}"
    try:
        src_stat = os.stat(source)
        side_stat = os.stat(sidecar)
    except OSError as exc:
        return None, f"stale:{exc}"
    if src_stat.st_size != index.source_size:
        return None, "stale:size"
    if src_stat.st_mtime_ns > side_stat.st_mtime_ns:
        # The trace was replaced after the index was built; only identical
        # content (e.g. an atomic rewrite of the same bytes) keeps it valid.
        if hash_file(source) != index.source_sha256:
            return None, "stale:content"
    return index, "fresh"
