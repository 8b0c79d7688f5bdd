"""A uniform frame-level handle over interval (.ute) and SLOG files.

The query engine and the index builder work frame by frame: enumerate the
frame directory, decode chosen frames, account the bytes read.  Interval
files (:class:`~repro.core.reader.IntervalReader`) and SLOG files
(:class:`~repro.utils.slog.SlogFile`) both support exactly that through
the :class:`~repro.core.framestore.FrameStore` surface they inherit;
:class:`TraceHandle` adds frame ordinals on top so everything above it is
format-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.magic import sniff_kind
from repro.core.records import IntervalRecord
from repro.core.windows import overlaps_window
from repro.errors import FormatError


@dataclass(frozen=True)
class TraceFrame:
    """One frame as the query layer sees it: where it lives, what the
    directory entry promises about it."""

    ordinal: int
    offset: int
    size: int
    n_records: int
    start_time: int
    end_time: int
    #: Leading pseudo (continuation) records of the frame.  SLOG frame
    #: entries carry the exact count; interval frames have none at this
    #: level (the merge's injected records are recognized structurally).
    n_pseudo: int = 0

    def overlaps(self, t0: int | None, t1: int | None) -> bool:
        """Whether the frame's time range intersects the (closed) window."""
        return overlaps_window(self.start_time, self.end_time, t0, t1)


class TraceHandle:
    """One open trace file presented as an ordered list of frames.

    ``kind`` (``"interval"`` or ``"slog"``) is kept for callers that need
    to know the format (pseudo-record recognition); nothing here branches
    on it — both readers expose the same surface."""

    def __init__(self, path: str | Path, reader, kind: str) -> None:
        self.path = Path(path)
        self.kind = kind
        self._reader = reader
        self.ticks_per_sec = reader.ticks_per_sec
        self.thread_table = reader.thread_table
        self.markers = reader.markers
        #: Node table: node id -> CPU count.
        self.node_cpus = reader.node_cpus
        #: What decodes this file's records: profile and field-selection mask.
        self.profile = reader.profile
        self.field_mask = reader.field_mask
        #: The byte source (for fetch accounting).
        self.source = reader.source
        self.refresh_entries()

    def refresh_entries(self) -> None:
        """(Re-)snapshot the reader's frame directory.  A live reader's
        frame list only ever grows (monotonic epochs), so existing
        ordinals keep naming the same frames."""
        self._entries = self._reader.frame_entries()
        self.frames = [
            TraceFrame(
                i, e.offset, e.size, e.n_records, e.start_time, e.end_time,
                getattr(e, "n_pseudo", 0),
            )
            for i, e in enumerate(self._entries)
        ]

    # ------------------------------------------------------------------ API

    def read_frame(self, ordinal: int) -> list[IntervalRecord]:
        """Frame ``ordinal`` as record objects (cached by the reader)."""
        return self._reader.read_frame(self._entries[ordinal])

    def read_frame_batch(self, ordinal: int):
        """Frame ``ordinal`` as a columnar
        :class:`~repro.query.columnar.FrameBatch` (cached by the reader)."""
        return self._reader.read_frame_batch(self._entries[ordinal])

    def reference_frame(self, ordinal: int) -> list[IntervalRecord]:
        """Frame ``ordinal`` through the uncached reference decoder — for
        ``engine.reference_scan``, the oracle's ``decode_parity`` and tests."""
        return self._reader.reference_frame(self._entries[ordinal])

    def stats(self) -> dict[str, int]:
        """The reader's cache/IO accounting (shared shape)."""
        return self._reader.stats()

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "TraceHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def trace_kind(path: str | Path) -> str:
    """``"interval"`` or ``"slog"``, sniffed from the magic bytes."""
    kind = sniff_kind(path)
    if kind == "raw":
        raise FormatError(
            f"{path}: raw traces have no frame index; "
            "queries need an interval (.ute) or SLOG (.slog) file"
        )
    return kind


def open_reader(path: str | Path, profile=None, **kwargs):
    """Open an interval or SLOG file with its own reader; returns
    ``(reader, kind)``.  Interval files need a profile to decode records
    (``None`` selects the standard profile); SLOG files embed theirs, so
    ``profile`` is ignored.  ``kwargs`` (``errors``, ``cache_frames``) go
    to the reader."""
    kind = trace_kind(path)
    if kind == "interval":
        from repro.core.profilefmt import standard_profile
        from repro.core.reader import IntervalReader

        return IntervalReader(path, profile or standard_profile(), **kwargs), kind
    from repro.utils.slog import SlogFile

    return SlogFile(path, **kwargs), kind


def open_trace(
    path: str | Path,
    profile=None,
    *,
    errors: str = "strict",
    cache_frames: int | None = None,
) -> TraceHandle:
    """Open an interval or SLOG file as a :class:`TraceHandle`
    (see :func:`open_reader` for ``profile``)."""
    kwargs = {} if cache_frames is None else {"cache_frames": cache_frames}
    reader, kind = open_reader(path, profile, errors=errors, **kwargs)
    return TraceHandle(path, reader, kind)
