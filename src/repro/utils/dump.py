"""Textual dumps of trace artifacts (the debugging workhorse).

``ute-dump`` prints raw trace files, interval files, or SLOG files as
human-readable text — one line per record, with all fields named through
the description profile.  The interval-file path demonstrates the
self-defining format's promise: the dumper has no per-type code at all; it
learns every record layout from the profile.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.core.magic import sniff_kind
from repro.core.profilefmt import Profile
from repro.core.reader import IntervalReader
from repro.core.records import IntervalRecord
from repro.core.windows import overlaps_window, window_to_ticks
from repro.errors import FormatError
from repro.tracing.rawfile import RawTraceReader


def dump_raw(path: str | Path, *, limit: int | None = None) -> Iterator[str]:
    """Lines describing a raw trace file."""
    reader = RawTraceReader(path)
    header = reader.header
    yield (
        f"# raw trace node={header.node_id} cpus={header.n_cpus} "
        f"base_local_ts={header.base_local_ts}"
    )
    for i, event in enumerate(reader):
        if limit is not None and i >= limit:
            yield f"# ... truncated at {limit} events"
            return
        args = " ".join(str(a) for a in event.args)
        text = f" {event.text!r}" if event.text else ""
        yield (
            f"{event.local_ts:>14} {event.name:<24} tid={event.system_tid} "
            f"cpu={event.cpu}{(' args=' + args) if args else ''}{text}"
        )


def format_record(record: IntervalRecord, profile: Profile) -> str:
    """One interval record as a labeled text line."""
    try:
        name = profile.record_name(record.itype)
    except FormatError:
        name = f"type{record.itype}"
    extras = " ".join(f"{k}={v}" for k, v in sorted(record.extra.items()))
    return (
        f"{record.start:>14} +{record.duration:<10} {name:<16} "
        f"[{record.bebits.name.lower():<12}] n{record.node} cpu{record.cpu} "
        f"t{record.thread}{(' ' + extras) if extras else ''}"
    )


def _select_frames(frames, frame: int | None, window_ticks, path) -> list:
    """The frame entries a seek-limited dump decodes — chosen from the
    frame directory alone, before any record bytes are touched."""
    frames = list(frames)
    if frame is not None:
        if not 0 <= frame < len(frames):
            raise FormatError(
                f"{path}: frame {frame} out of range 0..{len(frames) - 1}"
            )
        frames = [frames[frame]]
    if window_ticks is not None:
        t0, t1 = window_ticks
        frames = [
            f for f in frames if overlaps_window(f.start_time, f.end_time, t0, t1)
        ]
    return frames


def _in_window(record: IntervalRecord, window_ticks) -> bool:
    if window_ticks is None:
        return True
    t0, t1 = window_ticks
    return overlaps_window(record.start, record.end, t0, t1)


def selected_records(
    reader, frame: int | None, window, path
) -> tuple[int, Iterator[IntervalRecord]]:
    """The dump path's own selection over an open interval or SLOG reader:
    (number of frames chosen through the directory, the records of those
    frames that overlap ``window``).  ``ute-oracle`` compares exactly this
    against the query engine."""
    ticks = None if window is None else window_to_ticks(window, reader.ticks_per_sec)
    frames = _select_frames(reader.frame_entries(), frame, ticks, path)

    def records() -> Iterator[IntervalRecord]:
        for entry in frames:
            for record in reader.read_frame(entry):
                if _in_window(record, ticks):
                    yield record

    return len(frames), records()


def _record_lines(reader, profile, path, limit, frame, window) -> Iterator[str]:
    """The record part of an interval or SLOG dump."""
    n_frames, records = selected_records(reader, frame, window, path)
    if frame is not None or window is not None:
        yield f"# selection: {n_frames} frame(s)"
    for emitted, record in enumerate(records):
        if limit is not None and emitted >= limit:
            yield f"# ... truncated at {limit} records"
            return
        yield format_record(record, profile)


def dump_interval(
    path: str | Path,
    profile: Profile,
    *,
    limit: int | None = None,
    frame: int | None = None,
    window: tuple[float | None, float | None] | None = None,
) -> Iterator[str]:
    """Lines describing an interval file: header, tables, then records.

    ``frame`` restricts the dump to one frame by ordinal; ``window`` (in
    seconds) to the frames overlapping a time range — both seek via the
    frame directory, decoding only the selected frames.
    """
    reader = IntervalReader(path, profile)
    header = reader.header
    count, first, last = reader.totals()
    yield (
        f"# interval file profile={header.profile_version:#010x} "
        f"mask={header.field_mask:#x} records={count} "
        f"span=[{first}, {last}] ticks"
    )
    yield f"# threads ({len(reader.thread_table)}):"
    for entry in reader.thread_table:
        yield (
            f"#   n{entry.node} ltid={entry.logical_tid} task={entry.mpi_task} "
            f"pid={entry.pid} stid={entry.system_tid} "
            f"type={entry.thread_type} {entry.name!r}"
        )
    if reader.markers:
        yield f"# markers ({len(reader.markers)}):"
        for marker_id, text in sorted(reader.markers.items()):
            yield f"#   {marker_id} = {text!r}"
    if reader.node_cpus:
        yield f"# nodes: " + ", ".join(
            f"n{n}:{c}cpus" for n, c in sorted(reader.node_cpus.items())
        )
    yield from _record_lines(reader, profile, path, limit, frame, window)


def dump_slog(
    path: str | Path,
    *,
    limit: int | None = None,
    frame: int | None = None,
    window: tuple[float | None, float | None] | None = None,
) -> Iterator[str]:
    """Lines describing a SLOG file: frame index, preview summary, records.

    ``frame`` / ``window`` seek via the flat frame index, like
    :func:`dump_interval` does via the frame directory.
    """
    from repro.utils.slog import SlogFile

    slog = SlogFile(path)
    yield (
        f"# SLOG frames={len(slog.frames)} threads={len(slog.thread_table)} "
        f"time_range={slog.time_range} bins={slog.preview_bins}"
    )
    for i, entry in enumerate(slog.frames):
        yield (
            f"# frame {i}: [{entry.start_time}, {entry.end_time}] "
            f"{entry.n_records} records ({entry.n_pseudo} pseudo) "
            f"@{entry.offset}+{entry.size}"
        )
    yield from _record_lines(slog, slog.profile, path, limit, frame, window)


def dump_any(
    path: str | Path,
    profile: Profile,
    *,
    limit: int | None = None,
    frame: int | None = None,
    window: tuple[float | None, float | None] | None = None,
) -> Iterator[str]:
    """Dispatch on the file's magic bytes."""
    kind = sniff_kind(path)
    if kind == "raw":
        if frame is not None or window is not None:
            raise FormatError(
                f"{path}: raw trace files have no frame directory; "
                "--frame/--window need an interval or SLOG file"
            )
        yield from dump_raw(path, limit=limit)
    elif kind == "interval":
        yield from dump_interval(
            path, profile, limit=limit, frame=frame, window=window
        )
    else:
        yield from dump_slog(path, limit=limit, frame=frame, window=window)
