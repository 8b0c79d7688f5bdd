"""The merge utility (paper sections 3.1 and 3.3).

Merges per-node interval files into a single merged interval file:

1. **Alignment** — each file's first global-clock record fixes its starting
   point on the global time axis.
2. **Drift adjustment** — the file's clock-pair sequence yields the
   global-to-local ratio (RMS of slope segments by default); every record's
   start and duration are rescaled.  The original local start survives in
   the merged file's ``localStart`` field (present only under the merged
   field-selection mask — the profile mechanism built for exactly this).
3. **K-way merge** — by columns, a frame at a time: each input holds one
   decoded frame batch (clock-adjusted, clock pairs removed); everything
   strictly below the smallest "last loaded end" among the inputs still
   being read is emitted in ``(adjusted end, file index, record ordinal)``
   order, that input is refilled, and so on — the total order a heap over
   the next record of each file yields, with memory O(inputs x frame).
4. **Pseudo-intervals** — one :class:`~repro.core.framebuilder.FrameBuilder`
   cuts the merged stream into frames, each new one led by zero-duration
   continuation records for every state open at that point, so a tool that
   jumps into the middle of the file still sees the enclosing nested states.

Each sealed frame goes to the interval file and, when asked for, to a SLOG
file for Jumpshot — the same bytes, built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.clocksync.adjust import (
    ClockAdjustment,
    PiecewiseAdjustment,
    adjustment_from_pairs,
)
from repro.clocksync.ratio import ClockPair
from repro.core.fields import MASK_ALL_MERGED
from repro.core.framebuilder import FrameBuilder
from repro.core.profilefmt import Profile
from repro.core.reader import IntervalReader
from repro.core.records import IntervalType
from repro.core.threadtable import ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.errors import MergeError
from repro.query.columnar import FrameBatch, concat_batches


@dataclass
class MergeResult:
    """Outcome of a merge."""

    merged_path: Path
    slog_path: Path | None
    records_out: int
    pseudo_records: int
    files_in: int
    adjustments: list[ClockAdjustment | PiecewiseAdjustment]


def collect_clock_pairs(reader: IntervalReader) -> list[ClockPair]:
    """The (global, local) pairs a convert pass embedded as GlobalClock
    records."""
    pairs = []
    for frame in reader.frames():
        batch = reader.read_frame_batch(frame)
        clocks = batch.where(batch.itype == IntervalType.CLOCKPAIR)
        if clocks.n:
            pairs.extend(
                ClockPair(global_ts=global_ts, local_ts=local_ts)
                for global_ts, local_ts in zip(
                    clocks.extra_column("globalTs"), clocks.start.tolist()
                )
            )
    return pairs


def _build_adjustment(pairs: list[ClockPair], mode: str):
    if len(pairs) >= 2:
        return adjustment_from_pairs(pairs, mode)
    if len(pairs) == 1:
        # Offset-only alignment: not enough data to estimate drift.
        return ClockAdjustment(pairs[0].global_ts, pairs[0].local_ts, 1.0)
    return ClockAdjustment(0, 0, 1.0)


class _Input:
    """One input file's rows on the way into the merge: clock-adjusted,
    clock pairs removed, restricted to the logical thread ids in ``keep``
    (None keeps all).  ``held`` is what has been read and not yet merged —
    the tail of one frame, or that plus the next frame."""

    def __init__(self, path: Path, reader: IntervalReader, adjustment,
                 keep: set[int] | None) -> None:
        self.path = path
        self.reader = reader
        self.adjustment = adjustment
        self.keep = None if keep is None else np.fromiter(keep, np.int64, count=len(keep))
        self.frames = iter(reader.frames())
        self.held: FrameBatch | None = None
        self.last_end = 0
        self.exhausted = False

    def refill(self) -> None:
        """Hold the next frame that has rows to merge as well."""
        for frame in self.frames:
            batch = self.reader.read_frame_batch(frame)
            wanted = batch.itype != IntervalType.CLOCKPAIR
            if self.keep is not None:
                wanted &= np.isin(batch.thread, self.keep)
            batch = batch.where(wanted)
            if not batch.n:
                continue
            # Anchor the duration at the adjusted end rather than rounding
            # R * D independently: adjusted end times then inherit the
            # input's end-time ordering exactly (independent rounding can
            # flip the order of records whose ends differ by a tick).
            adjusted = batch.retimed(
                self.adjustment.adjust_array(batch.start),
                self.adjustment.adjust_array(batch.end),
            )
            adjusted.add_column("localStart", batch.start)
            if (np.diff(adjusted.end, prepend=self.last_end) < 0).any():
                raise MergeError(
                    f"{self.path}: records out of end-time order after adjustment"
                )
            self.last_end = int(adjusted.end[-1])
            self.held = (
                adjusted if self.held is None else concat_batches([self.held, adjusted])
            )
            return
        self.exhausted = True


def _merged_batches(inputs: list[_Input]) -> Iterator[FrameBatch]:
    """The inputs' rows in ``(adjusted end, file index, record ordinal)``
    order, in batches.

    A row can be emitted once no input can still produce a smaller key:
    every row an input has yet to load ends at or after the last end it
    loaded, so everything strictly below the smallest such end is final.
    Held rows are joined in file order, each file's in record order, so a
    stable sort on the end column alone breaks ties by file index, then
    ordinal."""
    for source in inputs:
        source.refill()
    while True:
        reading = [source for source in inputs if not source.exhausted]
        lowest = min(reading, key=lambda source: source.last_end, default=None)
        ready = []
        for source in inputs:
            held = source.held
            if held is None:
                continue
            stop = held.n if lowest is None else int(
                np.searchsorted(held.end, lowest.last_end, side="left")
            )
            if stop == held.n:
                ready.append(held)
                source.held = None
            elif stop:
                ready.append(held.rows(0, stop))
                source.held = held.rows(stop, held.n)
        if ready:
            batch = concat_batches(ready)
            yield batch.take(np.argsort(batch.end, kind="stable"))
        if lowest is None:
            return
        lowest.refill()


def merge_interval_files(
    paths: Iterable[str | Path],
    out_path: str | Path,
    profile: Profile,
    *,
    sync_mode: str = "rms_segment",
    frame_bytes: int = 32 * 1024,
    frames_per_dir: int = 8,
    slog_path: str | Path | None = None,
    preview_bins: int = 50,
    thread_types: set[int] | None = None,
) -> MergeResult:
    """Merge per-node interval files into one; optionally emit SLOG too.

    ``thread_types`` restricts merging to specific thread categories (the
    thread-table partitioning's purpose: "a way to choose specific threads
    for merging"); None merges everything.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise MergeError("nothing to merge")
    seen: set[Path] = set()
    for p in paths:
        resolved = p.resolve()
        if resolved in seen:
            raise MergeError(f"duplicate input file: {p}")
        seen.add(resolved)
    readers = [IntervalReader(p, profile) for p in paths]

    # Pass 1: clock pairs, adjustments, merged tables, global time range.
    adjustments = []
    merged_table = ThreadTable()
    merged_markers: dict[int, str] = {}
    merged_nodes: dict[int, int] = {}
    selected: list[set[int] | None] = []
    for reader in readers:
        for node, cpus in reader.node_cpus.items():
            merged_nodes[node] = max(merged_nodes.get(node, 0), cpus)
        adjustments.append(_build_adjustment(collect_clock_pairs(reader), sync_mode))
        keep: set[int] | None = None
        if thread_types is not None:
            keep = {
                e.logical_tid
                for e in reader.thread_table
                if e.thread_type in thread_types
            }
        selected.append(keep)
        for entry in reader.thread_table:
            if keep is None or entry.logical_tid in keep:
                merged_table.add(entry)
        for marker_id, text in reader.markers.items():
            existing = merged_markers.get(marker_id)
            if existing is not None and existing != text:
                raise MergeError(
                    f"marker id {marker_id} maps to both {existing!r} and {text!r}; "
                    "inputs were not converted together"
                )
            merged_markers[marker_id] = text

    inputs = [
        _Input(path, reader, adjustment, keep)
        for path, reader, adjustment, keep in zip(paths, readers, adjustments, selected)
    ]

    slog_writer = None
    if slog_path is not None:
        from repro.utils.slog import SlogWriter

        # Global time range for the preview bins, from directory totals.
        t_end = 0
        for reader, adjustment in zip(readers, adjustments):
            _, _, local_last = reader.totals()
            t_end = max(t_end, adjustment.adjust(local_last))
        slog_writer = SlogWriter(
            slog_path,
            profile,
            merged_table,
            markers=merged_markers,
            node_cpus=merged_nodes,
            field_mask=MASK_ALL_MERGED,
            frame_bytes=frame_bytes,
            time_range=(0, max(t_end, 1)),
            preview_bins=preview_bins,
        )

    # Pass 2: one builder cuts the k-way merged stream into frames; every
    # sealed frame goes to both outputs.
    builder = FrameBuilder(profile, MASK_ALL_MERGED, frame_bytes, continuations=True)
    pseudo_count = 0
    records_out = 0
    try:
        with IntervalFileWriter(
            out_path,
            profile,
            merged_table,
            markers=merged_markers,
            node_cpus=merged_nodes,
            field_mask=MASK_ALL_MERGED,
            frame_bytes=frame_bytes,
            frames_per_dir=frames_per_dir,
        ) as writer:
            for frame in builder.batch_frames(_merged_batches(inputs)):
                pseudo_count += frame.n_pseudo
                records_out += frame.n_records - frame.n_pseudo
                writer.add_frame(frame)
                if slog_writer is not None:
                    slog_writer.add_frame(frame)
    except BaseException:
        # The interval writer's context already aborted itself; the SLOG
        # writer is not context-managed here, so discard it explicitly —
        # a failed merge must leave neither output half-written.
        if slog_writer is not None:
            slog_writer.abort()
        raise

    for reader in readers:
        reader.close()
    final_slog = None
    if slog_writer is not None:
        final_slog = slog_writer.close()
    return MergeResult(
        merged_path=Path(out_path),
        slog_path=final_slog,
        records_out=records_out,
        pseudo_records=pseudo_count,
        files_in=len(paths),
        adjustments=adjustments,
    )
