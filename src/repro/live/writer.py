"""Live trace writers: append sealed frames, publish epochs atomically.

The writers stream end-time-ordered records into a live container
(:mod:`repro.live.container`): records buffer into frames, sealed frames
append to the ``data`` member, and :meth:`publish` makes them visible —
flush + fsync the data, then atomically re-publish the ``index.uteidx``
sidecar and the ``epoch`` manifest.  A crash between those steps loses at
most the unpublished tail; the previous epoch stays intact under its
final name.

:class:`LiveSlogWriter` assembles a ``.slog`` at close (pseudo-interval
continuation records injected at frame starts exactly like the batch
:func:`~repro.utils.slog.slog_from_interval_file` path, so the live and
batch products are divergence-free); :class:`LiveIntervalWriter`
re-emits the records as a framed ``.ute`` interval file.

The preview published per epoch cannot know the final run length, so the
counters live on a **doubling horizon**: bins cover ``[0, horizon)`` and
when a record ends past the horizon the bins fold pairwise and the
horizon doubles — constant memory, monotone refinement, and the final
horizon becomes the assembled file's preview time range.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

from repro.core.atomicio import AtomicFile
from repro.core.profilefmt import Profile
from repro.core.records import IntervalRecord
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError
from repro.live.container import (
    FLAVOR_INTERVAL,
    FLAVOR_SLOG,
    EpochManifest,
    data_path,
    encode_live_meta,
    index_path,
    live_dir_for,
    meta_path,
    write_manifest,
)
from repro.query.columnar import batch_from_records
from repro.query.indexfile import (
    DEFAULT_TIME_BINS,
    IndexAccumulator,
    TraceIndex,
    index_path_for,
    write_index,
)
from repro.utils.slog import SlogFrameEntry, slog_metadata_bytes


class _DoublingPreview:
    """Per-state preview counters over a doubling time horizon."""

    def __init__(self, bins: int) -> None:
        self.bins = bins
        self.horizon = 1
        self.counters: dict[int, np.ndarray] = {}

    def _grow_to(self, t: int) -> None:
        while self.horizon < t:
            for arr in self.counters.values():
                folded = arr[0::2] + arr[1::2]
                arr[: self.bins // 2] = folded[: self.bins // 2]
                arr[self.bins // 2 :] = 0.0
            self.horizon *= 2

    def add(self, record: IntervalRecord) -> None:
        if record.end > self.horizon:
            self._grow_to(record.end)
        arr = self.counters.get(record.itype)
        if arr is None:
            arr = np.zeros(self.bins, dtype=np.float64)
            self.counters[record.itype] = arr
        width = self.horizon / self.bins
        lo = max(record.start, 0)
        hi = min(record.end, self.horizon)
        if hi <= lo:
            return
        first = int(lo / width)
        last = min(int(hi / width), self.bins - 1)
        for b in range(first, last + 1):
            bin_lo = b * width
            arr[b] += max(0.0, min(hi, bin_lo + width) - max(lo, bin_lo))

    def snapshot(self) -> dict[int, np.ndarray]:
        return {itype: arr.copy() for itype, arr in self.counters.items()}


class _IncrementalIndex:
    """Maintains a ``.uteidx`` for the growing virtual file.

    Each sealed frame is accounted once, from its own records, through the
    same :class:`~repro.query.indexfile.IndexAccumulator` a batch build
    uses, so every snapshot — including the final one — is *identical* to
    what a post-hoc rebuild of the same bytes produces (docs/FORMAT.md
    sections 7-8).
    """

    def __init__(self, meta: bytes, *, n_bins: int = DEFAULT_TIME_BINS) -> None:
        self.meta_size = len(meta)
        self._sha = hashlib.sha256(meta)
        self._size = len(meta)
        self._frames = IndexAccumulator(n_bins)

    def add_frame(
        self, entry: SlogFrameEntry, records: list[IntervalRecord], blob: bytes
    ) -> None:
        """Account one sealed frame: ``entry`` carries the data-relative
        offset, ``blob`` the exact bytes appended to ``data``."""
        self._sha.update(blob)
        self._size += len(blob)
        self._frames.add_frame(
            batch_from_records(records), self.meta_size + entry.offset, entry.size,
            entry.n_records, entry.start_time, entry.end_time,
        )

    def snapshot(self) -> TraceIndex:
        return self._frames.index(self._size, self._sha.copy().digest())


class _LiveWriterBase:
    """Shared live-writer core; subclasses pick the close-time flavor."""

    flavor = FLAVOR_SLOG

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
        preview_bins: int = 50,
        ticks_per_sec: float = 1e9,
        auto_pseudo: bool | None = None,
        index_bins: int = DEFAULT_TIME_BINS,
    ) -> None:
        from repro.utils.merge import _OpenStateTracker

        self.path = Path(path)
        self.profile = profile
        self.thread_table = thread_table
        self.markers = dict(markers or {})
        self.node_cpus = dict(node_cpus or {})
        self.field_mask = field_mask
        self.frame_bytes = frame_bytes
        self.preview_bins = preview_bins
        self.ticks_per_sec = ticks_per_sec
        if auto_pseudo is None:
            auto_pseudo = self.flavor == FLAVOR_SLOG
        self._tracker = _OpenStateTracker() if auto_pseudo else None
        self.live_dir = live_dir_for(self.path)
        if self.live_dir.exists():
            raise FormatError(f"live container already exists: {self.live_dir}")
        if self.path.exists():
            raise FormatError(f"refusing to go live over existing {self.path}")
        self.live_dir.mkdir(parents=True)
        self._meta = encode_live_meta(
            profile, thread_table, markers=self.markers, node_cpus=self.node_cpus,
            field_mask=field_mask, ticks_per_sec=ticks_per_sec,
            preview_bins=preview_bins,
        )
        with AtomicFile(meta_path(self.live_dir)) as fh:
            fh.write(self._meta)
        self._data_fh = open(data_path(self.live_dir), "wb")
        self._preview = _DoublingPreview(preview_bins)
        self._index = _IncrementalIndex(self._meta, n_bins=index_bins)
        # Sealed-but-unpublished state: frame entries (data-relative
        # offsets) appended to the data file but absent from the epoch.
        self._sealed: list[SlogFrameEntry] = []
        self._data_size = 0
        self._seq = 0
        # The open frame.
        self._buf = bytearray()
        self._buf_records: list[IntervalRecord] = []
        self._buf_pseudo = 0
        self._buf_start: int | None = None
        self._buf_end = 0
        self._last_end: int | None = None
        self._started = False
        self.records_written = 0
        self.frames_sealed = 0
        self.epochs_published = 0
        self._closed = False
        # Epoch 0: zero frames, so readers can attach before data exists.
        self.publish()

    # ------------------------------------------------------------------ API

    @property
    def seq(self) -> int:
        """Sequence number of the last published epoch."""
        return self._seq - 1

    def write(self, record: IntervalRecord, *, pseudo: bool = False) -> None:
        """Append one record (ascending end-time order enforced)."""
        if self._closed:
            raise FormatError("live writer already closed")
        if self._last_end is not None and record.end < self._last_end:
            raise FormatError(
                f"records out of order: end {record.end} after {self._last_end}"
            )
        if (
            not pseudo
            and self._tracker is not None
            and self._started
            and not self._buf_records
        ):
            for cont in self._tracker.pseudo_records(self._last_end or 0):
                self._append(cont, pseudo=True)
        self._append(record, pseudo=pseudo)
        if not pseudo and self._tracker is not None:
            self._tracker.observe(record)
        self._last_end = record.end
        self._started = True
        if len(self._buf) >= self.frame_bytes:
            self.seal_frame()

    def seal_frame(self) -> None:
        """Close the open frame and append it to the data file (visible to
        readers only after the next :meth:`publish`)."""
        if not self._buf_records:
            return
        assert self._buf_start is not None
        blob = bytes(self._buf)
        entry = SlogFrameEntry(
            self._buf_start, self._buf_end, self._data_size, len(blob),
            len(self._buf_records), self._buf_pseudo,
        )
        self._data_fh.write(blob)
        self._data_size += len(blob)
        self._index.add_frame(entry, self._buf_records, blob)
        self._sealed.append(entry)
        self.frames_sealed += 1
        self._buf = bytearray()
        self._buf_records = []
        self._buf_pseudo = 0
        self._buf_start = None
        self._buf_end = 0

    def flush_data(self) -> None:
        """Flush + fsync appended frame bytes *without* publishing an
        epoch — the mid-append state the crash tests freeze: durable data,
        invisible to every reader until the epoch names it."""
        self._data_fh.flush()
        os.fsync(self._data_fh.fileno())

    def publish(self, *, seal: bool = False, final: bool = False) -> int:
        """Make everything sealed so far visible: fsync data, re-publish
        the sidecar index, then atomically re-publish the epoch.  Returns
        the published sequence number."""
        if seal:
            self.seal_frame()
        self.flush_data()
        manifest = EpochManifest(
            seq=self._seq,
            meta_size=len(self._meta),
            data_size=self._data_size,
            flavor=self.flavor,
            finalized=final,
            time_range=(0, self._preview.horizon),
            preview_bins=self.preview_bins,
            preview=self._preview.snapshot(),
            frames=tuple(self._sealed),
        )
        write_index(self._index.snapshot(), index_path(self.live_dir))
        write_manifest(self.live_dir, manifest)
        self._seq += 1
        self.epochs_published += 1
        return manifest.seq

    def close(self) -> Path:
        """Seal, publish a final epoch, assemble the finished file at the
        final name, drop the live directory.  Returns the final path."""
        if self._closed:
            return self.path
        self.publish(seal=True, final=True)
        self._data_fh.close()
        try:
            self._assemble()
        finally:
            self._closed = True
        shutil.rmtree(self.live_dir, ignore_errors=True)
        return self.path

    def abort(self) -> None:
        """Drop the container without producing a final file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._data_fh.close()
        shutil.rmtree(self.live_dir, ignore_errors=True)

    def __enter__(self) -> "_LiveWriterBase":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()

    # ------------------------------------------------------------ internals

    def _append(self, record: IntervalRecord, *, pseudo: bool) -> None:
        if not pseudo:
            self._preview.add(record)
        self._buf += record.encode(self.profile, self.field_mask)
        self._buf_records.append(record)
        self._buf_pseudo += int(pseudo)
        self._buf_start = (
            record.start if self._buf_start is None
            else min(self._buf_start, record.start)
        )
        self._buf_end = max(self._buf_end, record.end)
        self.records_written += 1

    def _frame_tuples(self) -> list[tuple[int, int, int, int, int]]:
        return [
            (f.start_time, f.end_time, f.size, f.n_records, f.n_pseudo)
            for f in self._sealed
        ]

    def _assemble(self) -> None:
        raise NotImplementedError


class LiveSlogWriter(_LiveWriterBase):
    """Live writer whose close assembles a SLOG file.

    ``auto_pseudo`` (default on) injects continuation pseudo-records at
    frame starts from an open-state tracker, matching the batch
    ``slog_from_interval_file`` construction."""

    flavor = FLAVOR_SLOG

    def _assemble(self) -> None:
        meta = slog_metadata_bytes(
            self.profile, self.thread_table, markers=self.markers,
            node_cpus=self.node_cpus, field_mask=self.field_mask,
            ticks_per_sec=self.ticks_per_sec,
            time_range=(0, max(self._preview.horizon, 1)),
            preview_bins=self.preview_bins,
            counters=self._preview.counters,
            frames=self._frame_tuples(),
        )
        digest = hashlib.sha256(meta)
        with AtomicFile(self.path) as out:
            out.write(meta)
            with open(data_path(self.live_dir), "rb") as src:
                while block := src.read(1 << 20):
                    digest.update(block)
                    out.write(block)
        # The incremental index carries over: same frames and postings,
        # offsets rebased past the final (larger) metadata section.
        live = self._index.snapshot()
        delta = len(meta) - len(self._meta)
        final = dataclasses.replace(
            live,
            source_size=len(meta) + self._data_size,
            source_sha256=digest.digest(),
            frames=[dataclasses.replace(f, offset=f.offset + delta) for f in live.frames],
        )
        write_index(final, index_path_for(self.path))


class LiveIntervalWriter(_LiveWriterBase):
    """Live writer whose close assembles a framed ``.ute`` interval file.

    ``auto_pseudo`` defaults off — interval files carry no pseudo-interval
    records; when enabled, the injected records still serve live readers
    and are stripped during assembly (each frame's leading ``n_pseudo``)."""

    flavor = FLAVOR_INTERVAL

    def _assemble(self) -> None:
        from repro.core.writer import IntervalFileWriter

        writer = IntervalFileWriter(
            self.path, self.profile, self.thread_table, markers=self.markers,
            node_cpus=self.node_cpus, field_mask=self.field_mask,
            frame_bytes=self.frame_bytes, ticks_per_sec=self.ticks_per_sec,
        )
        try:
            with open(data_path(self.live_dir), "rb") as src:
                for entry in self._sealed:
                    blob = src.read(entry.size)
                    pos = 0
                    for i in range(entry.n_records):
                        record, pos = IntervalRecord.decode(
                            blob, pos, self.profile, self.field_mask
                        )
                        if i >= entry.n_pseudo:
                            writer.write(record)
        except BaseException:
            writer.abort()
            raise
        writer.close()
