"""Live trace writers: append sealed frames, publish epochs atomically.

The writers stream end-time-ordered records into a live container
(:mod:`repro.live.container`): a
:class:`~repro.core.framebuilder.FrameBuilder` cuts them into frames,
sealed frames append to the ``data`` member, and :meth:`publish` makes
them visible —
flush + fsync the data, then atomically re-publish the ``index.uteidx``
sidecar and the ``epoch`` manifest.  A crash between those steps loses at
most the unpublished tail; the previous epoch stays intact under its
final name.

:class:`LiveSlogWriter` assembles a ``.slog`` at close,
:class:`LiveIntervalWriter` a framed ``.ute`` interval file; both keep the
container's frames one-to-one.

The preview published per epoch covers the sealed frames and cannot know
the final run length, so the counters live on a **doubling horizon**: bins
cover ``[0, horizon)`` and when a record ends past the horizon the bins
fold pairwise and the horizon doubles — constant memory, monotone
refinement, and the final horizon becomes the assembled file's preview
time range.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
from pathlib import Path

import numpy as np

from repro.core.atomicio import AtomicFile
from repro.core.framebuilder import FrameSink, SealedFrame
from repro.core.profilefmt import Profile
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError
from repro.live.container import (
    FLAVOR_INTERVAL,
    FLAVOR_SLOG,
    EpochManifest,
    data_path,
    index_path,
    live_dir_for,
    meta_path,
    write_manifest,
)
from repro.query.indexfile import IndexAccumulator, TraceIndex, index_path_for, write_index
from repro.utils.slog import (
    PreviewBins,
    SlogFrameEntry,
    assemble_slog,
    frame_entry,
    slog_metadata_bytes,
)


class _DoublingPreview(PreviewBins):
    """Preview counters over ``[0, t1)`` with ``t1`` a doubling horizon."""

    def __init__(self, bins: int) -> None:
        super().__init__(bins, 0, 1)

    def _add(self, itype: int, start: int, end: int) -> None:
        self._reach(end)
        super()._add(itype, start, end)

    def add_columns(self, itype: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
        """Rows in ascending end order (a frame's are), so the bins fold
        between exactly the rows they would fold between one by one."""
        at = 0
        while at < len(end):
            self._reach(int(end[at]))
            stop = max(int(np.searchsorted(end, self.t1, side="right")), at + 1)
            super().add_columns(itype[at:stop], start[at:stop], end[at:stop])
            at = stop

    def _reach(self, end: int) -> None:
        while self.t1 < end:
            # New bin b covers old bins 2b and 2b+1 (the latter lies past
            # the old horizon when the bin count is odd).
            half = (self.bins + 1) // 2
            for arr in self.counters.values():
                folded = arr[0::2].copy()
                folded[: self.bins // 2] += arr[1::2]
                arr[:half] = folded
                arr[half:] = 0.0
            self.t1 *= 2

    def snapshot(self) -> dict[int, np.ndarray]:
        return {itype: arr.copy() for itype, arr in self.counters.items()}


class _IncrementalIndex:
    """Maintains a ``.uteidx`` for the growing virtual file.

    Each sealed frame is accounted once, from its own records, through the
    same :class:`~repro.query.indexfile.IndexAccumulator` a batch build
    uses, so every snapshot — including the final one — is *identical* to
    what a post-hoc rebuild of the same bytes produces (docs/FORMAT.md
    sections 7-8).  A snapshot's utilization work is its epoch's: the
    :class:`~repro.query.utilization.UtilizationBuilder` merges the new
    rows into the aggregate it holds instead of re-sorting every row, and
    a snapshot with no frame sealed since the last one (the close-time
    publish) gets the last one's aggregates back without any work.
    """

    def __init__(self, meta: bytes) -> None:
        self.meta_size = len(meta)
        self._sha = hashlib.sha256(meta)
        self._size = len(meta)
        self._frames = IndexAccumulator()

    def add_frame(self, entry: SlogFrameEntry, batch, blob: bytes) -> None:
        """Account one sealed frame: ``entry`` carries the data-relative
        offset, ``batch`` the frame's records, ``blob`` the exact bytes
        appended to ``data``."""
        self._sha.update(blob)
        self._size += len(blob)
        self._frames.add_frame(
            batch, self.meta_size + entry.offset, entry.size,
            entry.n_records, entry.start_time, entry.end_time,
        )

    def snapshot(self) -> TraceIndex:
        return self._frames.index(self._size, self._sha.copy().digest())


class _LiveWriterBase(FrameSink):
    """Shared live-writer core: a sink that appends sealed frames to the
    ``data`` member, indexes them, and publishes epochs; subclasses pick
    the close-time flavor."""

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
    ) -> None:
        # SLOG frames carry continuation leads; interval files do not.
        super().__init__(
            path, profile, thread_table, markers=markers, node_cpus=node_cpus,
            field_mask=field_mask, frame_bytes=frame_bytes,
            ticks_per_sec=ticks_per_sec, continuations=self.flavor == FLAVOR_SLOG,
        )
        self.preview_bins = preview_bins
        self._preview = _DoublingPreview(preview_bins)
        self.live_dir = live_dir_for(self.path)
        if self.live_dir.exists():
            raise FormatError(f"live container already exists: {self.live_dir}")
        if self.path.exists():
            raise FormatError(f"refusing to go live over existing {self.path}")
        self.live_dir.mkdir(parents=True)
        self._data_fh = None
        try:
            # The once-written ``meta`` member: a SLOG metadata section with
            # an empty preview and a zero-frame index, so any reader of
            # ``meta + data[:published]`` starts from a valid SLOG parse and
            # the epoch manifest supplies the rest.
            self._meta = slog_metadata_bytes(self, (0, 1), {}, [])
            with AtomicFile(meta_path(self.live_dir)) as fh:
                fh.write(self._meta)
            self._data_fh = open(data_path(self.live_dir), "wb")
            self._index = _IncrementalIndex(self._meta)
            # Sealed-but-unpublished state: frame entries (data-relative
            # offsets) appended to the data file but absent from the epoch.
            self._sealed: list[SlogFrameEntry] = []
            self._data_size = 0
            self._seq = 0
            #: The index snapshot the last epoch published.
            self._published: TraceIndex | None = None
            self.epochs_published = 0
            # Epoch 0: zero frames, so readers can attach before data exists.
            self.publish()
        except BaseException:
            # Nobody holds a writer that failed to construct: close what it
            # opened and drop the container, so the path can be retried.
            self.abort()
            raise

    # ------------------------------------------------------------------ API

    @property
    def seq(self) -> int:
        """Sequence number of the last published epoch."""
        return self._seq - 1

    def seal_frame(self) -> None:
        """Close the open frame, however full, and append it to the data
        file (visible to readers only after the next :meth:`publish`)."""
        self._check_open()
        self._seal_open_frame()

    def flush_data(self) -> None:
        """Flush + fsync appended frame bytes *without* publishing an
        epoch — the mid-append state the crash tests freeze: durable data,
        invisible to every reader until the epoch names it."""
        self._check_open()
        self._hand_over()
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
            time_range=(0, self._preview.t1),
            preview_bins=self.preview_bins,
            preview=self._preview.snapshot(),
            frames=tuple(self._sealed),
        )
        self._published = self._index.snapshot()
        write_index(self._published, index_path(self.live_dir))
        write_manifest(self.live_dir, manifest)
        self._seq += 1
        self.epochs_published += 1
        return manifest.seq

    def close(self) -> Path:
        """Seal, publish a final epoch, assemble the finished file at the
        final name, drop the live directory.  Returns the final path.

        The writer counts as closed only once assembly succeeds: after a
        failed assembly (a full disk) ``close()`` may be retried — it runs
        assembly again over the final epoch it already published — or
        ``abort()`` drops the container."""
        if self._closed:
            return self.path
        if not self._data_fh.closed:  # closed: the final epoch is out
            self._seal_for_close()
            self.publish(final=True)
            self._data_fh.close()
        self._assemble()
        self._closed = True
        shutil.rmtree(self.live_dir, ignore_errors=True)
        return self.path

    def abort(self) -> None:
        """Drop the container without producing a final file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._data_fh is not None:
            self._data_fh.close()
        shutil.rmtree(self.live_dir, ignore_errors=True)

    # ------------------------------------------------------------ internals

    def _sink(self, frame: SealedFrame) -> None:
        self._preview.add_frame(frame)
        entry = frame_entry(frame, self._data_size)
        self._data_fh.write(frame.blob)
        self._data_size += entry.size
        self._index.add_frame(entry, frame.batch, frame.blob)
        self._sealed.append(entry)

    def _assemble(self) -> None:
        raise NotImplementedError


class LiveSlogWriter(_LiveWriterBase):
    """Live writer whose close assembles a SLOG file: the final metadata
    (full preview and frame index) followed by the ``data`` member as is,
    so every frame — continuation leads included, cut exactly as the batch
    ``slog_from_interval_file`` cuts them — carries over one-to-one."""

    flavor = FLAVOR_SLOG

    def _assemble(self) -> None:
        meta = slog_metadata_bytes(
            self, (0, self._preview.t1), self._preview.counters, self._sealed
        )
        digest = hashlib.sha256()
        assemble_slog(self.path, meta, data_path(self.live_dir), digest)
        # The index the final epoch just published carries over (no frame
        # sealed since): same frames and postings, offsets rebased past the
        # final (larger) metadata section.
        live = self._published
        delta = len(meta) - len(self._meta)
        final = dataclasses.replace(
            live,
            source_size=len(meta) + self._data_size,
            source_sha256=digest.digest(),
            frames=[dataclasses.replace(f, offset=f.offset + delta) for f in live.frames],
        )
        write_index(final, index_path_for(self.path))


class LiveIntervalWriter(_LiveWriterBase):
    """Live writer whose close assembles a framed ``.ute`` interval file:
    each sealed frame's stored bytes go to an
    :class:`~repro.core.writer.IntervalFileWriter` as they are, so the
    finished file's frames are the live container's, one-to-one."""

    flavor = FLAVOR_INTERVAL

    def _assemble(self) -> None:
        from repro.core.writer import IntervalFileWriter

        with IntervalFileWriter(
            self.path, self.profile, self.thread_table, markers=self.markers,
            node_cpus=self.node_cpus, field_mask=self.field_mask,
            frame_bytes=self.frame_bytes, ticks_per_sec=self.ticks_per_sec,
        ) as writer, open(data_path(self.live_dir), "rb") as src:
            for f in self._sealed:
                writer.add_frame(
                    SealedFrame(
                        src.read(f.size), f.n_records, f.n_pseudo, f.start_time, f.end_time
                    )
                )
