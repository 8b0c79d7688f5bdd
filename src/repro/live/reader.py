"""Live trace readers: epoch-bounded views and the follow loop.

:class:`LiveReader` presents a live container as a perfectly ordinary
:class:`~repro.utils.slog.SlogFile`: its byte source concatenates the
once-written ``meta`` member with the ``data`` member *clamped to the
last published epoch's* ``data_size``.  Bytes past the clamp — a frame
mid-append, a torn tail after a crash — do not exist as far as any
decode, salvage scan, or cache is concerned, which is the whole salvage
story for live traces: a strict reader sees exactly the previous epoch,
and ``errors="salvage"`` finds nothing to repair.

:meth:`LiveReader.refresh` re-reads the epoch and *extends* the view —
the old frame list must be a prefix of the new one (enforced), cached
frames keyed by ``(offset, size)`` stay valid, and the clamp only grows.
That is the monotonic-read guarantee: a follower can never observe a
frame disappearing or shrinking.

:class:`FollowReader` is the one live→final state machine on top, behind
``ute-tail`` and every served dataset: it pins the newest epoch, survives
losing the open to finalization, switches to the assembled file (never a
shorter one) without dropping or repeating a record, and holds both
sidecar freshness rules (:meth:`~FollowReader.fresh_index`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.bytesource import ByteSource
from repro.core.reader import DEFAULT_FRAME_CACHE
from repro.core.records import IntervalRecord
from repro.errors import FormatError
from repro.live.container import (
    EpochManifest,
    data_path,
    epoch_path,
    has_live_container,
    index_path,
    live_dir_for,
    meta_path,
    read_manifest,
)
from repro.query.indexfile import TraceIndex, load_fresh_index, load_index
from repro.query.trace import TraceHandle, open_reader
from repro.utils.slog import SlogFile


class _LiveByteSource(ByteSource):
    """``meta`` bytes followed by the ``data`` file, clamped at the
    published extent.  The clamp only ever grows (:meth:`set_limit`), so
    every byte once visible stays visible at the same offset."""

    def __init__(self, meta: bytes, data: str | Path) -> None:
        super().__init__()
        self._meta = meta
        self._path = Path(data)
        self._fd: int | None = os.open(self._path, os.O_RDONLY)
        self._limit = len(meta)

    def set_limit(self, total: int) -> None:
        if total < self._limit:
            raise FormatError(
                f"live view shrank: {total} < {self._limit} (epoch regression)"
            )
        self._limit = total

    def __len__(self) -> int:
        return self._limit

    def _read_range(self, offset: int, size: int) -> bytes:
        if self._fd is None:
            raise FormatError(f"{self._path}: byte source closed")
        parts = []
        meta_len = len(self._meta)
        if offset < meta_len:
            take = min(size, meta_len - offset)
            parts.append(self._meta[offset : offset + take])
            offset += take
            size -= take
        if size > 0:
            parts.append(os.pread(self._fd, size, offset - meta_len))
        return b"".join(parts)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


class LiveReader(SlogFile):
    """A SLOG view over a live container, bounded by the published epoch.

    Opens the *final* path (``run.slog``); the sibling ``run.slog.live/``
    container supplies the bytes.  All of :class:`SlogFile`'s surface —
    frame reads, caches, salvage probes, preview — works unchanged; only
    :meth:`refresh` is new."""

    def __init__(
        self,
        path: str | Path,
        *,
        cache_frames: int = DEFAULT_FRAME_CACHE,
        errors: str = "strict",
    ) -> None:
        live_dir = live_dir_for(path)
        manifest = read_manifest(live_dir)
        meta = meta_path(live_dir).read_bytes()
        if len(meta) != manifest.meta_size:
            raise FormatError(
                f"{live_dir}: meta is {len(meta)} bytes, epoch says "
                f"{manifest.meta_size}"
            )
        source = _LiveByteSource(meta, data_path(live_dir))
        try:
            source.set_limit(manifest.meta_size + manifest.data_size)
            super().__init__(path, source=source, cache_frames=cache_frames, errors=errors)
            self.live_dir = live_dir
            self._live_source = source
            self._apply(manifest)
        except BaseException:
            source.close()  # SlogFile leaves an injected source open
            raise

    # ------------------------------------------------------------------ API

    @property
    def seq(self) -> int:
        """Sequence number of the epoch this view is pinned to."""
        return self.manifest.seq

    @property
    def finalized(self) -> bool:
        """Whether the pinned epoch is the writer's last."""
        return self.manifest.finalized

    def container_exists(self) -> bool:
        """Whether the live container is still published on disk."""
        return epoch_path(self.live_dir).exists()

    def refresh(self) -> bool:
        """Advance to the latest published epoch; True when it changed.

        A vanished container (the writer finalized and cleaned up) leaves
        the current view intact and returns False — the open data fd keeps
        every already-published byte readable."""
        try:
            manifest = read_manifest(self.live_dir)
        except (FileNotFoundError, OSError):
            return False
        if (
            manifest.seq == self.manifest.seq
            and manifest.finalized == self.manifest.finalized
        ):
            return False
        if not manifest.extends(self.manifest):
            raise FormatError(
                f"{self.live_dir}: epoch {manifest.seq} does not extend "
                f"epoch {self.manifest.seq} (protocol violation)"
            )
        self._live_source.set_limit(manifest.meta_size + manifest.data_size)
        self._apply(manifest)
        return True

    # ------------------------------------------------------------ internals

    def _apply(self, manifest: EpochManifest) -> None:
        self.manifest = manifest
        self.frames = manifest.absolute_frames()
        self.preview = dict(manifest.preview)
        self.preview_bins = manifest.preview_bins
        self.time_range = manifest.time_range


@dataclass
class FollowEvent:
    """One batch of newly observed records.

    ``kind`` is ``"epoch"`` (new frames published), ``"final"`` (the
    writer closed; no further events).  ``records`` holds the new frames'
    records in file order, pseudo-interval continuations included
    (``n_pseudo`` of them, always leading per frame)."""

    kind: str
    seq: int
    records: list[IntervalRecord] = field(default_factory=list)
    n_new_frames: int = 0
    total_frames: int = 0
    n_pseudo: int = 0


class FollowReader:
    """Follow a growing (or finished) trace: :meth:`refresh` moves what it
    shows to the newest epoch or the assembled file, :meth:`poll` also
    hands out the records of frames not handed out yet.

    Guarantees, in protocol order: records arrive exactly once, in file
    order; an event's frames were all named by a published epoch (never a
    torn tail); sequence numbers are strictly increasing; after a
    ``"final"`` event the concatenation of every event's non-pseudo
    records equals the finished file's record stream."""

    def __init__(
        self,
        path: str | Path,
        *,
        poll_interval: float = 0.05,
        cache_frames: int = DEFAULT_FRAME_CACHE,
        errors: str = "strict",
        connect_timeout: float = 0.0,
    ) -> None:
        self.path = Path(path)
        self.poll_interval = poll_interval
        self._opts = {"cache_frames": cache_frames, "errors": errors}
        self._reader = None
        self._handle: TraceHandle | None = None
        #: What :attr:`seq` reads once the reader is no live view: the
        #: last live seq + 1 after a switch, 0 for a file opened finished.
        self._final_seq = 0
        self._consumed_frames = 0
        self._last_seq = -1
        self._done = False
        deadline = time.monotonic() + connect_timeout
        while True:
            if self._try_open():
                return
            if time.monotonic() >= deadline:
                raise FormatError(
                    f"{self.path}: neither a live container nor a finished "
                    "trace exists"
                )
            time.sleep(self.poll_interval)

    # ------------------------------------------------------------------ API

    @property
    def live(self) -> bool:
        """Whether the follower is still reading from a live container."""
        return isinstance(self._reader, LiveReader)

    @property
    def reader(self):
        """The frame store: the :class:`LiveReader`, then the file's."""
        return self._reader

    @property
    def handle(self) -> TraceHandle:
        """The frame-ordinal view over :attr:`reader`."""
        return self._handle

    @property
    def seq(self) -> int:
        """The shown epoch: the manifest seq while live, the last live
        seq + 1 after the switch, 0 for a file opened finished."""
        return self._reader.seq if self.live else self._final_seq

    @property
    def finalized(self) -> bool:
        """Whether the writer is done: the shown epoch is its last, or
        the follower reads the finished file."""
        return self._reader.finalized if self.live else True

    def refresh(self) -> bool:
        """Move to the newest published epoch, or switch to the assembled
        file once the container is gone; True when what the follower
        shows changed.  While live: one manifest read, and a stat of the
        container when nothing new was published; afterwards nothing."""
        if not self.live:
            return False
        if self._reader.refresh():
            self._handle.refresh_entries()
            return True
        if self._reader.container_exists() or not self.path.exists():
            return False
        self._switch_to_final()
        return True

    def fresh_index(self) -> tuple[TraceIndex | None, str]:
        """The sidecar index matching what the follower shows, and why
        (the planner's ``index_reason``).  While live: the container's
        republished sidecar, usable only when it covers exactly the pinned
        epoch's extent (``"live"``, else ``"live:missing"`` or
        ``"live:stale"``); afterwards :func:`load_fresh_index` of the file."""
        if not self.live:
            return load_fresh_index(self.path)
        reader = self._reader
        try:
            index = load_index(index_path(reader.live_dir))
        except (FormatError, OSError):
            return None, "live:missing"
        expected = reader.manifest.meta_size + reader.manifest.data_size
        if index.source_size != expected or len(index.frames) != len(reader.frames):
            # The writer published a newer (or older) index than the epoch
            # we are pinned to; plan full scans until they line up again.
            return None, "live:stale"
        return index, "live"

    def poll(self) -> FollowEvent | None:
        """Non-blocking: the next batch of new records, or None."""
        if self._done:
            return None
        if not self.finalized:  # a finalized epoch is the writer's last
            self.refresh()
        seq = self.seq if self.live else self._last_seq + 1
        event = self._consume(seq)
        if event is None and self.finalized:
            self._done = True
            return FollowEvent("final", seq, total_frames=len(self._handle.frames))
        return event

    def wait(self, timeout: float | None = None) -> FollowEvent | None:
        """Block up to ``timeout`` seconds for the next batch."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            event = self.poll()
            if event is not None or self._done:
                return event
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_interval)

    def events(self, *, timeout: float | None = None):
        """Generate events until the ``"final"`` one (or ``timeout``
        elapses with nothing new, when given)."""
        while not self._done:
            event = self.wait(timeout)
            if event is None:
                return
            yield event
            if event.kind == "final":
                return

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
        self._done = True

    def __enter__(self) -> "FollowReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------ internals

    def _try_open(self) -> bool:
        """Open whichever exists, the finished file first: a container
        beside it is what finalization has not removed yet."""
        if not self.path.exists() and has_live_container(self.path):
            try:
                self._attach(LiveReader(self.path, **self._opts), "slog")
                return True
            except (FormatError, OSError):
                # Lost a race with finalization; fall through to the file.
                if not self.path.exists():
                    raise
        if self.path.exists():
            self._attach(*open_reader(self.path, **self._opts))
            return True
        return False

    def _attach(self, reader, kind: str) -> None:
        self._reader = reader
        self._handle = TraceHandle(self.path, reader, kind)

    def _switch_to_final(self) -> None:
        """The container vanished mid-follow: resume inside the assembled
        file.  Assembly preserves frames one-to-one in both flavors, so
        the frame ordinal carries over, and so does the memory governor
        installed on the live reader.  A file shorter than the shown view
        is refused, and the follower stays on the view."""
        live, shown = self._reader, len(self._handle.frames)
        reader, kind = open_reader(self.path, **self._opts)
        handle = TraceHandle(self.path, reader, kind)
        if len(handle.frames) < shown:
            reader.close()
            raise FormatError(
                f"{self.path}: finished file is shorter than the followed "
                f"stream ({len(handle.frames)} frames, {shown} shown)"
            )
        reader.governor = live.governor
        self._reader, self._handle = reader, handle
        self._final_seq = live.seq + 1  # finalization is itself a step
        live.close()

    def _consume(self, seq: int) -> FollowEvent | None:
        """An ``"epoch"`` event over the frames not handed out yet (``None``
        when there are none) — the one read loop of both phases."""
        handle = self._handle
        new = handle.frames[self._consumed_frames :]
        if not new:
            return None
        records: list[IntervalRecord] = []
        n_pseudo = 0
        for frame in new:
            records.extend(handle.read_frame(frame.ordinal))
            n_pseudo += frame.n_pseudo
        self._consumed_frames = len(handle.frames)
        self._last_seq = seq
        return FollowEvent(
            "epoch", seq, records,
            n_new_frames=len(new), total_frames=len(handle.frames),
            n_pseudo=n_pseudo,
        )
