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

:class:`FollowReader` drives the poll loop on top: each :meth:`poll`
returns the records of newly published frames, and when the writer
finalizes (or the container vanishes after assembly) the follower hands
over to the finished file without dropping or repeating a record.
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
    live_dir_for,
    meta_path,
    read_manifest,
)
from repro.utils.slog import SlogFile, SlogFrameEntry


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
        source.set_limit(manifest.meta_size + manifest.data_size)
        super().__init__(path, source=source, cache_frames=cache_frames, errors=errors)
        self.live_dir = live_dir
        self._live_source = source
        self._apply(manifest)

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
    """Follow a growing (or finished) trace, one epoch batch at a time.

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
        self._cache_frames = cache_frames
        self._errors = errors
        self._live: LiveReader | None = None
        #: Frame-ordinal view of whatever is being followed: the live
        #: reader while the container exists, the finished file afterwards.
        self._handle = None
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
        return self._live is not None

    @property
    def reader(self):
        """The underlying reader (a :class:`LiveReader` while live, the
        finished file's handle afterwards)."""
        return self._live if self._live is not None else self._handle

    def poll(self) -> FollowEvent | None:
        """Non-blocking: the next batch of new records, or None."""
        if self._done:
            return None
        if self._live is not None:
            event = self._poll_live()
            if event is not None:
                return event
            if not self._live.container_exists() and self.path.exists():
                # Finalized-and-assembled while we were not looking (the
                # final epoch may have been missed entirely); hand over.
                self._switch_to_final()
                return self.poll()
            return None
        return self._poll_final()

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
        if self._handle is not None:
            self._handle.close()  # closes the live reader it wraps, if any
            self._handle = None
        self._live = None
        self._done = True

    def __enter__(self) -> "FollowReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------ internals

    def _try_open(self) -> bool:
        from repro.query.trace import TraceHandle

        live_dir = live_dir_for(self.path)
        if epoch_path(live_dir).exists():
            try:
                self._live = LiveReader(
                    self.path, cache_frames=self._cache_frames, errors=self._errors
                )
                self._handle = TraceHandle(self.path, self._live, "slog")
                return True
            except (FormatError, OSError):
                # Lost a race with finalization; fall through to the file.
                if not self.path.exists():
                    raise
        if self.path.exists():
            self._open_final()
            return True
        return False

    def _open_final(self) -> None:
        from repro.query.trace import open_trace

        self._handle = open_trace(
            self.path, errors=self._errors, cache_frames=self._cache_frames
        )

    def _poll_live(self) -> FollowEvent | None:
        assert self._live is not None
        if self._live.refresh():
            self._handle.refresh_entries()
        event = self._consume(self._live.seq)
        if event is None and self._live.finalized:
            self._done = True
            return FollowEvent(
                "final", self._live.seq, total_frames=len(self._handle.frames)
            )
        return event

    def _switch_to_final(self) -> None:
        """The container vanished mid-follow: resume inside the assembled
        file.  Assembly preserves frames one-to-one in both flavors, so
        the frame ordinal carries over."""
        assert self._live is not None
        self._live.close()
        self._live = None
        self._open_final()
        if len(self._handle.frames) < self._consumed_frames:
            raise FormatError(
                f"{self.path}: finished file is shorter than the followed "
                f"stream ({len(self._handle.frames)} frames, "
                f"{self._consumed_frames} already handed out)"
            )

    def _poll_final(self) -> FollowEvent | None:
        seq = self._last_seq + 1
        event = self._consume(seq)
        if event is None:
            self._done = True
            return FollowEvent("final", seq, total_frames=len(self._handle.frames))
        return event

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
