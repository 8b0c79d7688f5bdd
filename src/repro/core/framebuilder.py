"""The one place a frame is born (paper sections 3.1, 3.3 and 4).

Every container — interval file, SLOG file, live container — holds the
same frames: records in ascending **end time**, cut at the first record
that brings the frame to ``frame_bytes``, each new frame optionally led by
zero-duration *continuation* pseudo-intervals for every state still open,
so a tool that seeks into the middle of a run still sees the enclosing
states.  :class:`FrameBuilder` applies that rule once; the writers are
:class:`FrameSink` subclasses that take the :class:`SealedFrame` objects it
returns and differ only in where the bytes and the index entry go.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.core.profilefmt import Profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError


@dataclass(frozen=True)
class SealedFrame:
    """A finished frame: the exact bytes a container appends, and what its
    index entry records.

    ``records`` (file order, pseudo-records included) and ``real`` (the
    non-pseudo ones, which previews count) are what the blob encodes; both
    are empty on a frame rebuilt from stored bytes, which only a sink that
    needs neither may be handed."""

    blob: bytes
    n_records: int
    n_pseudo: int
    start_time: int
    end_time: int
    records: Sequence[IntervalRecord] = ()
    real: Sequence[IntervalRecord] = ()


class FrameBuilder:
    """Encodes an end-time-ordered record stream into sealed frames.

    With ``continuations`` on, the builder tracks interrupted states (a
    ``BEGIN`` piece not yet matched by its ``END``) and leads every frame
    after the first with one zero-duration ``CONTINUATION`` record per open
    state, sorted by (node, thread, type) and stamped with the previous
    record's end time.  The lead always sits whole in one frame: the size
    test runs after the record that follows it, never between its records.
    """

    def __init__(
        self, profile: Profile, field_mask: int, frame_bytes: int, *, continuations: bool
    ) -> None:
        if frame_bytes < 256:
            raise FormatError(f"frame size too small: {frame_bytes}")
        self.profile = profile
        self.field_mask = field_mask
        self.frame_bytes = frame_bytes
        # Open states by (node, thread, type, marker id); None: no leads.
        self._open: dict[tuple, IntervalRecord] | None = {} if continuations else None
        self._last_end: int | None = None
        self._buf = bytearray()
        self._records: list[IntervalRecord] = []
        self._real: list[IntervalRecord] = []
        self._start = 0

    @property
    def n_records(self) -> int:
        """Records in the open (unsealed) frame, pseudo-records included."""
        return len(self._records)

    def add(self, record: IntervalRecord, pseudo: bool = False) -> SealedFrame | None:
        """Append one record; the sealed frame when it filled one.

        ``pseudo`` marks a caller-supplied pseudo-interval: counted in the
        frame's ``n_pseudo``, excluded from ``real``, and neither led nor
        tracked.  A record ending before its predecessor raises
        :class:`FormatError` and leaves the open frame as it was."""
        end = record.end
        last = self._last_end
        if last is not None and end < last:
            raise FormatError(f"records out of end-time order: {end} after {last}")
        if self._open is not None and not pseudo:
            if last is not None and not self._records:
                for lead in self._continuations(last):
                    self._append(lead, True)
            if record.bebits is BeBits.BEGIN:
                self._open[_state_key(record)] = record
            elif record.bebits is BeBits.END:
                self._open.pop(_state_key(record), None)
        self._append(record, pseudo)
        self._last_end = end
        if len(self._buf) >= self.frame_bytes:
            return self.seal()
        return None

    def frames(self, records: Iterable[IntervalRecord]) -> Iterator[SealedFrame]:
        """Every frame of the stream ``records``, the final partial one
        included."""
        for record in records:
            frame = self.add(record)
            if frame is not None:
                yield frame
        frame = self.seal()
        if frame is not None:
            yield frame

    def seal(self) -> SealedFrame | None:
        """Close the open frame, however full; None when it is empty."""
        if not self._records:
            return None
        assert self._last_end is not None
        frame = SealedFrame(
            bytes(self._buf),
            len(self._records),
            len(self._records) - len(self._real),
            self._start,
            self._last_end,
            self._records,
            self._real,
        )
        self._buf = bytearray()
        self._records = []
        self._real = []
        return frame

    def _append(self, record: IntervalRecord, pseudo: bool) -> None:
        self._buf += record.encode(self.profile, self.field_mask)
        if not self._records or record.start < self._start:
            self._start = record.start
        self._records.append(record)
        if not pseudo:
            self._real.append(record)

    def _continuations(self, at_time: int) -> list[IntervalRecord]:
        assert self._open is not None
        out = [
            IntervalRecord(
                r.itype, BeBits.CONTINUATION, at_time, 0, r.node, r.cpu, r.thread,
                dict(r.extra),
            )
            for r in self._open.values()
        ]
        out.sort(key=lambda r: (r.node, r.thread, r.itype))
        return out


def _state_key(record: IntervalRecord) -> tuple:
    marker = record.extra.get("markerId", 0) if record.itype == IntervalType.MARKER else 0
    return (record.node, record.thread, record.itype, marker)


class FrameSink:
    """What the trace writers share: the tables every container stores, a
    :class:`FrameBuilder` behind :meth:`write`, the record count, and
    abort-on-exception context management.

    Subclasses say where a sealed frame goes (``_sink``) and how the
    container is finished (``close``) or discarded (``abort``)."""

    def __init__(
        self,
        path: str | Path,
        profile: Profile,
        thread_table: ThreadTable,
        *,
        markers: dict[int, str] | None,
        node_cpus: dict[int, int] | None,
        field_mask: int,
        frame_bytes: int,
        ticks_per_sec: float,
        continuations: bool,
    ) -> None:
        self.path = Path(path)
        self.profile = profile
        self.thread_table = thread_table
        self.markers = dict(markers or {})
        self.node_cpus = dict(node_cpus or {})
        self.field_mask = field_mask
        self.frame_bytes = frame_bytes
        self.ticks_per_sec = ticks_per_sec
        self._builder = FrameBuilder(
            profile, field_mask, frame_bytes, continuations=continuations
        )
        self._records_sunk = 0
        self._closed = False

    @property
    def records_written(self) -> int:
        """Records accepted so far (sunk frames plus the open one)."""
        return self._records_sunk + self._builder.n_records

    def write(self, record: IntervalRecord, *, pseudo: bool = False) -> None:
        """Append one record (ascending end-time order enforced); set
        ``pseudo`` for a pseudo-interval record the caller supplies."""
        if self._closed:
            raise FormatError(f"{self.path}: writer already closed")
        frame = self._builder.add(record, pseudo)
        if frame is not None:
            self.add_frame(frame)

    def add_frame(self, frame: SealedFrame) -> None:
        """Append one sealed frame, cut by this writer's builder or by
        another one feeding several sinks."""
        if self._closed:
            raise FormatError(f"{self.path}: writer already closed")
        self._records_sunk += frame.n_records
        self._sink(frame)

    def _seal_open_frame(self) -> None:
        frame = self._builder.seal()
        if frame is not None:
            self.add_frame(frame)

    def _sink(self, frame: SealedFrame) -> None:
        raise NotImplementedError

    def close(self) -> Path:
        """Finish the container; returns the final path."""
        raise NotImplementedError

    def abort(self) -> None:
        """Discard the container without publishing the final name."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()
