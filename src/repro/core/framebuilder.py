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
from typing import Any, Iterable, Iterator

from repro.core.profilefmt import Profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError


@dataclass(frozen=True)
class SealedFrame:
    """A finished frame: the exact bytes a container appends, and what its
    index entry records.

    ``n_pseudo`` is the length of the frame's *leading* pseudo run — what
    every reader slices off as ``[:n_pseudo]``.  ``batch`` holds the
    records the blob encodes as a
    :class:`~repro.query.columnar.FrameBatch` (file order, pseudo-records
    included) and ``real`` marks the rows after that run, which previews
    count; both are None on a frame rebuilt from stored bytes, which only
    a sink that needs neither may be handed."""

    blob: bytes
    n_records: int
    n_pseudo: int
    start_time: int
    end_time: int
    batch: Any = None
    real: Any = None


class FrameBuilder:
    """Encodes an end-time-ordered record stream into sealed frames.

    Records arrive one at a time (:meth:`add`) or as columns
    (:meth:`add_batch`); both routes fill the same open frame, share the
    lead code and end in the same :meth:`seal`, and a stream cut either
    way yields the same frames.

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
        self._open: dict[tuple, Any] | None = {} if continuations else None
        self._last_end: int | None = None
        self._buf = bytearray()
        # The open frame's rows: batches, and the records added since the
        # last one (a batch of their own once something follows them).
        self._parts: list = []
        self._records: list[IntervalRecord] = []
        self._n = 0
        self._pseudo = 0  # length of the open frame's leading pseudo run
        self._start = 0

    @property
    def n_records(self) -> int:
        """Records in the open (unsealed) frame, pseudo-records included."""
        return self._n

    def add(self, record: IntervalRecord, pseudo: bool = False) -> SealedFrame | None:
        """Append one record; the sealed frame when it filled one.

        ``pseudo`` marks a caller-supplied pseudo-interval: neither led nor
        tracked, and counted in the frame's ``n_pseudo`` while it extends
        the frame's leading pseudo run — one that follows a real record is
        stored like any other record (it stays recognisable by structure,
        :attr:`IntervalRecord.is_pseudo`).  A record ending before its
        predecessor raises :class:`FormatError` and leaves the open frame
        as it was."""
        end = record.end
        last = self._last_end
        if last is not None and end < last:
            raise FormatError(f"records out of end-time order: {end} after {last}")
        if self._open is not None and not pseudo:
            if not self._n:
                self._lead()
            if record.bebits is BeBits.BEGIN or record.bebits is BeBits.END:
                self._track(record)
        self._append(record, pseudo)
        self._last_end = end
        if len(self._buf) >= self.frame_bytes:
            return self.seal()
        return None

    def add_batch(self, batch) -> list[SealedFrame]:
        """Append a batch of records (none of them pseudo); the frames it
        filled.  The rows are encoded in one pass and cut where record by
        record :meth:`add` would have cut them.  A row ending before its
        predecessor raises :class:`FormatError` before any row is taken."""
        import numpy as np

        from repro.query.columnar import encode_frame_batch

        n = batch.n
        if not n:
            return []
        ends = batch.end
        floor = ends[0] if self._last_end is None else self._last_end
        early = np.nonzero(np.diff(ends, prepend=floor) < 0)[0]
        if len(early):
            i = int(early[0])
            last = int(ends[i - 1]) if i else self._last_end
            raise FormatError(f"records out of end-time order: {int(ends[i])} after {last}")
        blob, sizes = encode_frame_batch(batch, self.profile, self.field_mask)
        data = memoryview(blob)
        filled = np.cumsum(sizes)
        # Only BEGIN/END rows move the open-state table.
        edges: list[tuple[int, tuple, tuple | None]] = []
        if self._open is not None:
            rows = np.nonzero(
                (batch.bebits == int(BeBits.BEGIN)) | (batch.bebits == int(BeBits.END))
            )[0]
            if len(rows):
                edges = _edges(batch, rows)
        frames: list[SealedFrame] = []
        row = taken = at = 0  # next row, its byte offset, next edge
        while row < n:
            self._lead()
            # The first row that brings the frame to frame_bytes seals it.
            room = self.frame_bytes - len(self._buf)
            cut = max(int(np.searchsorted(filled, taken + room)), row)
            stop = min(cut + 1, n)
            while at < len(edges) and edges[at][0] < stop:
                _row, key, opened = edges[at]
                if opened is not None:
                    self._open[key] = opened
                else:
                    self._open.pop(key, None)
                at += 1
            self._flush_records()
            self._parts.append(batch.rows(row, stop))
            first = int(batch.start[row:stop].min())
            if not self._n or first < self._start:
                self._start = first
            self._n += stop - row
            self._buf += data[taken : int(filled[stop - 1])]
            self._last_end = int(ends[stop - 1])
            row, taken = stop, int(filled[stop - 1])
            if cut < n:
                frames.append(self.seal())
        return frames

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

    def batch_frames(self, batches: Iterable) -> Iterator[SealedFrame]:
        """:meth:`frames` for a stream that arrives as batches."""
        for batch in batches:
            yield from self.add_batch(batch)
        frame = self.seal()
        if frame is not None:
            yield frame

    def seal(self) -> SealedFrame | None:
        """Close the open frame, however full; None when it is empty."""
        import numpy as np

        from repro.query.columnar import concat_batches

        if not self._n:
            return None
        assert self._last_end is not None
        self._flush_records()
        frame = SealedFrame(
            bytes(self._buf),
            self._n,
            self._pseudo,
            self._start,
            self._last_end,
            concat_batches(self._parts),
            np.arange(self._n) >= self._pseudo,
        )
        self._buf = bytearray()
        self._parts = []
        self._n = 0
        self._pseudo = 0
        return frame

    def _lead(self) -> None:
        """Open a frame after the first with its continuation lead."""
        if self._open and not self._n and self._last_end is not None:
            for lead in self._continuations(self._last_end):
                self._append(lead, True)

    def _track(self, record: IntervalRecord) -> None:
        """Move the open-state table over one BEGIN or END piece."""
        assert self._open is not None
        if record.bebits is BeBits.BEGIN:
            self._open[_state_key(record)] = record
        else:
            self._open.pop(_state_key(record), None)

    def _append(self, record: IntervalRecord, pseudo: bool) -> None:
        self._buf += record.encode(self.profile, self.field_mask)
        if not self._n or record.start < self._start:
            self._start = record.start
        if pseudo and self._pseudo == self._n:
            self._pseudo += 1
        self._records.append(record)
        self._n += 1

    def _flush_records(self) -> None:
        if self._records:
            from repro.query.columnar import batch_from_records

            self._parts.append(batch_from_records(self._records))
            self._records = []

    def _continuations(self, at_time: int) -> list[IntervalRecord]:
        assert self._open is not None
        # States opened by batch rows are still (batch, row) references.
        pending: dict[int, tuple[Any, list]] = {}
        for key, opened in self._open.items():
            if not isinstance(opened, IntervalRecord):
                pending.setdefault(id(opened[0]), (opened[0], []))[1].append((key, opened[1]))
        for batch, refs in pending.values():
            records = batch.take([row for _, row in refs]).to_records()
            for (key, _), record in zip(refs, records):
                self._open[key] = record
        out = [
            IntervalRecord(
                r.itype, BeBits.CONTINUATION, at_time, 0, r.node, r.cpu, r.thread,
                dict(r.extra),
            )
            for r in self._open.values()
        ]
        out.sort(key=lambda r: (r.node, r.thread, r.itype))
        return out


def _edges(batch, rows) -> list[tuple[int, tuple, tuple | None]]:
    """``(row, state key, what the row opens)`` for the BEGIN/END ``rows``
    of ``batch``: a ``(batch, row)`` reference for a BEGIN (the record is
    only built if the state is still open at a cut), None for an END."""
    edges = batch.take(rows)
    itypes = edges.itype.tolist()
    markers = [0] * edges.n
    if IntervalType.MARKER in itypes:
        markers = [
            (marker or 0) if itype == IntervalType.MARKER else 0
            for itype, marker in zip(itypes, edges.extra_column("markerId"))
        ]
    begins = (edges.bebits == int(BeBits.BEGIN)).tolist()
    keys = zip(edges.node.tolist(), edges.thread.tolist(), itypes, markers)
    return [
        (row, key, (edges, i) if begins[i] else None)
        for i, (row, key) in enumerate(zip(rows.tolist(), keys))
    ]


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

    def write_batch(self, batch) -> None:
        """Append a batch of records (ascending end-time order enforced,
        none of them pseudo)."""
        if self._closed:
            raise FormatError(f"{self.path}: writer already closed")
        for frame in self._builder.add_batch(batch):
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
