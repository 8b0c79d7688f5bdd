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
    a sink that needs neither may be handed.  The blob is encoded from
    columns, leads and written records too; only rows no column can prove
    (vector/char fields, a type under several key sets, a value its wire
    field cannot hold, times past int64) meet :meth:`IntervalRecord.encode`."""

    blob: bytes
    n_records: int
    n_pseudo: int
    start_time: int
    end_time: int
    batch: Any = None
    real: Any = None


class FrameBuilder:
    """Cuts an end-time-ordered stream of record batches into sealed
    frames.

    Rows enter only as columns (:meth:`add_batch`), encoded in one pass
    per batch; however a stream is chunked into batches, it yields the
    same frames.

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
        # Open states by (node, thread, type, marker id), each a lazy
        # (batch, row) reference to its BEGIN piece; None: no leads.
        self._open: dict[tuple, tuple[Any, int]] | None = {} if continuations else None
        #: End time of the last row taken: the order watermark.
        self.last_end: int | None = None
        self._buf = bytearray()
        self._parts: list = []  # the open frame's rows, as batches
        self._n = 0
        self._pseudo = 0  # length of the open frame's leading pseudo run
        self._start = 0

    @property
    def n_records(self) -> int:
        """Records in the open (unsealed) frame, pseudo-records included."""
        return self._n

    def add_batch(self, batch, pseudo=None) -> list[SealedFrame]:
        """Append a batch of records; the frames it filled.  The first row
        that brings a frame to ``frame_bytes`` seals it.

        ``pseudo``, a boolean row mask, marks caller-supplied
        pseudo-intervals: never tracked, never opening a lead, and counted
        in a frame's ``n_pseudo`` while they extend its leading pseudo run
        — one that follows a real record is stored like any other record
        (it stays recognisable by structure, :attr:`IntervalRecord.is_pseudo`).
        A row ending before its predecessor raises :class:`FormatError`
        before any row is taken."""
        import numpy as np

        from repro.query.columnar import encode_frame_batch

        n = batch.n
        if not n:
            return []
        ends = batch.end
        floor = ends[0] if self.last_end is None else self.last_end
        early = np.nonzero(np.diff(ends, prepend=floor) < 0)[0]
        if len(early):
            i = int(early[0])
            last = int(ends[i - 1]) if i else self.last_end
            raise FormatError(f"records out of end-time order: {int(ends[i])} after {last}")
        blob, sizes = encode_frame_batch(batch, self.profile, self.field_mask)
        data = memoryview(blob)
        filled = np.cumsum(sizes)
        real = np.ones(n, dtype=bool) if pseudo is None else ~np.asarray(pseudo, dtype=bool)
        # Only real BEGIN/END rows move the open-state table.
        edges: list[tuple[int, tuple, tuple | None]] = []
        if self._open is not None:
            rows = np.nonzero(
                real & ((batch.bebits == int(BeBits.BEGIN)) | (batch.bebits == int(BeBits.END)))
            )[0]
            if len(rows):
                edges = _edges(batch, rows)
        frames: list[SealedFrame] = []
        row = taken = at = 0  # next row, its byte offset, next edge
        while row < n:
            if not self._n and real[row]:
                self._lead()
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
            if self._pseudo == self._n:  # pseudo rows extend a leading run
                self._pseudo += int(np.argmax(np.append(real[row:stop], True)))
            self._take(batch.rows(row, stop), data[taken : int(filled[stop - 1])])
            row, taken = stop, int(filled[stop - 1])
            if cut < n:
                frames.append(self.seal())
        return frames

    def batch_frames(self, batches: Iterable) -> Iterator[SealedFrame]:
        """Every frame of a stream that arrives as batches, the final
        partial one included."""
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
        assert self.last_end is not None
        frame = SealedFrame(
            bytes(self._buf),
            self._n,
            self._pseudo,
            self._start,
            self.last_end,
            concat_batches(self._parts),
            np.arange(self._n) >= self._pseudo,
        )
        self._buf = bytearray()
        self._parts = []
        self._n = 0
        self._pseudo = 0
        return frame

    def _take(self, rows, blob) -> None:
        """Append ``rows`` (a batch) and their encoded bytes to the open
        frame."""
        first = int(rows.start.min())
        if not self._n or first < self._start:
            self._start = first
        self._parts.append(rows)
        self._n += rows.n
        self._buf += blob
        self.last_end = int(rows.end[-1])

    def _lead(self) -> None:
        """Open a frame after the first with its continuation lead: the
        open states' BEGIN rows as zero-duration ``CONTINUATION`` rows at
        the last end time, sorted by (node, thread, type) with ties in
        open-table order.  The states still open then refer to the lead's
        rows, so the next lead is taken from one batch."""
        if not self._open or self.last_end is None:
            return
        import numpy as np

        from repro.query.columnar import concat_batches, encode_frame_batch

        keys, refs = list(self._open), list(self._open.values())
        by_batch: dict[int, tuple[Any, list[int]]] = {}
        for i, (batch, _row) in enumerate(refs):
            by_batch.setdefault(id(batch), (batch, []))[1].append(i)
        groups = list(by_batch.values())
        states = concat_batches([batch.take([refs[i][1] for i in at]) for batch, at in groups])
        opened = [i for _, at in groups for i in at]  # each state row's open-table place
        node, thread, itype = states.node.tolist(), states.thread.tolist(), states.itype.tolist()
        order = sorted(range(states.n), key=lambda r: (node[r], thread[r], itype[r], opened[r]))
        lead = states.take(order)
        # Past int64 only after a record the per-record encoder took.
        stamp = np.full(lead.n, self.last_end, np.int64 if self.last_end < 1 << 63 else object)
        lead.start, lead.end, lead.dura = stamp, stamp.copy(), np.zeros(lead.n, np.int64)
        lead.bebits = np.full(lead.n, int(BeBits.CONTINUATION), np.int64)
        for row, r in enumerate(order):
            self._open[keys[opened[r]]] = (lead, row)
        self._pseudo = lead.n
        self._take(lead, encode_frame_batch(lead, self.profile, self.field_mask)[0])


def _edges(batch, rows) -> list[tuple[int, tuple, tuple | None]]:
    """``(row, state key, what the row opens)`` for the BEGIN/END ``rows``
    of ``batch``: a ``(batch, row)`` reference for a BEGIN (the row is
    only taken if the state is still open at a cut), None for an END."""
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


#: Records :meth:`FrameSink.write` collects before it hands them to the
#: builder as one batch.
WRITE_BATCH_ROWS = 1024


class FrameSink:
    """What the trace writers share: the tables every container stores, a
    :class:`FrameBuilder` that :meth:`write` hands its records to in
    batches, the record count, and abort-on-exception context management.

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
        # Records written since the last hand-over, and which are pseudo.
        self._records: list[IntervalRecord] = []
        self._pseudo_rows: list[int] = []
        self._records_sunk = 0
        self._closed = False

    @property
    def records_written(self) -> int:
        """Records accepted so far (sunk frames, the open one, and those
        not yet handed to the builder)."""
        return self._records_sunk + self._builder.n_records + len(self._records)

    def write(self, record: IntervalRecord, *, pseudo: bool = False) -> None:
        """Append one record (ascending end-time order enforced); set
        ``pseudo`` for a pseudo-interval record the caller supplies.

        Records reach the builder in batches of :data:`WRITE_BATCH_ROWS`,
        so a record that cannot be encoded raises at the hand-over that
        carries it — at the latest in :meth:`close`, which then aborts."""
        self._check_open()
        last = self._records[-1].end if self._records else self._builder.last_end
        if last is not None and record.end < last:
            raise FormatError(f"records out of end-time order: {record.end} after {last}")
        if pseudo:
            self._pseudo_rows.append(len(self._records))
        self._records.append(record)
        if len(self._records) >= WRITE_BATCH_ROWS:
            self._hand_over()

    def write_batch(self, batch) -> None:
        """Append a batch of records (ascending end-time order enforced,
        none of them pseudo)."""
        self._check_open()
        self._hand_over()
        for frame in self._builder.add_batch(batch):
            self._put(frame)

    def add_frame(self, frame: SealedFrame) -> None:
        """Append one sealed frame, cut by this writer's builder or by
        another one feeding several sinks."""
        self._check_open()
        self._hand_over()
        self._put(frame)

    def _put(self, frame: SealedFrame) -> None:
        self._records_sunk += frame.n_records
        self._sink(frame)

    def _hand_over(self) -> None:
        """Pass the written records to the builder as one batch.  They stay
        buffered if that fails (a record that cannot be encoded), so the
        container never silently loses them."""
        if not self._records:
            return
        import numpy as np

        from repro.query.columnar import batch_from_records

        pseudo = None
        if self._pseudo_rows:
            pseudo = np.zeros(len(self._records), dtype=bool)
            pseudo[self._pseudo_rows] = True
        frames = self._builder.add_batch(batch_from_records(self._records), pseudo)
        self._records = []
        self._pseudo_rows = []
        for frame in frames:
            self._put(frame)

    def _seal_open_frame(self) -> None:
        self._hand_over()
        frame = self._builder.seal()
        if frame is not None:
            self._put(frame)

    def _seal_for_close(self) -> None:
        """:meth:`_seal_open_frame` for :meth:`close`: any failure aborts
        the container before it propagates."""
        try:
            self._seal_open_frame()
        except BaseException:
            self.abort()
            raise

    def _check_open(self) -> None:
        if self._closed:
            raise FormatError(f"{self.path}: writer already closed")

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
