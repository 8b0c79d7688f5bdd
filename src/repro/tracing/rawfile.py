"""Per-node raw trace file reading and writing.

The raw trace file is the simulated analogue of an AIX trace log: a fixed
header followed by a single stream of variable-length records, each led by a
hookword.  One file per node (paper abstract: "one for each SMP node").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.core.atomicio import AtomicFile
from repro.core.layout import gather_items
from repro.core.magic import RAW_MAGIC as MAGIC
from repro.errors import FormatError, TraceError
from repro.tracing.events import RawEvent

if TYPE_CHECKING:
    import numpy as np

_HEADER = struct.Struct("<8sHHHHQd")  # magic, version, node, n_cpus, pad, base_local_ts, tick_ns
FORMAT_VERSION = 1


@dataclass(frozen=True)
class RawFileHeader:
    """Header of a raw trace file."""

    node_id: int
    n_cpus: int
    base_local_ts: int
    tick_ns: float = 1.0
    version: int = FORMAT_VERSION

    def encode(self) -> bytes:
        """Serialize the header."""
        return _HEADER.pack(
            MAGIC, self.version, self.node_id, self.n_cpus, 0, self.base_local_ts, self.tick_ns
        )

    @classmethod
    def decode(cls, data: bytes) -> "RawFileHeader":
        """Deserialize a header, validating magic and version."""
        magic, version, node_id, n_cpus, _pad, base, tick_ns = _HEADER.unpack(data)
        if magic != MAGIC:
            raise TraceError(f"not a raw trace file (magic {magic!r})")
        if version != FORMAT_VERSION:
            raise TraceError(f"unsupported raw trace version {version}")
        return cls(node_id, n_cpus, base, tick_ns, version)

    @classmethod
    def size(cls) -> int:
        """On-disk header size in bytes."""
        return _HEADER.size


class RawTraceWriter:
    """Streams raw events for one node to disk.

    The writer models the facility's trace buffer: records accumulate in an
    in-memory buffer of ``buffer_bytes`` and are flushed to the file when the
    buffer fills ("log" mode).  In "wrap" mode the buffer is circular — when
    it fills, the oldest *whole records* are discarded and only the most
    recent window survives, as with AIX trace's default mode.
    """

    def __init__(
        self,
        path: str | Path,
        header: RawFileHeader,
        *,
        buffer_bytes: int = 1 << 20,
        wrap: bool = False,
    ) -> None:
        if buffer_bytes < 256:
            raise TraceError(f"trace buffer too small: {buffer_bytes}")
        self.path = Path(path)
        self.header = header
        self.buffer_bytes = buffer_bytes
        self.wrap = wrap
        self.records_written = 0
        self.records_dropped = 0
        self._buffer: list[bytes] = []
        self._buffered = 0
        # Bytes stage in a temp sibling; the final name appears only on a
        # clean close, so a node dying mid-run never leaves a torn raw file
        # under the name the convert stage trusts.
        self._fh: AtomicFile | None = AtomicFile(self.path)
        self._fh.write(header.encode())

    def write(self, event: RawEvent) -> None:
        """Buffer one event, flushing or wrapping as configured."""
        if self._fh is None:
            raise TraceError(f"writer for {self.path} already closed")
        blob = event.encode()
        self._buffer.append(blob)
        self._buffered += len(blob)
        if self._buffered >= self.buffer_bytes:
            if self.wrap:
                self._drop_oldest()
            else:
                self._flush()

    def _drop_oldest(self) -> None:
        while self._buffer and self._buffered >= self.buffer_bytes:
            dropped = self._buffer.pop(0)
            self._buffered -= len(dropped)
            self.records_dropped += 1

    def _flush(self) -> None:
        assert self._fh is not None
        for blob in self._buffer:
            self._fh.write(blob)
            self.records_written += 1
        self._buffer.clear()
        self._buffered = 0

    def close(self) -> Path:
        """Flush remaining records and atomically publish the file."""
        if self._fh is not None:
            self._flush()
            self._fh.commit()
            self._fh = None
        return self.path

    def abort(self) -> None:
        """Discard the output without publishing anything (idempotent)."""
        if self._fh is not None:
            self._fh.abort()
            self._fh = None

    def __enter__(self) -> "RawTraceWriter":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


#: Smallest possible encoded record: hookword + event header + text length.
_MIN_RECORD = 4 + 16 + 2

_HOOKWORD = struct.Struct("<I")

#: Hookword + event header as one packed item (numpy dtype fields); the
#: payload words and the text length follow it.
_EVENT_HEAD = [
    ("len", "<u2"), ("hook", "<u2"), ("ts", "<u8"), ("tid", "<u4"),
    ("cpu", "<u2"), ("nargs", "<u2"),
]
_HEAD_BYTES = 20


@dataclass(frozen=True)
class RawColumns:
    """A raw trace's records as parallel arrays, in file order
    (:meth:`RawTraceReader.columns`).

    ``args`` is every payload word of the file end to end; record ``i``
    owns ``args[arg_start[i] : arg_start[i] + nargs[i]]``.  A record's
    text stays in the file: ``text_len[i]`` bytes of UTF-8 at
    ``text_offset[i]``."""

    offset: "np.ndarray"  # int64: the record's place in the file
    hook: "np.ndarray"  # uint16
    ts: "np.ndarray"  # uint64
    tid: "np.ndarray"  # uint32
    cpu: "np.ndarray"  # uint16
    nargs: "np.ndarray"  # uint16
    text_len: "np.ndarray"  # uint16
    args: "np.ndarray"  # uint64
    arg_start: "np.ndarray"  # int64

    def __len__(self) -> int:
        return len(self.hook)

    @property
    def text_offset(self) -> "np.ndarray":
        """Where each record's text starts in the file."""
        return self.offset + (_MIN_RECORD + 8 * self.nargs.astype("int64"))

    def arg(self, rows: "np.ndarray", k: int) -> "np.ndarray":
        """Payload word ``k`` of ``rows`` as uint64, zero where a record
        carries fewer than ``k + 1`` words."""
        import numpy as np

        has = self.nargs[rows] > k
        if has.all():
            return self.args[self.arg_start[rows] + k]
        out = np.zeros(len(rows), dtype=np.uint64)
        out[has] = self.args[self.arg_start[rows[has]] + k]
        return out


class RawTraceReader:
    """Reads a raw trace file back into :class:`RawEvent` objects.

    The reader is streaming: bytes come from a bounded-memory
    :class:`~repro.core.bytesource.ByteSource` (mmap or buffered file),
    one window of :attr:`WINDOW_BYTES` at a time, and only one record is
    materialized at a time, so peak memory is O(window + record)
    regardless of trace size.

    A trace whose final record is cut short — a crash mid-write, or a
    wrap-mode buffer snapshot torn at the window edge — raises
    :class:`~repro.errors.FormatError` ("truncated event"), never a bare
    ``IndexError`` or ``struct.error``.

    :meth:`columns` is the bulk read ``convert`` uses: the whole trace as
    parallel arrays (:class:`RawColumns`), O(file) in narrow columns, no
    object per record.

    With ``errors="salvage"`` damage is survivable instead of fatal: the
    scan resynchronizes on the next plausible record boundary (a registered
    hookword, a length that fits the file, a record that decodes in full,
    and a timestamp that does not run backwards) and accounts for whatever
    it stepped over in :attr:`salvage` (a
    :class:`~repro.core.salvage.SalvageReport`).
    """

    #: Bytes the strict record walk fetches at a time (a record longer
    #: than this gets a window of its own).
    WINDOW_BYTES = 64 * 1024

    def __init__(
        self,
        path: str | Path,
        *,
        source: "ByteSource | None" = None,
        errors: str = "strict",
    ) -> None:
        from repro.core.bytesource import ByteSource, open_source  # noqa: F811
        from repro.core.salvage import SalvageReport, check_error_mode

        self.path = Path(path)
        self._salvage_mode = check_error_mode(errors)
        self.source: ByteSource = source if source is not None else open_source(self.path)
        self.salvage: "SalvageReport | None" = (
            SalvageReport(path=self.path) if self._salvage_mode else None
        )
        try:
            head = self.source.fetch(0, RawFileHeader.size())
            if len(head) < RawFileHeader.size():
                raise TraceError(f"{self.path}: truncated raw trace file")
            self.header = RawFileHeader.decode(head)
        except BaseException:
            if source is None:  # an injected source stays the caller's
                self.source.close()
            raise
        self._start = RawFileHeader.size()

    def close(self) -> None:
        """Release the underlying byte source."""
        self.source.close()

    def __enter__(self) -> "RawTraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def scan(self) -> Iterator[tuple[int, int, int]]:
        """Walk the record stream by hookword alone, yielding
        ``(hook_id, offset, record_len)`` without decoding payloads.

        The cheap pass behind :meth:`__len__`; :meth:`event_at` decodes
        any record the scan singles out.

        In salvage mode the scan never raises for damaged bytes: it yields
        only records that decode in full and steps over everything else,
        accounting the damage to :attr:`salvage`."""
        if self._salvage_mode:
            yield from self._scan_salvage()
            return
        for hook_id, offset, record_len, _window, _at in self._walk():
            yield hook_id, offset, record_len

    def _walk(self) -> Iterator[tuple[int, int, int, bytes, int]]:
        """The strict record walk over a sliding window of the source:
        ``(hook_id, offset, record_len, window, position in window)`` per
        record, the whole record inside ``window``.  One fetch per
        :attr:`WINDOW_BYTES`, not per record."""
        from repro.errors import FormatError
        from repro.tracing.hooks import decode_hookword

        offset = base = self._start
        end = len(self.source)
        window = b""
        while offset < end:
            at = offset - base
            if at + 4 > len(window):
                window, base, at = self.source.fetch(offset, self.WINDOW_BYTES), offset, 0
                if len(window) < 4:
                    raise FormatError(f"{self.path}: truncated event at offset {offset}")
            hook_id, record_len = decode_hookword(_HOOKWORD.unpack_from(window, at)[0])
            if record_len < _MIN_RECORD:
                raise TraceError(
                    f"{self.path}: corrupt event at offset {offset} "
                    f"(record length {record_len})"
                )
            if offset + record_len > end:
                raise FormatError(f"{self.path}: truncated event at offset {offset}")
            if at + record_len > len(window):  # straddles the window's end
                size = max(self.WINDOW_BYTES, record_len)
                window, base, at = self.source.fetch(offset, size), offset, 0
            yield hook_id, offset, record_len, window, at
            offset += record_len

    def columns(self) -> RawColumns:
        """The whole trace as :class:`RawColumns`, no object per record.

        The walk below collects record offsets only; every other field is
        one gather per window.  It is :meth:`__iter__`'s strict read — the
        same length checks, the same error for the first record that fails
        one — except that texts are located, not decoded."""
        import numpy as np

        if self._salvage_mode:
            raise TraceError(f"{self.path}: columns() is a strict read")
        names = ("offset", "hook", "ts", "tid", "cpu", "nargs", "text_len", "args")
        # An empty part gives a trace without records its columns' dtypes.
        parts: list[tuple] = [self._window_columns(0, bytes(_MIN_RECORD), np.empty(0, np.intp))]
        offset = self._start
        end = len(self.source)
        while offset < end:
            window = self.source.fetch(offset, self.WINDOW_BYTES)
            size = len(window)
            at = record_len = 0
            ats: list[int] = []
            error: Exception | None = None
            while at + 4 <= size:
                record_len = window[at] | window[at + 1] << 8
                if record_len < _MIN_RECORD:
                    error = TraceError(
                        f"{self.path}: corrupt event at offset {offset + at} "
                        f"(record length {record_len})"
                    )
                elif offset + at + record_len > end:
                    error = FormatError(f"{self.path}: truncated event at offset {offset + at}")
                elif at + record_len <= size:
                    ats.append(at)
                    at += record_len
                    continue
                break
            if not ats and error is None:
                if size < 4:
                    error = FormatError(f"{self.path}: truncated event at offset {offset}")
                else:  # one record longer than the window: it gets its own
                    window, ats, at = self.source.fetch(offset, record_len), [0], record_len
            if ats:
                parts.append(self._window_columns(offset, window, np.array(ats, dtype=np.intp)))
            if error is not None:
                raise error
            offset += at
        joined = {name: np.concatenate(column) for name, column in zip(names, zip(*parts))}
        nargs = joined["nargs"]
        return RawColumns(**joined, arg_start=np.cumsum(nargs, dtype=np.int64) - nargs)

    def _window_columns(self, base: int, window: bytes, at: "np.ndarray") -> tuple:
        """:meth:`columns` of the records starting at ``at`` in ``window``
        (file bytes from ``base``; every record lies inside it)."""
        import numpy as np

        head = gather_items(window, at, _EVENT_HEAD)
        nargs = head["nargs"]
        # The text length sits behind the payload; both must lie inside
        # the record, and the three parts must add up to the hookword's
        # length.
        text_at = _HEAD_BYTES + 8 * nargs.astype(np.intp)
        good = text_at + 2 <= head["len"]
        text_at = at + np.where(good, text_at, 0)
        text_len = gather_items(window, text_at, "<u2")
        good &= text_at - at + 2 + text_len == head["len"]
        if not good.all():
            i = int(np.argmin(good))
            self.event_at(base + int(at[i]), int(head["len"][i]))  # raises, naming its place
            raise TraceError(f"{self.path}: corrupt event at offset {base + int(at[i])}")
        record = np.repeat(np.arange(len(at)), nargs)
        word = np.arange(len(record)) - np.repeat(np.cumsum(nargs, dtype=np.intp) - nargs, nargs)
        args = gather_items(window, at[record] + _HEAD_BYTES + 8 * word, "<u8")
        return (
            base + at.astype(np.int64), head["hook"], head["ts"], head["tid"], head["cpu"],
            nargs, text_len, args,
        )

    def _plausible_event(
        self, offset: int, end: int, last_ts: int | None, *, resync: bool
    ) -> tuple[int, int, int] | None:
        """``(hook_id, record_len, local_ts)`` if a plausible record starts
        at ``offset``, else None.  Plausibility: a registered hookword, a
        length that fits the file, and a record that decodes in full;
        resync candidates additionally must not run the clock backwards."""
        from repro.tracing.hooks import decode_hookword, is_known_hook

        word_bytes = self.source.fetch(offset, 4)
        if len(word_bytes) < 4:
            return None
        (word,) = struct.unpack("<I", word_bytes)
        hook_id, record_len = decode_hookword(word)
        if not is_known_hook(hook_id):
            return None
        if record_len < _MIN_RECORD or offset + record_len > end:
            return None
        try:
            event = self.event_at(offset, record_len)
        except TraceError:
            return None
        if resync and last_ts is not None and event.local_ts < last_ts:
            return None
        return hook_id, record_len, event.local_ts

    def _scan_salvage(self) -> Iterator[tuple[int, int, int]]:
        report = self.salvage
        assert report is not None
        offset = self._start
        end = len(self.source)
        last_ts: int | None = None
        while offset < end:
            found = self._plausible_event(offset, end, last_ts, resync=False)
            if found is not None:
                hook_id, record_len, ts = found
                last_ts = ts if last_ts is None else max(last_ts, ts)
                yield hook_id, offset, record_len
                offset += record_len
                continue
            probe = offset + 1
            while probe < end:
                if self._plausible_event(probe, end, last_ts, resync=True) is not None:
                    break
                probe += 1
            report.records_dropped += 1
            if probe >= end:
                report.skip(offset, end - offset, "no further event boundary")
                break
            report.skip(offset, probe - offset, "corrupt event")
            offset = probe

    def stats(self) -> dict[str, int]:
        """IO accounting plus the salvage counters (zero in strict mode), in
        the shared stats shape the other readers use."""
        from repro.core.salvage import salvage_stats

        return {**self.source.stats(), **salvage_stats(self.salvage)}

    def event_at(self, offset: int, record_len: int) -> RawEvent:
        """Decode the single record at ``offset`` (as reported by
        :meth:`scan`)."""
        blob = self.source.fetch(offset, record_len)
        try:
            event, _ = RawEvent.decode(blob, 0)
        except TraceError:
            raise
        except (struct.error, IndexError, ValueError, UnicodeDecodeError) as exc:
            raise TraceError(
                f"{self.path}: corrupt event at offset {offset} ({exc})"
            ) from exc
        return event

    def __iter__(self) -> Iterator[RawEvent]:
        if self._salvage_mode:
            for _hook, offset, record_len in self._scan_salvage():
                yield self.event_at(offset, record_len)
            return
        for _hook, offset, record_len, window, at in self._walk():
            try:
                event, _ = RawEvent.decode(window, at)
            except (TraceError, struct.error, IndexError, ValueError):
                # Decoded on its own the record fails too, with the error
                # that names its place in the file.
                event = self.event_at(offset, record_len)
            yield event

    def events(self) -> list[RawEvent]:
        """All events in file order."""
        return list(self)

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())
