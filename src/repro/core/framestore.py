"""The one frame store: locate a frame, fetch it, decode it, keep it.

The paper's scalability argument rests on one operation — find a frame
through the directory, fetch exactly its bytes, decode them — so the code
has exactly one place that does it.  :class:`FrameStore` is the base of
every frame-indexed reader (:class:`~repro.core.reader.IntervalReader`,
:class:`~repro.utils.slog.SlogFile` and through it the live reader), which
add only their format's header and directory parsing.  It owns:

* the byte source and the salvage report of one open file;
* **one LRU** of decoded frames keyed ``(offset, size)``.  An entry is
  the frame's columnar :class:`~repro.query.columnar.FrameBatch` — the
  only decoded form; a record read materialises fresh
  :class:`~repro.core.records.IntervalRecord` objects from it and refreshes
  the same entry;
* one lock and one ``hits``/``misses``/``evictions`` counter set (a lookup
  hits or misses a *frame*, an eviction drops a *frame*);
* the memory accounting a multi-session budget aggregates — an entry is
  charged its encoded ``size``, once — with the admission governor's one
  ``reserve``/``commit`` site;
* the one call into the resynchronizing salvage decoder.

:func:`decode_frame_records` is the **reference decoder**: the plain
per-record loop, kept as a pure function so ``ute-oracle`` (``decode_parity``;
``columnar_vs_record`` through ``engine.reference_rows``) and the parity
tests can check the columnar decode against something that shares none of
its code.  Product read paths never call it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from repro.core.bytesource import ByteSource, open_source
from repro.core.records import IntervalRecord
from repro.core.salvage import (
    DECODE_ERRORS,
    SalvageReport,
    check_error_mode,
    salvage_frame_records,
    salvage_stats,
)
from repro.errors import FormatError

#: Default number of decoded frames a reader keeps (LRU).
DEFAULT_FRAME_CACHE = 16


def decode_frame_records(blob: bytes, profile, mask: int) -> list[IntervalRecord]:
    """The reference decoder: every record of one frame's bytes, one
    :meth:`IntervalRecord.decode` at a time.

    Raises whatever the record decoder raises, plus ``OverflowError`` for a
    record whose time range leaves ``[0, 2**63)`` — the same records the
    columnar decode refuses, so the two stay comparable on every input
    (``ute-oracle``'s ``decode_parity`` compares them on every frame)."""
    records = []
    pos = 0
    end = len(blob)
    while pos < end:
        record, pos = IntervalRecord.decode(blob, pos, profile, mask)
        if not record.fits_int64:
            raise OverflowError(
                f"record time range {record.start}+{record.duration} does not fit int64"
            )
        records.append(record)
    return records


class FrameStore:
    """The frame-level half of a reader: fetch, decode and cache the frames
    of one open trace file.

    A subclass parses its format's header and directory and sets
    ``profile`` and ``field_mask``; everything per frame happens here.
    ``frame`` arguments are directory entries of either format — anything
    with ``offset``, ``size``, ``n_records``, ``start_time``, ``end_time``.
    Thread-safe: readers shared across threads (the serving daemon)
    serialize on one lock, which also covers the byte source's chunk cache.
    """

    #: What frames decode against; set by the subclass once its header is
    #: parsed (``profile`` may stay ``None`` until records are wanted).
    profile = None
    field_mask = 0

    def __init__(
        self,
        path: str | Path,
        *,
        source: ByteSource | None = None,
        cache_frames: int = DEFAULT_FRAME_CACHE,
        errors: str = "strict",
    ) -> None:
        self.path = Path(path)
        self.salvage: SalvageReport | None = (
            SalvageReport(path=self.path) if check_error_mode(errors) else None
        )
        self.source: ByteSource = source if source is not None else open_source(self.path)
        #: Optional admission governor (a Repository sharing one memory
        #: budget across readers): ``reserve(nbytes)`` before a lookup adds
        #: ``nbytes`` to the cache, ``commit(nbytes)`` once it settled.
        #: Never called with the lock held — the governor may shrink this
        #: very store to make room.
        self.governor = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._capacity = max(0, cache_frames)
        self._entries: OrderedDict = OrderedDict()  # (offset, size) -> FrameBatch
        self._resident = 0
        self._lock = threading.Lock()
        try:
            self._open()
        except BaseException:
            if source is None:  # an injected source stays the caller's
                self.source.close()
            raise

    def _open(self) -> None:
        """Parse the format's header and directory, or refuse the file."""
        raise NotImplementedError

    def close(self) -> None:
        """Drop every cached frame and release the byte source."""
        with self._lock:
            self._entries.clear()
            self._resident = 0
        self.source.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ reads

    def read_frame_batch(self, frame):
        """One frame as a columnar :class:`~repro.query.columnar.FrameBatch`
        — the cached form itself, shared between callers: treat it as
        read-only.  In salvage mode the batch mirrors the resynchronizing
        decoder's records."""
        return self._read(frame)

    def read_frame(self, frame) -> list[IntervalRecord]:
        """One frame as record objects, materialised from its cached batch
        on every call (fresh objects, but for a salvage batch's mirrored ones)."""
        return self._read(frame).to_records()

    def reference_frame(self, frame) -> list[IntervalRecord]:
        """One frame through the reference decoder — never cached, never
        from a batch; always a miss.  For ``engine.reference_scan``, the
        oracle and tests only.  A salvage-mode reader answers with the
        resynchronizing decoder's records, which is what its batches mirror."""
        with self._lock:
            self.misses += 1
            if self.salvage is not None:
                return self._salvage(frame, self.salvage)
            blob = self.source.fetch(frame.offset, frame.size)
        return self._strict(frame, blob, decode_frame_records)

    def salvage_frame(self, frame) -> tuple[list[IntervalRecord], SalvageReport]:
        """Probe one frame in salvage fashion whatever the reader's mode,
        into a *fresh* report; touches neither the cache nor the counters.

        The serving daemon uses this after a strict decode fails, to say
        what exactly is damaged and how many records survive."""
        report = SalvageReport(path=self.path)
        with self._lock:
            return self._salvage(frame, report), report

    # ------------------------------------------------------------- accounting

    def stats(self) -> dict[str, int]:
        """Cache and IO accounting in the shared stats shape: ``hits``,
        ``misses``, ``evictions``, ``resident_bytes``, the byte source's
        ``fetch_count``/``bytes_fetched`` and the salvage counters (zero
        in strict mode)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_bytes": self._resident,
            **self.source.stats(),
            **salvage_stats(self.salvage),
        }

    def resident_bytes(self) -> int:
        """Encoded bytes of the cached frames, one ``size`` each — the
        number a multi-session memory budget aggregates."""
        return self._resident

    def cached_frames(self) -> int:
        """Frames currently held."""
        with self._lock:
            return len(self._entries)

    def shrink_cache(self, max_bytes: int) -> int:
        """Evict least-recently-used frames until at most ``max_bytes`` are
        resident; returns the number of frames dropped (each counts as one
        eviction, like a frame pushed out by the LRU capacity)."""
        with self._lock:
            before = self.evictions
            while self._resident > max_bytes and self._entries:
                self._drop_oldest()
            return self.evictions - before

    # -------------------------------------------------------------- internals

    def _read(self, frame):
        key = (frame.offset, frame.size)
        with self._lock:
            batch = self._entries.get(key)
            if batch is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return batch
            if not self._capacity:  # never retains: decode and hand over
                self.misses += 1
                return self._decode(frame)
        governor = self.governor
        if governor is not None:
            governor.reserve(frame.size)
        try:
            with self._lock:
                batch = self._entries.get(key)
                if batch is None:
                    self.misses += 1
                    batch = self._entries[key] = self._decode(frame)
                    self._resident += frame.size
                else:  # a racing reader decoded it
                    self._entries.move_to_end(key)
                    self.hits += 1
                while len(self._entries) > self._capacity:
                    self._drop_oldest()
                return batch
        finally:
            if governor is not None:
                governor.commit(frame.size)

    def _require_profile(self):
        if self.profile is None:
            raise FormatError(
                f"{self.path}: decoding records requires a profile "
                "(pass one to IntervalReader or use read_profile)"
            )
        return self.profile

    def _drop_oldest(self) -> None:
        (_offset, size), _batch = self._entries.popitem(last=False)
        self._resident -= size
        self.evictions += 1

    def _decode(self, frame):
        """The one columnar decode (lock held by caller)."""
        # Looked up at call time: repro.query imports the readers, and the
        # benchmark's tracer wraps the module attribute.
        from repro.query import columnar

        if self.salvage is not None:
            return columnar.batch_from_records(self._salvage(frame, self.salvage))
        view = self.source.view(frame.offset, frame.size)
        try:
            return self._strict(frame, view, columnar.decode_frame_batch)
        finally:
            view.release()

    def _strict(self, frame, data, decode):
        """Run one strict decoder over a frame's bytes with every check a
        strict read owes the caller: the bytes are all there, they decode,
        and they hold as many records as the directory promised."""
        profile = self._require_profile()
        if len(data) != frame.size:
            raise FormatError(
                f"{self.path}: frame at {frame.offset} runs past end of file"
            )
        try:
            decoded = decode(data, profile, self.field_mask)
        except DECODE_ERRORS as exc:
            raise FormatError(
                f"{self.path}: corrupt record in frame at offset "
                f"{frame.offset} ({exc})"
            ) from exc
        if len(decoded) != frame.n_records:
            raise FormatError(
                f"{self.path}: frame at {frame.offset}: decoded {len(decoded)} "
                f"records, directory says {frame.n_records}"
            )
        return decoded

    def _salvage(self, frame, report: SalvageReport) -> list[IntervalRecord]:
        """The one salvage decode (lock held by caller): as many records as
        the resynchronizing decoder recovers, damage accounted to ``report``."""
        profile = self._require_profile()
        blob = self.source.fetch(frame.offset, frame.size)
        records = salvage_frame_records(
            blob,
            profile,
            self.field_mask,
            base_offset=frame.offset,
            report=report,
            expected_records=frame.n_records,
            expected_size=frame.size,
            time_span=(frame.start_time, frame.end_time),
        )
        if not records and frame.n_records:
            report.frames_quarantined += 1
        return records
