"""Columnar frame batches: decode a frame into parallel arrays.

The record-at-a-time executor pays per record: a length-prefix decode, one
``struct.unpack_from`` per field, a dict and a dataclass per record.  For
full-scan aggregations that constant factor dominates.  This module decodes
a whole frame into **parallel numpy arrays** instead:

1. one pass over the frame blob collects each record's body offset and
   length (only the length prefixes are examined — the property the paper's
   format guarantees);
2. the type words are gathered vectorized from the blob;
3. records are grouped by interval type; every type whose present fields
   (under the file's selection mask) are fixed-size scalars is decoded with
   a single ``np.frombuffer`` over the gathered bodies using a packed
   structured dtype — no per-record Python at all;
4. types with vector/char fields (``seqnos`` on MPI_Waitall in the
   standard profile) fall back to the exact per-record field loop, so the
   batch is always complete.

The blob arrives as a zero-copy :func:`memoryview` from
:meth:`~repro.core.bytesource.ByteSource.view` where the backend allows it;
every array in the finished batch owns its data, so batches never pin the
underlying mmap.

A :class:`FrameBatch` answers the executor's needs over whole batches —
vectorized predicate masks (:meth:`FrameBatch.match`), int64 core columns
(:meth:`FrameBatch.core_array`), Python-value columns for projection
(:meth:`FrameBatch.column_values`), and reconstruction of the equivalent
:class:`~repro.core.records.IntervalRecord` objects
(:meth:`FrameBatch.to_records`) for consumers that still want records.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.fields import DataType
from repro.core.records import BeBits, IntervalRecord
from repro.errors import FormatError

__all__ = [
    "FrameBatch",
    "batch_from_records",
    "decode_frame_batch",
    "planned_batch_records",
]

#: Core field names of the wire format (always present, never null).
_CORE_WIRE = ("start", "dura", "node", "cpu", "thread")

#: numpy kind letter per field data type (char/vector fields have none).
_NP_KIND = {DataType.UINT: "u", DataType.INT: "i", DataType.FLOAT: "f"}


class _TypeLayout:
    """Memoized per-(profile, itype, mask) decode plan for one record type."""

    __slots__ = ("fixed", "size", "dtype", "names", "extra_names", "missing_core")

    def __init__(self, specs, field_names) -> None:
        names: list[str] = []
        formats: list[str] = []
        offsets: list[int] = []
        pos = 0
        self.fixed = True
        for fs in specs:
            if fs.vector or fs.dtype == DataType.CHAR:
                self.fixed = False
                break
            names.append(field_names[fs.name_index])
            formats.append(f"<{_NP_KIND[fs.dtype]}{fs.elem_len}")
            offsets.append(pos)
            pos += fs.elem_len
        if self.fixed and len(set(names)) != len(names):
            self.fixed = False  # duplicate names cannot form a structured dtype
        if self.fixed:
            self.size = pos
            self.dtype = np.dtype(
                {"names": names, "formats": formats, "offsets": offsets, "itemsize": pos}
            )
            self.names = tuple(names)
            self.extra_names = tuple(
                n for n in names if n != "rectype" and n not in _CORE_WIRE
            )
            self.missing_core = tuple(n for n in _CORE_WIRE if n not in names)
        else:
            self.size = 0
            self.dtype = None
            self.names = ()
            self.extra_names = ()
            self.missing_core = ()


def _layout_for(profile, itype: int, mask: int) -> _TypeLayout:
    cache = getattr(profile, "_columnar_layouts", None)
    if cache is None:
        cache = {}
        profile._columnar_layouts = cache
    key = (itype, mask)
    layout = cache.get(key)
    if layout is None:
        layout = _TypeLayout(profile.fields_for(itype, mask), profile.field_names)
        cache[key] = layout
    return layout


class FrameBatch:
    """One frame's records as parallel arrays (plus lazy extras)."""

    __slots__ = (
        "n", "start", "dura", "end", "node", "cpu", "thread", "itype", "bebits",
        "_extras", "_extra_cache", "_value_cache", "_records",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.start = np.zeros(n, np.int64)
        self.dura = np.zeros(n, np.int64)
        self.end = np.zeros(n, np.int64)
        self.node = np.zeros(n, np.int64)
        self.cpu = np.zeros(n, np.int64)
        self.thread = np.zeros(n, np.int64)
        self.itype = np.zeros(n, np.int64)
        self.bebits = np.zeros(n, np.int64)
        #: (field name, positions, values) chunks in decode order: group by
        #: group, and inside a group in the type's profile field order —
        #: which is the key order of each materialised ``extra`` dict.
        self._extras: list[tuple[str, Any, Any]] = []
        self._extra_cache: dict[str, list] = {}
        self._value_cache: dict[str, list] = {}
        self._records: list[IntervalRecord] | None = None

    def __len__(self) -> int:
        return self.n

    # -------------------------------------------------------------- columns

    def core_array(self, name: str) -> np.ndarray:
        """A numeric core column as int64 (``type`` is the interval type)."""
        if name == "type":
            return self.itype
        if name == "rectype":
            return (self.itype << 2) | self.bebits
        arr = getattr(self, name, None)
        if not isinstance(arr, np.ndarray):
            raise FormatError(f"{name!r} is not a core column")
        return arr

    def extra_column(self, name: str) -> list:
        """One extra field as a Python-value list (``None`` where the
        record's type does not carry the field)."""
        col = self._extra_cache.get(name)
        if col is None:
            if self._records is not None:
                col = [r.extra.get(name) for r in self._records]
            else:
                col = [None] * self.n
                for chunk_name, positions, values in self._extras:
                    if chunk_name == name:
                        for i, v in zip(_as_list(positions), _as_list(values)):
                            col[i] = v
            self._extra_cache[name] = col
        return col

    def column_values(self, name: str) -> list:
        """Any projected column as Python values, matching
        :func:`repro.query.model.record_value` exactly."""
        col = self._value_cache.get(name)
        if col is None:
            if name in ("start", "end", "dura", "node", "cpu", "thread",
                        "type", "bebits", "rectype"):
                col = self.core_array(name).tolist()
            else:
                col = self.extra_column(name)
            self._value_cache[name] = col
        return col

    # ----------------------------------------------------------- predicates

    def match(self, query) -> np.ndarray:
        """Boolean mask of records satisfying every query predicate
        (the vectorized twin of :meth:`repro.query.model.Query.matches`)."""
        mask = np.ones(self.n, dtype=bool)
        if query.t0 is not None:
            mask &= self.end >= query.t0
        if query.t1 is not None:
            mask &= self.start <= query.t1
        if query.nodes:
            mask &= np.isin(self.node, np.fromiter(query.nodes, np.int64))
        if query.threads:
            tmask = np.zeros(self.n, dtype=bool)
            for sel in query.threads:
                m = self.thread == sel.thread
                if sel.node is not None:
                    m &= self.node == sel.node
                tmask |= m
            mask &= tmask
        if query.types:
            mask &= np.isin(self.itype, np.fromiter(query.types, np.int64))
        return mask

    # -------------------------------------------------------------- records

    def to_records(self) -> list[IntervalRecord]:
        """The equivalent record objects, in frame order."""
        if self._records is not None:
            return list(self._records)
        extras: list[dict[str, Any]] = [{} for _ in range(self.n)]
        for name, positions, values in self._extras:
            for i, v in zip(_as_list(positions), _as_list(values)):
                extras[i][name] = v
        starts = self.start.tolist()
        duras = self.dura.tolist()
        nodes = self.node.tolist()
        cpus = self.cpu.tolist()
        threads = self.thread.tolist()
        itypes = self.itype.tolist()
        bebits = self.bebits.tolist()
        return [
            IntervalRecord(
                itypes[i], BeBits(bebits[i]), starts[i], duras[i],
                nodes[i], cpus[i], threads[i], extras[i],
            )
            for i in range(self.n)
        ]

    def records_at(self, positions: Sequence[int] | np.ndarray) -> list[IntervalRecord]:
        """Records at the given frame positions (e.g. a match mask's
        ``nonzero`` indices)."""
        records = self._records if self._records is not None else self.to_records()
        return [records[i] for i in _as_list(positions)]

    # ------------------------------------------------------------ internals

    def _add_extra(self, name: str, positions, values) -> None:
        self._extras.append((name, positions, values))


def _as_list(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


def batch_from_records(records: Sequence[IntervalRecord]) -> FrameBatch:
    """A batch over already-decoded records (the salvage-mode path: the
    resynchronizing decoder owns error recovery, the batch just mirrors
    its output so both executors see identical salvaged records)."""
    n = len(records)
    batch = FrameBatch(n)
    if n:
        batch.start = np.fromiter((r.start for r in records), np.int64, count=n)
        batch.dura = np.fromiter((r.duration for r in records), np.int64, count=n)
        batch.node = np.fromiter((r.node for r in records), np.int64, count=n)
        batch.cpu = np.fromiter((r.cpu for r in records), np.int64, count=n)
        batch.thread = np.fromiter((r.thread for r in records), np.int64, count=n)
        batch.itype = np.fromiter((r.itype for r in records), np.int64, count=n)
        batch.bebits = np.fromiter((int(r.bebits) for r in records), np.int64, count=n)
        batch.end = batch.start + batch.dura
    batch._records = list(records)
    return batch


def _scan_record_frames(blob) -> tuple[list[int], list[int], list[int]]:
    """One cheap pass over a frame blob: (prefix offset, body offset, body
    length) per record, using only the length prefixes."""
    prefixes: list[int] = []
    bodies: list[int] = []
    lengths: list[int] = []
    pos = 0
    end = len(blob)
    while pos < end:
        first = blob[pos]
        if first:
            body = pos + 1
            body_len = first
        else:
            if pos + 3 > end:
                raise FormatError(f"truncated interval record at offset {pos}")
            body_len = blob[pos + 1] | (blob[pos + 2] << 8)
            body = pos + 3
        nxt = body + body_len
        if body_len < 4 or nxt > end:
            raise FormatError(f"truncated interval record at offset {pos}")
        prefixes.append(pos)
        bodies.append(body)
        lengths.append(body_len)
        pos = nxt
    return prefixes, bodies, lengths


def _scatter_fixed(batch: FrameBatch, layout: _TypeLayout, itype: int,
                   idx: np.ndarray | None, arr: np.ndarray) -> None:
    """Write one fixed-layout type group's decoded fields into the batch;
    ``idx is None`` means the group is the whole frame (no scatter)."""
    if layout.missing_core:
        raise FormatError(
            f"record type {itype} is missing core fields "
            f"{list(layout.missing_core)}; corrupt field selection mask?"
        )
    if idx is None:
        batch.start = arr["start"].astype(np.int64)
        batch.dura = arr["dura"].astype(np.int64)
        batch.node = arr["node"].astype(np.int64)
        batch.cpu = arr["cpu"].astype(np.int64)
        batch.thread = arr["thread"].astype(np.int64)
        positions: Any = range(batch.n)
    else:
        # Assignment into the int64 columns casts in one pass.
        batch.start[idx] = arr["start"]
        batch.dura[idx] = arr["dura"]
        batch.node[idx] = arr["node"]
        batch.cpu[idx] = arr["cpu"]
        batch.thread[idx] = arr["thread"]
        positions = idx
    for name in layout.extra_names:
        batch._add_extra(name, positions, arr[name])


def _decode_group_slow(batch: FrameBatch, blob: bytes, profile, mask: int,
                       idx: np.ndarray, prefixes: list[int]) -> None:
    """Per-record fallback for types the structured dtype cannot express
    (vector/char fields) — same field loop, same errors, as the record
    executor."""
    for i in idx.tolist():
        record, _ = IntervalRecord.decode(blob, prefixes[i], profile, mask)
        batch.start[i] = record.start
        batch.dura[i] = record.duration
        batch.node[i] = record.node
        batch.cpu[i] = record.cpu
        batch.thread[i] = record.thread
        for name, value in record.extra.items():
            batch._add_extra(name, [i], [value])


def decode_frame_batch(data, profile, mask: int) -> FrameBatch:
    """Decode one frame blob into a :class:`FrameBatch`.

    ``data`` may be ``bytes`` or a (zero-copy) ``memoryview``; the returned
    batch owns all of its arrays either way.  Raises
    :class:`~repro.errors.FormatError` on the same structural damage the
    record decoder rejects (truncated records, length mismatches, masks
    that strip core fields) and ``OverflowError`` when a record's time
    range leaves ``[0, 2**63)``.
    """
    if profile is None:
        raise FormatError("decoding records requires a profile")
    mv = data if isinstance(data, memoryview) else memoryview(data)
    buf = None
    try:
        prefixes, bodies, lengths = _scan_record_frames(mv)
        n = len(bodies)
        batch = FrameBatch(n)
        if n == 0:
            return batch
        buf = np.frombuffer(mv, dtype=np.uint8)
        off = np.array(bodies, dtype=np.intp)
        size_arr = np.array(lengths, dtype=np.int64)
        tw = (
            buf[off].astype(np.uint32)
            | (buf[off + 1].astype(np.uint32) << np.uint32(8))
            | (buf[off + 2].astype(np.uint32) << np.uint32(16))
            | (buf[off + 3].astype(np.uint32) << np.uint32(24))
        )
        batch.itype = (tw >> np.uint32(2)).astype(np.int64)
        batch.bebits = (tw & np.uint32(3)).astype(np.int64)
        fallback_blob: bytes | None = data if isinstance(data, bytes) else None
        # Distinct types via bincount — much cheaper than np.unique for the
        # small type ids the formats use (falls back above 4096).
        max_itype = int(batch.itype.max())
        if max_itype < 4096:
            distinct = np.nonzero(np.bincount(batch.itype))[0].tolist()
        else:
            distinct = np.unique(batch.itype).tolist()
        for itype in distinct:
            whole = len(distinct) == 1
            idx = None if whole else np.nonzero(batch.itype == itype)[0]
            sizes = size_arr if whole else size_arr[idx]
            layout = _layout_for(profile, itype, mask)
            if layout.fixed and bool(np.all(sizes == layout.size)):
                size = layout.size
                body_off = off if whole else off[idx]
                # One vectorized gather of every body into a (n, size)
                # uint8 block, reinterpreted as the packed record dtype.
                gathered = buf[body_off[:, None] + np.arange(size, dtype=np.intp)]
                arr = gathered.view(layout.dtype).reshape(-1)
                _scatter_fixed(batch, layout, itype, idx, arr)
            else:
                # Vector/char layouts, or bodies whose length disagrees with
                # the fixed layout: decode those records exactly as the
                # record executor would (including its error messages).
                if fallback_blob is None:
                    fallback_blob = mv.tobytes()
                if idx is None:
                    idx = np.arange(n, dtype=np.intp)
                _decode_group_slow(batch, fallback_blob, profile, mask, idx, prefixes)
        batch.end = batch.start + batch.dura
        # u64 wire fields past 2**63 (or a sum past it) wrap negative in the
        # int64 columns; refuse them instead of answering with wrong times.
        if int((batch.start | batch.dura | batch.end).min()) < 0:
            raise OverflowError("a record's start + duration does not fit int64")
        return batch
    finally:
        # Drop every export of the caller's view before returning, so a
        # zero-copy mmap-backed view can be released immediately.
        buf = None
        if mv is not data:
            mv.release()


def planned_batch_records(handle, query, plan) -> Iterator[IntervalRecord]:
    """Records of the planned frames that pass the query's predicates,
    materialized from columnar batches (one vectorized predicate pass per
    frame) — the record stream of every product path that wants objects."""
    for ordinal in plan.frames:
        batch = handle.read_frame_batch(ordinal)
        mask = batch.match(query)
        if mask.all():
            yield from batch.to_records()
        elif mask.any():
            yield from batch.records_at(np.nonzero(mask)[0])
