"""Columnar frame batches: a frame's records as parallel arrays.

A record-at-a-time reader pays per record: a length-prefix decode, one
``struct.unpack_from`` per field, a dict and a dataclass per record.  For
full-scan aggregations that constant factor dominates.  This module decodes
a whole frame into **parallel numpy arrays** instead:

1. the frame is copied to ``bytes`` once, and one loop over it collects
   each record's prefix offset (only the length prefixes are examined — the
   property the paper's format guarantees); body offsets, lengths, escapes
   and overruns are then derived and checked vectorized;
2. the type words come from one gather over the body offsets
   (:func:`~repro.core.layout.gather_items`: the blob as one ``np.void``
   item per byte offset, one item copy per record);
3. records are grouped by interval type.  Every type whose present fields
   (under the file's selection mask) are fixed-size scalars is decoded with
   no per-record Python: the core columns of all types whose layouts hold
   them alike (one group per frame under the standard profile) come from
   one gather through their ``core_dtype``, each type's extras from one
   gather through its packed structured dtype;
4. types with vector/char fields (``seqnos`` on MPI_Waitall in the
   standard profile) fall back to the exact per-record field loop, so the
   batch is always complete.

The blob may arrive as a zero-copy :func:`memoryview` from
:meth:`~repro.core.bytesource.ByteSource.view`; since no array ever exports
it, the caller can release it whatever the decode raises, and every array
in the finished batch owns its data, so batches never pin the underlying
mmap.

A :class:`FrameBatch` is columns only, whoever builds it: the decoder,
convert and merge directly, :func:`batch_from_records` from record objects.
It answers the executor's needs over whole batches —
vectorized predicate masks (:meth:`FrameBatch.match`), int64 core columns
(:meth:`FrameBatch.core_array`), Python-value columns for projection
(:meth:`FrameBatch.column_values`), and reconstruction of the equivalent
:class:`~repro.core.records.IntervalRecord` objects
(:meth:`FrameBatch.to_records`) for the edges that want record objects
(the Figure-5 reader API, ``ute-dump``, the interop exporters).  A scan's
matching rows travel as batches
(:func:`~repro.query.engine.planned_batch_records`), and every analysis
above it — statistics tables, spans and the call profile, message arrows,
views — reads their columns without building a record.

The write path runs the same machinery backwards.  Every frame builder
input is a batch — rows are selected, reordered and joined as columns
(:meth:`FrameBatch.take`, :meth:`FrameBatch.rows`, :func:`concat_batches`)
— and :func:`encode_frame_batch` is the inverse of
:func:`decode_frame_batch`: group by type, fill one packed array per
fixed-layout type through the same :class:`~repro.core.layout.RecordLayout`
the decoder views bodies through, scatter the encoded records to their
offsets; rows no column can prove take the per-record encoder.
"""

from __future__ import annotations

import functools
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.layout import CORE_WIRE, RecordLayout, gather_items, layout_for, scatter_items
from repro.core.records import BeBits, IntervalRecord
from repro.errors import FormatError

__all__ = [
    "FrameBatch",
    "batch_from_records",
    "concat_batches",
    "decode_frame_batch",
    "encode_frame_batch",
    "pack_keys",
]

#: The int64 columns every batch carries.
_COLUMNS = ("start", "dura", "end", "node", "cpu", "thread", "itype", "bebits")


class FrameBatch:
    """One frame's records as parallel arrays (plus lazy extras).

    The type-specific fields sit in *groups*: ``(positions, names, values)``
    with ``values[name]`` aligned to ``positions`` — the ascending rows the
    group covers, or ``None`` for a group holding one value per row of the
    batch.  The decoder leaves one group per record type (``values`` is the
    type's structured array); a record's ``extra`` dict takes its keys
    group by group, and inside a group in ``names`` order."""

    __slots__ = (
        "n", "start", "dura", "end", "node", "cpu", "thread", "itype", "bebits",
        "_groups", "_extra_cache", "_value_cache", "__weakref__",
    )

    def __init__(self, n: int, columns: dict[str, np.ndarray] | None = None) -> None:
        self.n = n
        for name in _COLUMNS:
            setattr(self, name, np.zeros(n, np.int64) if columns is None else columns[name])
        self._groups: list[tuple[Any, tuple[str, ...], Any]] = []
        self._extra_cache: dict[str, list] = {}
        self._value_cache: dict[str, list] = {}

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
            col = [None] * self.n
            for positions, names, values in self._groups:
                if name in names:
                    for i, v in zip(self._rows_of(positions), _as_list(values[name])):
                        col[i] = v
            self._extra_cache[name] = col
        return col

    def has_extra(self, name: str) -> bool:
        """Whether any record carries the extra field ``name``."""
        return any(name in names for _, names, _ in self._groups)

    def extra_array(self, name: str) -> tuple[np.ndarray, np.ndarray | None] | None:
        """One extra field as one numeric array over every row, and the
        mask of rows that carry it (None: every row does) — int64 where the
        values are ints, float64 where they are floats; None when they are
        not all one of the two (vectors, chars, a mix, an int past int64).
        A record's value is what :meth:`to_records` gives it."""
        out = None
        present = np.zeros(self.n, dtype=bool)
        for at, names, group in self._groups:
            if name not in names:
                continue
            values = group[name]
            if not isinstance(values, np.ndarray):
                values = _numeric_array(values)
                if values is None:
                    return None
            dtype = _NUMERIC_DTYPES.get(values.dtype.kind)
            if dtype is None or out is not None and out.dtype != dtype:
                return None  # not numbers, or floats beside ints
            if values.dtype.kind == "u" and len(values) and int(values.max()) >= 1 << 63:
                return None
            if out is None:
                out = np.zeros(self.n, dtype=dtype)
            at = slice(None) if at is None else at
            out[at] = values
            present[at] = True
        if out is None:
            out = np.zeros(self.n, dtype=np.int64)
        return out, None if present.all() else present

    def extra_values(self, name: str) -> np.ndarray:
        """One extra field over every row, 0 where a row lacks it: the
        values of :meth:`extra_array`, or, where no one numeric dtype holds
        them, the Python values in an object array."""
        got = self.extra_array(name)
        if got is not None:
            return got[0]
        out = np.zeros(self.n, dtype=object)
        for i, v in enumerate(self.extra_column(name)):
            if v is not None:
                out[i] = v
        return out

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

    def extra_groups(self) -> Iterator[tuple[Any, tuple[str, ...], list]]:
        """The type-specific fields, group by group: ``(rows, names,
        columns)`` — the ascending row numbers the group covers (a list, or
        a ``range`` over every row), its field names, and per name the
        values aligned to ``rows`` (an array, or a list where the decoder
        had to go record by record).  A record's ``extra`` takes its keys
        in this order."""
        for positions, names, values in self._groups:
            yield self._rows_of(positions), names, [values[name] for name in names]

    def to_records(self) -> list[IntervalRecord]:
        """The equivalent record objects, in frame order."""
        extras: list[dict[str, Any]] = [{} for _ in range(self.n)]
        for rows, names, columns in self.extra_groups():
            for name, column in zip(names, columns):
                for i, v in zip(rows, _as_list(column)):
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

    # ---------------------------------------------------------- write path

    def add_column(self, name: str, values: np.ndarray) -> None:
        """Give every row the extra field ``name`` (one value per row)."""
        self._groups.append((None, (name,), {name: values}))

    def add_group(self, positions, names: tuple[str, ...], values) -> None:
        """Give the ascending rows ``positions`` the extra fields ``names``
        (``values[name]`` aligned to ``positions``)."""
        self._groups.append((positions, names, values))

    def retimed(self, start: np.ndarray, end: np.ndarray) -> "FrameBatch":
        """The same rows on another clock: new ``start``/``end`` columns
        (``dura`` follows), every other column and the extras shared."""
        columns = {c: getattr(self, c) for c in _COLUMNS}
        columns.update(start=start, end=end, dura=end - start)
        out = FrameBatch(self.n, columns)
        out._groups = list(self._groups)
        return out

    def rows(self, start: int, stop: int) -> "FrameBatch":
        """The contiguous rows ``[start, stop)`` as a batch (array views)."""
        out = FrameBatch(stop - start, {c: getattr(self, c)[start:stop] for c in _COLUMNS})
        for positions, names, values in self._groups:
            if positions is None:
                out._groups.append((None, names, _select(values, slice(start, stop))))
                continue
            lo, hi = np.searchsorted(positions, (start, stop)).tolist()
            if lo < hi:
                out._groups.append(
                    (np.asarray(positions[lo:hi]) - start, names, _select(values, slice(lo, hi)))
                )
        return out

    def where(self, mask: np.ndarray) -> "FrameBatch":
        """The rows ``mask`` marks, in order (this batch when it marks all)."""
        return self if mask.all() else self.take(np.nonzero(mask)[0])

    def take(self, rows: np.ndarray) -> "FrameBatch":
        """The (distinct) rows ``rows``, in that order, as a batch."""
        rows = np.asarray(rows, dtype=np.intp)
        out = FrameBatch(len(rows), {c: getattr(self, c)[rows] for c in _COLUMNS})
        moved = np.full(self.n, -1, dtype=np.intp)
        moved[rows] = np.arange(len(rows), dtype=np.intp)
        for positions, names, values in self._groups:
            if positions is None:
                out._groups.append((None, names, _select(values, rows)))
                continue
            at = moved[positions]
            keep = np.nonzero(at >= 0)[0]
            if len(keep):
                # Groups keep their rows ascending, whatever order was asked.
                keep = keep[np.argsort(at[keep], kind="stable")]
                out._groups.append((at[keep], names, _select(values, keep)))
        return out

    # ------------------------------------------------------------ internals

    def _rows_of(self, positions) -> Any:
        return range(self.n) if positions is None else _as_list(positions)


def _as_list(values):
    return values.tolist() if isinstance(values, np.ndarray) else values


#: The column dtype of each numpy kind a number field decodes to.
_NUMERIC_DTYPES = {"i": np.dtype(np.int64), "u": np.dtype(np.int64), "f": np.dtype(np.float64)}


def _numeric_array(values: list) -> np.ndarray | None:
    """Python values as an int64 or float64 array; None unless they are all
    ints (bools excluded) within int64, or all floats."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            return None
    return None


def _select(values, sel):
    """Group values at ``sel`` (a slice or an index array)."""
    if isinstance(values, np.ndarray):
        return values[sel]
    if isinstance(sel, slice):
        return {name: column[sel] for name, column in values.items()}
    return {
        name: column[sel] if isinstance(column, np.ndarray)
        else [column[i] for i in sel.tolist()]
        for name, column in values.items()
    }


def pack_keys(cols: Sequence[np.ndarray]) -> np.ndarray | None:
    """One int64 per row that orders rows like the tuples of ``cols`` (the
    first column most significant) and is equal exactly where they are —
    or None when the columns' value ranges multiply to ``2**62`` or more.

    Grouping on it is one integer sort instead of a lexsort (and
    ``np.unique(axis=0)``'s void-dtype sort is ~20x slower still).  The
    columns are non-empty and integer, ``uint64`` included: each is offset
    by its minimum in its own dtype, and only the offset, already known to
    fit, is cast, so nothing is promoted to float."""
    mins = [c.min() for c in cols]
    spans = [int(c.max()) - int(mn) + 1 for c, mn in zip(cols, mins)]
    capacity = 1
    for span in spans:
        capacity *= span
    if capacity >= 1 << 62:
        return None
    packed = (cols[0] - mins[0]).astype(np.int64)
    for c, mn, span in zip(cols[1:], mins[1:], spans[1:]):
        packed *= span
        packed += (c - mn).astype(np.int64, copy=False)
    return packed


def concat_batches(parts: Sequence[FrameBatch]) -> FrameBatch:
    """The rows of ``parts``, one after the other, as one batch.  Groups
    of one record type holding the same fields as arrays of the same dtypes
    (the type read under one mask, or records of one key set) join into one
    group, so a type still lines up with one group.  No parts at all is the
    empty batch."""
    parts = [p for p in parts if p.n] or list(parts[:1])
    if len(parts) <= 1:
        return parts[0] if parts else FrameBatch(0)
    out = FrameBatch(
        sum(p.n for p in parts),
        {c: np.concatenate([getattr(p, c) for p in parts]) for c in _COLUMNS},
    )
    groups = [p._groups for p in parts]
    per_row = _join_per_row(
        [[(names, values) for at, names, values in gs if at is None] for gs in groups]
    )
    typed: dict[tuple, tuple[tuple[str, ...], list, list]] = {}
    rest: list[tuple[Any, tuple[str, ...], Any]] = []
    offset = 0
    for part, gs in zip(parts, groups):
        for positions, names, values in gs:
            whole = positions is None
            if whole:
                if per_row is not None:
                    continue
                positions = np.arange(part.n, dtype=np.intp)
            itype = int(part.itype[positions[0]])
            positions = np.asarray(positions, dtype=np.intp) + offset
            # A per-row field group stays after the type groups it overlaps.
            if isinstance(values, np.ndarray) or not whole and _is_columns(names, values):
                key = (itype, names, _dtypes(names, values))
                _, at, pieces = typed.setdefault(key, (names, [], []))
                at.append(positions)
                pieces.append(values)
            else:
                rest.append((positions, names, values))
        offset += part.n
    out._groups = [
        (np.concatenate(at), names, _joined(names, pieces))
        for names, at, pieces in typed.values()
    ] + rest + (per_row or [])
    return out


def _dtypes(names: tuple[str, ...], values) -> Any:
    """A column group's dtype: one structured dtype, or one per name."""
    if isinstance(values, np.ndarray):
        return values.dtype
    return tuple(values[name].dtype for name in names)


def _joined(names: tuple[str, ...], pieces: list) -> Any:
    """Column groups of one dtype, joined end to end."""
    if isinstance(pieces[0], np.ndarray):
        return np.concatenate(pieces)
    return {name: np.concatenate([piece[name] for piece in pieces]) for name in names}


def _join_per_row(per_part: list[list[tuple]]) -> list | None:
    """The parts' per-row groups (``(names, values)`` each) joined end to
    end; None unless every part carries the same ones in the same dtypes."""
    first = per_part[0]
    if any([names for names, _ in other] != [names for names, _ in first]
           for other in per_part[1:]):
        return None
    joined = []
    for j, (names, _) in enumerate(first):
        columns = {}
        for name in names:
            pieces = [np.asarray(part[j][1][name]) for part in per_part]
            if any(piece.dtype != pieces[0].dtype for piece in pieces):
                return None
            columns[name] = np.concatenate(pieces)
        joined.append((None, names, columns))
    return joined


def batch_from_records(records: Sequence[IntervalRecord]) -> FrameBatch:
    """The batch of record objects (salvaged frames, records a writer is
    handed, a record list a view draws).  The rows of one type whose
    ``extra`` holds the same keys in the same order share one group; a
    field's values are an int64 or float64 array where they are all ints
    within int64 or all floats, else a list (the encoder then takes those
    rows one by one)."""
    n = len(records)
    batch = FrameBatch(n)
    if not n:
        return batch
    batch.start, batch.dura, batch.end = _time_columns(records)
    batch.node = _exact_ints([r.node for r in records])
    batch.cpu = _exact_ints([r.cpu for r in records])
    batch.thread = _exact_ints([r.thread for r in records])
    batch.itype = np.fromiter((r.itype for r in records), np.int64, count=n)
    batch.bebits = np.fromiter((int(r.bebits) for r in records), np.int64, count=n)
    keyed: dict[tuple, list[int]] = {}
    for i, r in enumerate(records):
        if r.extra:
            keyed.setdefault((r.itype, tuple(r.extra)), []).append(i)
    for (_, names), rows in keyed.items():
        extras = [records[i].extra for i in rows]
        values = {name: [extra[name] for extra in extras] for name in names}
        for name, column in values.items():
            array = _numeric_array(column)
            values[name] = column if array is None else array
        batch._groups.append((np.array(rows, dtype=np.intp), names, values))
    return batch


def _exact_ints(values: list) -> np.ndarray:
    """``values`` as int64 when all are ints (or bools) within int64, else
    in an object column, which no column encoder takes."""
    column = np.array(values)
    return column.astype(np.int64) if column.dtype.kind in "ib" else np.array(values, object)


def _time_columns(records: Sequence[IntervalRecord]) -> tuple[np.ndarray, ...]:
    """``(start, dura, end)`` of ``records``.  Readers never hand out a
    record whose times leave int64, but a writer may be asked to write one
    (damage reproduced on purpose): the frame it seals then carries exact
    Python values in object columns, for its sinks only."""
    start = _exact_ints([r.start for r in records])
    dura = _exact_ints([r.duration for r in records])
    if start.dtype == dura.dtype == np.int64:
        end = start + dura
        if ((end < start) == (dura < 0)).all():  # no wrap-around
            return start, dura, end
    start, dura = start.astype(object), dura.astype(object)
    return start, dura, start + dura


def _scan_record_frames(blob: bytes) -> tuple[list[int], np.ndarray, np.ndarray]:
    """(prefix offsets, body offsets, body lengths) of a frame's records,
    using only the length prefixes.  The walk collects prefix offsets
    alone; the checks run vectorized afterwards and name the first record
    whose prefix or body leaves the frame or whose body cannot hold a type
    word — the offset the record decoder stops at."""
    prefixes: list[int] = []
    append = prefixes.append
    pos = 0
    end = len(blob)
    try:
        while pos < end:
            append(pos)
            first = blob[pos]
            pos += first + 1 if first else 3 + (blob[pos + 1] | blob[pos + 2] << 8)
    except IndexError:
        pos = end + 1  # an escape cut short by the frame's end
    pre = np.fromiter(prefixes, np.intp, len(prefixes))
    lengths = np.frombuffer(blob, dtype=np.uint8)[pre].astype(np.intp)
    bodies = pre + 1
    escaped = np.flatnonzero(lengths == 0)
    if len(escaped):
        at = pre[escaped]
        fits = at + 3 <= end  # a cut escape keeps length 0: flagged below
        lengths[escaped[fits]] = gather_items(blob, at[fits] + 1, "<u2")
        bodies[escaped] += 2
    bad = lengths < 4
    # Each record ends where the walk found the next one, so only the last
    # can run past the frame.
    if pos > end:
        bad[-1] = True
    if bad.any():
        raise FormatError(f"truncated interval record at offset {prefixes[int(bad.argmax())]}")
    return prefixes, bodies, lengths


def _decode_group_slow(batch: FrameBatch, blob: bytes, profile, mask: int,
                       idx: np.ndarray, prefixes: list[int]) -> None:
    """Per-record fallback for types the structured dtype cannot express
    (vector/char fields) — same field loop, same errors, as the reference
    decoder."""
    for i in idx.tolist():
        record, _ = IntervalRecord.decode(blob, prefixes[i], profile, mask)
        batch.start[i] = record.start
        batch.dura[i] = record.duration
        batch.node[i] = record.node
        batch.cpu[i] = record.cpu
        batch.thread[i] = record.thread
        if record.extra:
            batch._groups.append(
                ([i], tuple(record.extra), {k: [v] for k, v in record.extra.items()})
            )


def _distinct_types(itype: np.ndarray) -> list[int]:
    """The interval types present, ascending.  Bincount is much cheaper
    than ``np.unique`` for the small type ids the formats use."""
    if int(itype.max()) < 4096:
        try:
            return np.nonzero(np.bincount(itype))[0].tolist()
        except ValueError:  # a negative id (only a writer can be handed one)
            pass
    return np.unique(itype).tolist()


def decode_frame_batch(data, profile, mask: int) -> FrameBatch:
    """Decode one frame blob into a :class:`FrameBatch`.

    ``data`` may be ``bytes`` or a (zero-copy) ``memoryview``; it is copied
    to ``bytes`` once, so no array ever exports the caller's buffer and the
    batch owns all of its arrays.  Raises
    :class:`~repro.errors.FormatError` on the same structural damage the
    record decoder rejects (truncated records, length mismatches, masks
    that strip core fields) and ``OverflowError`` when a record's time
    range leaves ``[0, 2**63)``.
    """
    if profile is None:
        raise FormatError("decoding records requires a profile")
    blob = bytes(data)
    prefixes, bodies, lengths = _scan_record_frames(blob)
    n = len(prefixes)
    batch = FrameBatch(n)
    if n == 0:
        return batch
    tw = gather_items(blob, bodies, "<u4")
    batch.itype = (tw >> np.uint32(2)).astype(np.int64)
    batch.bebits = (tw & np.uint32(3)).astype(np.int64)
    distinct = _distinct_types(batch.itype)
    whole = len(distinct) == 1
    # Rows per core dtype: the types whose core fields sit alike.
    cores: dict[np.dtype, list] = {}
    for itype in distinct:
        idx = None if whole else np.flatnonzero(batch.itype == itype)
        layout = layout_for(profile, itype, mask)
        if layout.fixed and bool(np.all((lengths if whole else lengths[idx]) == layout.size)):
            if layout.missing_core:
                raise FormatError(
                    f"record type {itype} is missing core fields "
                    f"{list(layout.missing_core)}; corrupt field selection mask?"
                )
            if layout.extra_names:
                values = gather_items(blob, bodies if whole else bodies[idx], layout.dtype)
                batch._groups.append((idx, layout.extra_names, values))
            cores.setdefault(layout.core_dtype, []).append(idx)
        else:
            # Vector/char layouts, or bodies whose length disagrees with the
            # fixed layout: decode those records exactly as the reference
            # decoder would (including its error messages).
            idx = np.arange(n, dtype=np.intp) if idx is None else idx
            _decode_group_slow(batch, blob, profile, mask, idx, prefixes)
    for dtype, parts in cores.items():
        rows = None if whole else np.concatenate(parts)
        if rows is None or len(rows) == n:
            core = gather_items(blob, bodies, dtype)
            for name in CORE_WIRE:
                setattr(batch, name, core[name].astype(np.int64))
        else:
            core = gather_items(blob, bodies[rows], dtype)
            for name in CORE_WIRE:
                getattr(batch, name)[rows] = core[name]  # casts in one pass
    batch.end = batch.start + batch.dura
    # u64 wire fields past 2**63 (or a sum past it) wrap negative in the
    # int64 columns; refuse them instead of answering with wrong times.
    if int((batch.start | batch.dura | batch.end).min()) < 0:
        raise OverflowError("a record's start + duration does not fit int64")
    return batch


def encode_frame_batch(batch: FrameBatch, profile, mask: int) -> tuple[bytes, np.ndarray]:
    """Encode a batch's records, in row order, against ``profile`` under
    ``mask``: ``(the bytes, each record's encoded size)`` — the inverse of
    :func:`decode_frame_batch`, and byte for byte what
    :meth:`IntervalRecord.encode` writes one record at a time.

    Every fixed-layout type is filled into one packed array and scattered
    to its records' offsets; a type with vector/char fields, rows whose
    extras do not sit in one group per type, and any value its wire field
    cannot hold go through the per-record encoder, so the errors are that
    encoder's (``struct.error``/``OverflowError`` for an out-of-range
    value — never a wrapped one)."""
    n = batch.n
    if n == 0:
        return b"", np.zeros(0, dtype=np.int64)
    distinct = _distinct_types(batch.itype)
    rows_of = {
        t: None if len(distinct) == 1 else np.nonzero(batch.itype == t)[0] for t in distinct
    }
    # A type's own group covers exactly its rows; rows of any other
    # positioned group can only be encoded one by one.
    first_row = {0 if idx is None else int(idx[0]): t for t, idx in rows_of.items()}
    own: dict[int, Any] = {}
    per_row = []
    loose = np.zeros(n, dtype=bool)
    for positions, names, values in batch._groups:
        if positions is None:
            per_row.append((names, values))
            continue
        itype = first_row.get(int(positions[0]))
        idx = rows_of.get(itype)
        if (
            itype is not None and itype not in own and _is_columns(names, values)
            and (np.array_equal(positions, idx) if idx is not None else len(positions) == n)
        ):
            own[itype] = (names, values)
        else:
            loose[positions] = True
    # Whole-column extremes screen the attribute fields without a reduction
    # per type; a type whose rows might not fit is checked on its own rows.
    attrs = {name: getattr(batch, name) for name in CORE_WIRE}
    attrs["rectype"] = (batch.itype << 2) | batch.bebits
    span = {name: (int(col.min()), int(col.max())) for name, col in attrs.items()}
    sizes = np.empty(n, dtype=np.int64)
    blocks: list[tuple[np.ndarray | None, np.ndarray]] = []
    single: list[np.ndarray] = []  # rows of the types encoded record by record
    for itype, idx in rows_of.items():
        layout = layout_for(profile, itype, mask)
        block = None
        if layout.fixed and not (loose.any() if idx is None else loose[idx].any()):
            block = _encode_fixed(layout, idx, n, attrs, span, own.get(itype), per_row)
        if block is None:
            single.append(np.arange(n, dtype=np.intp) if idx is None else idx)
        else:
            blocks.append((idx, block))
            sizes[idx if idx is not None else slice(None)] = block.dtype.itemsize
    singles: list[tuple[int, bytes]] = []
    if single:
        # In row order: the first record that fails is the one a
        # record-at-a-time encode of the whole batch fails on.
        rows = np.sort(np.concatenate(single))
        for i, record in zip(rows.tolist(), batch.take(rows).to_records()):
            blob = record.encode(profile, mask)
            singles.append((i, blob))
            sizes[i] = len(blob)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    for idx, block in blocks:
        scatter_items(out, starts if idx is None else starts[idx], block)
    for i, blob in singles:
        out[starts[i] : ends[i]] = np.frombuffer(blob, dtype=np.uint8)
    return out.tobytes(), sizes


def _encode_fixed(layout: RecordLayout, idx, n: int, attrs, span, own,
                  per_row) -> np.ndarray | None:
    """One fixed-layout type's rows (``idx``; None: all ``n``) as one
    array of its ``wire_dtype``, length prefix included; None when
    some value does not fit its wire field exactly (the caller then encodes
    those rows one by one)."""
    arr = np.zeros(n if idx is None else len(idx), dtype=layout.wire_dtype)
    for name in layout.names:
        bounds = None
        if name in attrs:
            values = attrs[name] if idx is None else attrs[name][idx]
            bounds = span[name]
        elif own is not None and name in own[0]:
            values = own[1][name]
        else:
            values = next((v[name] for names, v in per_row if name in names), None)
            if values is None:
                continue  # absent from the rows' extras: the zero default
            if idx is not None:
                values = values[idx]
        target = arr.dtype[name]
        if not (_holds(target, values, bounds) or bounds and _holds(target, values, None)):
            return None
        arr[name] = values
    block = arr.view(np.uint8).reshape(len(arr), arr.dtype.itemsize)
    block[:, : len(layout.prefix)] = np.frombuffer(layout.prefix, dtype=np.uint8)
    return arr


def _is_columns(names, values) -> bool:
    """Whether a group's values are arrays (one structured array, or one
    array per name) rather than lists of Python values."""
    return isinstance(values, np.ndarray) or all(
        isinstance(values[name], np.ndarray) for name in names
    )


def _holds(target: np.dtype, values: np.ndarray, bounds: tuple[int, int] | None) -> bool:
    """Whether every value is exactly representable in wire field
    ``target`` (``bounds``: the values' known min and max)."""
    if values.dtype == target:
        return True
    if target.kind not in "iu" or values.dtype.kind not in "iu":
        return False
    if bounds is None:
        if not len(values):
            return True
        bounds = (int(values.min()), int(values.max()))
    lo, hi = _limits(target)
    return lo <= bounds[0] and bounds[1] <= hi


@functools.cache
def _limits(target: np.dtype) -> tuple[int, int]:
    """The least and greatest value of integer dtype ``target``."""
    info = np.iinfo(target)
    return int(info.min), int(info.max)
