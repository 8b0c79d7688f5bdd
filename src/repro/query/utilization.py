"""Sparse utilization hierarchy: aggregate answers for any zoom level.

The frame display is O(frame), but a *wide* window — the whole run of a
multi-GB trace — still touches every record it covers.  This module is
the aggregate layer that breaks that dependency: per-thread (and
per-CPU) utilization bins at power-of-two resolutions, held as flat
columns sorted by (lane, bin, state), so a view over any window answers
from one masked pass over a bin column instead of record decodes
(Traveler's sparse utilization lists, with the drill-down-below-a-
density-threshold discipline of aggregate-driven visualization).  The
answer is columns too (:class:`WindowCells`: bins, counts, busy and
dominant state per cell, offsets per lane) — the view and payload
builders do array arithmetic on them, and per-cell tuples exist only for
a caller that asks for a lane's cells one by one.

Every bin lives on an **absolute power-of-two grid**: at shift ``k`` a
bin covers ``[i << k, (i + 1) << k)`` ticks and a timestamp ``t`` falls
in bin ``t >> k``.  Two sibling bins at shift ``k`` merge *exactly* into
their parent at ``k + 1`` — counts add, per-state busy overlaps add —
which buys two properties the span-relative grids of earlier formats
could not offer:

* **determinism** — the finest shift and the level count are pure
  functions of the record multiset, never of arrival order or chunking;
* **exact live incrementality** — the streaming writer's snapshot is the
  same structure a post-hoc rebuild of the assembled file produces.

Each occupied bin carries the **record count** (records *starting* in
the bin), and a **per-state busy histogram** (clipped overlap of every
record against the bin, keyed by interval type); total busy duration is
the histogram sum and the dominant state is its argmax.  Clock pairs and
zero-duration pseudo-pieces are excluded, mirroring what the piece views
draw.  Only the **finest level** is built, held densely and persisted
(run-length coded, docs/FORMAT.md section 7); every coarser level is its
exact fold, computed once on first use and kept — sibling sums are
associative, so a level folded straight from any finer one equals the
level-by-level chain bit for bit, and "levels that disagree with each
other" is not a state the index or its file can be in.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from repro.core.records import IntervalRecord, IntervalType
from repro.errors import FormatError
from repro.query.columnar import FrameBatch, batch_from_records, pack_keys

__all__ = [
    "DEFAULT_BASE_BINS",
    "UtilizationBuilder",
    "UtilizationIndex",
    "cpu_key",
    "dominant_state",
    "lane_keys",
    "levels_for_span",
    "shift_for_span",
    "split_thread_key",
    "thread_key",
    "utilization_json",
    "utilization_payload",
]

#: Target number of occupied bins at the finest level: the finest shift is
#: the smallest ``k`` with ``(t_max >> k) - (t_min >> k) + 1 <= cap``.
DEFAULT_BASE_BINS = 4096

#: Hard ceiling on persisted levels (2^48 ticks at nanosecond resolution
#: is three days — no trace outgrows this).
MAX_LEVELS = 48

_UTIL_HEADER = struct.Struct("<IIqqII")  # base_shift, n_levels, t_min, t_max, n_thread, n_cpu
_LEVEL_HEADER = struct.Struct("<II")     # n_cells, n_state_rows (before a table's level-0 columns)
_RUNS_HEADER = struct.Struct("<IBB")     # n_runs, dtype code of the values, of the lengths

#: Run-coded arrays are narrowed to the smallest of these that holds their
#: maximum; the one-byte dtype code is the position here.
_RUN_DTYPES = ("<u1", "<u2", "<u4", "<u8")

#: One occupied bin: (records starting here, {interval type: busy ticks}).
Cell = tuple[int, dict[int, int]]

#: Aggregation rows: parallel (lane, bin, state, count, busy) arrays.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def thread_key(node: int, thread: int) -> int:
    """Pack a (node, thread) pair into a 64-bit lane key."""
    return ((node & 0xFFFFFFFF) << 32) | (thread & 0xFFFFFFFF)


def split_thread_key(key: int) -> tuple[int, int]:
    """Unpack a 64-bit lane key back into its (node, sub) pair."""
    return key >> 32, key & 0xFFFFFFFF


def cpu_key(node: int, cpu: int) -> int:
    """Pack a (node, cpu) pair into a 64-bit lane key (same scheme as
    :func:`thread_key`; the two key spaces never mix)."""
    return ((node & 0xFFFFFFFF) << 32) | (cpu & 0xFFFFFFFF)


def lane_keys(node: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """:func:`thread_key` / :func:`cpu_key` over whole columns (uint64)."""
    return ((node & 0xFFFFFFFF).astype(np.uint64) << np.uint64(32)) | (
        sub & 0xFFFFFFFF
    ).astype(np.uint64)


def shift_for_span(t_min: int, t_max: int, cap: int, start: int = 0) -> int:
    """The smallest shift ``>= start`` whose grid covers ``[t_min, t_max]``
    in at most ``cap`` bins — deterministic in the span alone, and
    monotone: a wider span can only yield an equal or larger shift, so a
    builder growing its shift epoch by epoch (``start``) lands on the grid
    a rebuild of the same records picks (live snapshot == rebuild)."""
    k = start
    while (t_max >> k) - (t_min >> k) + 1 > cap:
        k += 1
    return k


def levels_for_span(t_min: int, t_max: int, base_shift: int) -> int:
    """Number of levels from ``base_shift`` until one bin holds the whole
    span (so the coarsest level answers any window in O(1))."""
    n = 1
    while (
        (t_max >> (base_shift + n - 1)) != (t_min >> (base_shift + n - 1))
        and n < MAX_LEVELS
    ):
        n += 1
    return n


def dominant_state(states: dict[int, int]) -> int:
    """The state with the largest busy share (smallest type id on ties,
    so the answer is deterministic).  The per-cell reference of
    :meth:`Level.dominant` (tests/test_view_columns.py compares them)."""
    if len(states) == 1:
        (state,) = states
        return state
    return min(states, key=lambda s: (-states[s], s))


def _starts(*columns: np.ndarray) -> np.ndarray:
    """Positions where any of the (sorted, parallel) columns changes — the
    first row of every group."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for col in columns:
        first[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(first)


def _sum_runs(rows: _Rows) -> _Rows:
    """Sum every run of neighbouring rows that share (lane, bin, state)."""
    lane, bins, state, count, busy = rows
    starts = _starts(lane, bins, state)
    return (
        lane[starts], bins[starts], state[starts],
        np.add.reduceat(count, starts), np.add.reduceat(busy, starts),
    )


def _aggregate(rows: _Rows) -> _Rows:
    """Sort rows by (lane, bin, state) and sum duplicates (exact).

    The key is one packed int64 (:func:`~repro.query.columnar.pack_keys`)
    sorted *stably*, so rows already in order — each record's run of bins,
    a chunk aggregated before — are runs timsort merges instead of
    re-sorting.  Only the key and the two sums are permuted; lane, bin and
    state are read at each group's first row.  A key that would overflow
    62 bits falls back to a lexsort of the three columns.  A live publish
    does not come here with every row it holds: :func:`_merge` sorts only
    the new rows and the held rows they can reach."""
    lane, bins, state, count, busy = rows
    if not len(lane):
        return rows
    packed = pack_keys((lane, bins, state))
    if packed is None:
        order = np.lexsort((state, bins, lane))
        return _sum_runs(tuple(column[order] for column in rows))
    order = np.argsort(packed, kind="stable")
    starts = _starts(packed[order])
    first = order[starts]
    return (
        lane[first], bins[first], state[first],
        np.add.reduceat(count[order], starts), np.add.reduceat(busy[order], starts),
    )


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lengths)])``."""
    out = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    out += np.arange(len(out))
    return out


class Level(NamedTuple):
    """One resolution of one lane kind, cells sorted by (lane, bin).

    Lane ``i`` of the owning table holds cells ``offsets[i] ..
    offsets[i + 1]``; cell ``c`` holds state rows ``state_off[c] ..
    state_off[c + 1]`` (sorted by state) whose busy ticks sum to
    ``totals[c]``.  All int64."""

    offsets: np.ndarray
    bins: np.ndarray
    counts: np.ndarray
    totals: np.ndarray
    state_off: np.ndarray
    states: np.ndarray
    busy: np.ndarray

    @classmethod
    def of(cls, offsets, bins, counts, state_off, states, busy) -> "Level":
        totals = np.add.reduceat(busy, state_off[:-1])
        return cls(offsets, bins, counts, totals, state_off, states, busy)

    def cells(self, sel: np.ndarray, k: int) -> list[tuple[int, int, int, int, dict[int, int]]]:
        """The cells at (sorted) positions ``sel`` as ``(bin << k, (bin + 1)
        << k, count, busy, {state: busy})`` tuples — :class:`WindowCells`'
        mapping form, read by ``aggregate_vs_exact`` and the view parity tests."""
        bins = self.bins[sel]
        first = self.state_off[sel]
        n_states = self.state_off[sel + 1] - first
        totals = self.totals[sel].tolist()
        # Python objects are the whole cost here: every cell first gets the
        # cheap single-state literal, then the multi-state ones are redone
        # from one iterator over their gathered state rows.
        states = [{s: t} for s, t in zip(self.states[first].tolist(), totals)]
        many = np.flatnonzero(n_states > 1)
        rows = _ranges(first[many], n_states[many])
        pairs = zip(self.states[rows].tolist(), self.busy[rows].tolist())
        for i, n in zip(many.tolist(), n_states[many].tolist()):
            states[i] = dict(islice(pairs, n))
        return list(zip(
            (bins << k).tolist(), ((bins + 1) << k).tolist(),
            self.counts[sel].tolist(), totals, states,
        ))

    def dominant(self, sel: np.ndarray) -> np.ndarray:
        """:func:`dominant_state` of the cells at positions ``sel``, as a
        column: a segmented max over each cell's state rows, then the
        smallest state among those that reach it."""
        first = self.state_off[sel]
        n_states = self.state_off[sel + 1] - first
        out = self.states[first]
        many = np.flatnonzero(n_states > 1)
        if len(many):
            n_states = n_states[many]
            rows = _ranges(first[many], n_states)
            starts = np.cumsum(n_states) - n_states
            busy = self.busy[rows]
            top = np.repeat(np.maximum.reduceat(busy, starts), n_states)
            tying = np.where(busy == top, self.states[rows], np.iinfo(np.int64).max)
            out[many] = np.minimum.reduceat(tying, starts)
        return out


def _level_of(rows: _Rows) -> tuple[np.ndarray, Level]:
    """Aggregated rows -> (lane keys, two-tier level)."""
    lane, bins, state, count, busy = rows
    starts = _starts(lane, bins)
    cell_lane = lane[starts]
    first = _starts(cell_lane)
    return cell_lane[first], Level.of(
        np.append(first, len(starts)), bins[starts],
        np.add.reduceat(count, starts), np.append(starts, len(lane)), state, busy,
    )


def _rows_of(keys: np.ndarray, level: Level) -> _Rows:
    """A level back as aggregation rows (each cell's record count rides
    on its first state row)."""
    n_states = np.diff(level.state_off)
    count = np.zeros(len(level.states), np.int64)
    count[level.state_off[:-1]] = level.counts
    return (
        np.repeat(np.repeat(keys, np.diff(level.offsets)), n_states),
        np.repeat(level.bins, n_states), level.states, count, level.busy,
    )


def _merge(keys: np.ndarray, level: Level, loose: list[_Rows]) -> tuple[np.ndarray, Level]:
    """:func:`_level_of` of :func:`_aggregate` of ``level``'s rows and the
    ``loose`` chunks, without touching the cells no loose row can reach.

    Within a lane, the cells at or past the loose rows' first bin are a
    suffix of the lane's cells, and every cell before it precedes every
    loose row of the lane.  Only those suffixes go back to rows and through
    :func:`_aggregate` with the loose rows (which sums the rows of a cell
    both sides hit); the cells that come out replace each lane's suffix,
    one splice per column.  Correct in any order: rows arriving out of
    order only lengthen the suffixes, and frames sealed in end order keep
    them short."""
    reach = min(int(rows[1].min(initial=np.iinfo(np.int64).max)) for rows in loose)
    tail = np.flatnonzero(level.bins >= reach)
    n_states = level.state_off[tail + 1] - level.state_off[tail]
    at = _ranges(level.state_off[tail], n_states)
    count = np.zeros(len(at), np.int64)
    count[np.cumsum(n_states) - n_states] = level.counts[tail]
    lane = keys[np.searchsorted(level.offsets, tail, "right") - 1]
    tail_rows = (
        np.repeat(lane, n_states), np.repeat(level.bins[tail], n_states),
        level.states[at], count, level.busy[at],
    )
    new_keys, new = _level_of(_aggregate(tuple(map(np.concatenate, zip(tail_rows, *loose)))))

    # Lane g of ``new`` replaces cells cut[g] .. end[g] of ``level``: the
    # lane's suffix, or nothing at the place of a lane ``level`` lacks.
    li = np.searchsorted(keys, new_keys)
    known = li < len(keys)
    known[known] = keys[li[known]] == new_keys[known]
    start = level.offsets[li]
    end = level.offsets[li + known]
    cut = end - np.searchsorted(tail, end) + np.searchsorted(tail, start)
    # The pieces, alternating: ``level``'s cells 0 .. cut[0], ``new``'s
    # lane 0, ``level``'s end[0] .. cut[1], ..., ``level``'s from end[-1].
    lo, hi, row_lo, row_hi = np.empty((4, 2 * len(new_keys) + 1), np.int64)
    lo[0::2], hi[0::2] = np.append(0, end), np.append(cut, len(level.bins))
    lo[1::2], hi[1::2] = new.offsets[:-1], new.offsets[1:]
    for side, src in enumerate((level, new)):
        row_lo[side::2], row_hi[side::2] = src.state_off[lo[side::2]], src.state_off[hi[side::2]]

    def splice(column: str, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        sources = (getattr(level, column), getattr(new, column))
        parts = enumerate(zip(lo.tolist(), hi.tolist()))
        return np.concatenate([sources[i & 1][a:b] for i, (a, b) in parts])

    # Each piece's cell offsets move by where its rows land; the last piece
    # carries the closing offset.
    closed = hi.copy()
    closed[-1] += 1
    state_off = splice("state_off", lo, closed)
    rows = row_hi - row_lo
    state_off += np.repeat(np.cumsum(rows) - rows - row_lo, closed - lo)

    lanes = np.union1d(keys, new_keys)
    per_lane = np.zeros(len(lanes), np.int64)
    per_lane[np.searchsorted(lanes, keys)] = np.diff(level.offsets)
    per_lane[np.searchsorted(lanes, new_keys)] = cut - start + np.diff(new.offsets)
    return lanes, Level(
        np.concatenate(([0], np.cumsum(per_lane))), splice("bins", lo, hi),
        splice("counts", lo, hi), splice("totals", lo, hi), state_off,
        splice("states", row_lo, row_hi), splice("busy", row_lo, row_hi),
    )


class Levels:
    """Every resolution of one lane kind, as a sequence of :class:`Level`.

    Only the finest is given; ``levels[li]`` is its exact fold by ``li``
    halvings — one :func:`_aggregate` pass over the nearest finer level
    already held, kept for the next caller.  A level is stored only once
    it is complete, so readers racing to the same one at worst both fold
    it and either result (they are equal) stays."""

    def __init__(self, keys: np.ndarray, finest: Level, n_levels: int) -> None:
        self._keys = keys
        self._held: list[Level | None] = [finest] + [None] * (n_levels - 1)

    def __len__(self) -> int:
        return len(self._held)

    def __getitem__(self, li: int) -> Level:
        level = self._held[li]
        if level is None:
            li = range(len(self._held))[li]
            src = max(i for i in range(li) if self._held[i] is not None)
            lane, bins, state, count, busy = _rows_of(self._keys, self._held[src])
            # The cells of one long record are neighbours that now share a
            # bin: summing those first leaves the sort a fraction of the rows.
            rows = _sum_runs((lane, bins >> (li - src), state, count, busy))
            _, level = _level_of(_aggregate(rows))
            self._held[li] = level
        return level


class LaneTable(NamedTuple):
    """One lane kind: sorted uint64 lane keys and its :class:`Levels`
    (every lane has at least one cell at every level)."""

    keys: np.ndarray
    levels: Levels


def _narrow(values: np.ndarray, dtype: str) -> bytes:
    out = values.astype(dtype)
    if (out != values).any():
        raise FormatError(f"utilization value does not fit the sidecar's {dtype} column")
    return out.tobytes()


def _take(
    data, pos: int, end: int, dtype: str, n: int, as_type=np.int64
) -> tuple[np.ndarray, int]:
    """``n`` little-endian values at ``pos`` (bounds-checked), widened so
    later arithmetic cannot wrap."""
    stop = pos + n * np.dtype(dtype).itemsize
    if stop > end:
        raise FormatError("utilization section overruns the sidecar")
    return np.frombuffer(data, dtype, n, pos).astype(as_type), stop


def _encode_runs(values: np.ndarray) -> bytes:
    """One run-coded column: ``n_runs`` and two dtype codes, then every
    run's value, then every run's length — the one codec behind all five
    level-0 columns.  A record spanning fifteen bins is fifteen cells that
    differ only at the edges, so each column is mostly long runs."""
    starts = _starts(values)
    parts = (values[starts], np.diff(starts, append=len(values)))
    tops = [int(part.max(initial=0)) for part in parts]
    codes = [
        next(code for code in range(len(_RUN_DTYPES)) if top < 1 << (8 << code))
        for top in tops
    ]
    return _RUNS_HEADER.pack(len(starts), *codes) + b"".join(
        _narrow(part, _RUN_DTYPES[code]) for part, code in zip(parts, codes)
    )


def _decode_runs(data, pos: int, end: int, n: int) -> tuple[np.ndarray, int]:
    """The ``n`` int64 values of the run-coded column at ``pos``.  Nothing
    is expanded before the run lengths are known to add up to ``n``."""
    if pos + _RUNS_HEADER.size > end:
        raise FormatError("utilization section overruns the sidecar")
    n_runs, *codes = _RUNS_HEADER.unpack_from(data, pos)
    if max(codes) >= len(_RUN_DTYPES):
        raise FormatError(f"utilization run column has unknown dtype code {max(codes)}")
    pos += _RUNS_HEADER.size
    values, pos = _take(data, pos, end, _RUN_DTYPES[codes[0]], n_runs, np.uint64)
    lengths, pos = _take(data, pos, end, _RUN_DTYPES[codes[1]], n_runs, np.uint64)
    if n_runs and (lengths.min() == 0 or lengths.max() > n) or int(lengths.sum()) != n:
        raise FormatError(f"utilization run lengths do not add up to {n} values")
    if n_runs and values.max() > np.iinfo(np.int64).max:
        raise FormatError("utilization value does not fit int64")
    return np.repeat(values.astype(np.int64), lengths.astype(np.int64)), pos


def _increasing_within(values: np.ndarray, offsets: np.ndarray) -> bool:
    """Whether ``values`` strictly increase inside every ``offsets`` group."""
    step = np.diff(values) > 0
    step[offsets[1:-1] - 1] = True
    return bool(step.all())


class WindowCells(Mapping):
    """One level's cells inside a window — what :meth:`UtilizationIndex.query`
    answers with — as int64 columns sorted by (lane, bin).

    Lane ``i`` (``lanes[i]``, every lane key of the table) holds cells
    ``offsets[i] .. offsets[i + 1]``, possibly none; cell ``c`` is bin
    ``bins[c]`` at ``shift`` with ``counts[c]`` records starting in it,
    ``busy[c]`` busy ticks over all states and ``dominant[c]`` its
    :func:`dominant_state`.  Views and payloads read the columns.

    Read as a mapping it is the same answer as ``{lane_key: [(bin_t0,
    bin_t1, count, busy, {state: busy}), ...]}`` over the lanes that have a
    cell, in key order; a lane's list is made by :meth:`Level.cells` when it
    is asked for."""

    def __init__(self, keys: np.ndarray, level: Level, sel: np.ndarray, shift: int) -> None:
        self.lanes = keys
        self.shift = shift
        self.offsets = np.searchsorted(sel, level.offsets)
        self.bins = level.bins[sel]
        self.counts = level.counts[sel]
        self.busy = level.totals[sel]
        self.dominant = level.dominant(sel)
        self._level = level
        self._sel = sel

    @cached_property
    def spans(self) -> dict[int, tuple[int, int]]:
        """``{lane_key: (first cell, end cell)}`` of the lanes with a cell."""
        cuts = self.offsets.tolist()
        return {
            key: (lo, hi)
            for key, lo, hi in zip(self.lanes.tolist(), cuts, cuts[1:]) if lo < hi
        }

    def __getitem__(self, key: int) -> list[tuple[int, int, int, int, dict[int, int]]]:
        lo, hi = self.spans[key]
        return self._level.cells(self._sel[lo:hi], self.shift)

    def __iter__(self) -> Iterator[int]:
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


@dataclass(eq=False)
class UtilizationIndex:
    """The hierarchy: per lane kind, sorted columns at the finest level
    (the one that is built and persisted) and its folds on demand.

    ``thread`` holds :func:`thread_key` lanes, ``cpu`` holds
    :func:`cpu_key` lanes; level ``L`` sits at shift ``base_shift + L``.
    ``t_min``/``t_max`` are the extremes over *all* records (the
    builder's span — with the records, what fixes the grid, so a live
    snapshot and a rebuild of the same records agree)."""

    base_shift: int
    n_levels: int
    t_min: int
    t_max: int
    thread: LaneTable
    cpu: LaneTable

    # -------------------------------------------------------------- queries

    def _table(self, kind: str) -> LaneTable:
        if kind == "thread":
            return self.thread
        if kind == "cpu":
            return self.cpu
        raise FormatError(f"unknown lane kind {kind!r}; pick 'thread' or 'cpu'")

    def lanes(self, kind: str) -> list[int]:
        """The sorted lane keys of one kind."""
        return self._table(kind).keys.tolist()

    def level_for(self, t0: int, t1: int, max_bins: int) -> int:
        """The finest level whose bin count over ``[t0, t1]`` fits
        ``max_bins`` (the coarsest level as a last resort)."""
        for level in range(self.n_levels):
            k = self.base_shift + level
            if (t1 >> k) - (t0 >> k) + 1 <= max_bins:
                return level
        return self.n_levels - 1

    def query(self, kind: str, t0: int, t1: int, max_bins: int) -> tuple[int, WindowCells]:
        """Aggregate cells over a window, at the finest level that fits.

        Returns ``(shift, cells)`` — one masked pass over the level's bin
        column and a segmented max over its state rows, no trace IO and no
        per-cell object.  ``cells`` is a :class:`WindowCells`: columns for
        the display path, and a ``{lane_key: [(bin_t0, bin_t1, count, busy,
        states), ...]}`` mapping for whoever wants cells one by one.  The
        window is clamped to the indexed span; one wholly before or after it
        has no cells, and answers at the finest level."""
        table = self._table(kind)
        if t1 < self.t_min or t0 > self.t_max:
            k = self.base_shift
            return k, WindowCells(table.keys, table.levels[0], np.zeros(0, np.int64), k)
        t0 = max(t0, self.t_min)
        t1 = min(max(t1, t0), self.t_max)
        li = self.level_for(t0, t1, max_bins)
        k = self.base_shift + li
        level = table.levels[li]
        sel = np.flatnonzero((level.bins >= t0 >> k) & (level.bins <= t1 >> k))
        return k, WindowCells(table.keys, level, sel, k)

    def level_cells(self, kind: str, level: int) -> dict[int, dict[int, Cell]]:
        """Every cell of one level as ``{lane_key: {bin: (count, {state:
        busy})}}`` — what ``aggregate_vs_exact`` and tests compare through."""
        table = self._table(kind)
        lv = table.levels[level]
        cells = WindowCells(table.keys, lv, np.arange(len(lv.bins)), 0)
        return {
            key: {c[0]: (c[2], c[4]) for c in lane} for key, lane in cells.items()
        }

    def summary(self) -> dict:
        return {
            "base_shift": self.base_shift,
            "levels": self.n_levels,
            "thread_lanes": len(self.thread.keys),
            "cpu_lanes": len(self.cpu.keys),
            "time_range": [self.t_min, self.t_max],
        }

    # ------------------------------------------------------------- encoding

    def encode_chunks(self) -> Iterator[bytes]:
        """Serialize the hierarchy section: per kind the lane keys, the
        cells of each lane, then level 0's five columns run-coded
        (docs/FORMAT.md section 7), one chunk each, encoded as it is
        pulled.  Deterministic — the columns are already in canonical
        order, and no coarser level is written: each is a function of
        this one."""
        yield _UTIL_HEADER.pack(
            self.base_shift, self.n_levels, self.t_min, self.t_max,
            len(self.thread.keys), len(self.cpu.keys),
        )
        origin = self.t_min >> self.base_shift
        for table in (self.thread, self.cpu):
            level = table.levels[0]
            first = level.offsets[:-1]
            # A lane's first cell is stored relative to the span, the rest
            # relative to the cell before (>= 1: bins strictly increase).
            deltas = np.diff(level.bins, prepend=origin)
            deltas[first] = level.bins[first] - origin
            yield table.keys.astype("<u8").tobytes()
            yield _LEVEL_HEADER.pack(len(level.bins), len(level.states))
            yield _narrow(np.diff(level.offsets), "<u4")
            yield _encode_runs(deltas)
            yield _encode_runs(level.counts)
            yield _encode_runs(np.diff(level.state_off))
            yield _encode_runs(level.states)
            yield _encode_runs(level.busy)

    def encode(self) -> bytes:
        """:meth:`encode_chunks` as one ``bytes``."""
        return b"".join(self.encode_chunks())

    @classmethod
    def decode(
        cls, data: bytes, pos: int, end: int | None = None
    ) -> tuple["UtilizationIndex | None", int]:
        """Parse one hierarchy section in ``data[pos:end]``, enforcing
        every invariant :meth:`query` relies on (sorted lanes, bins and
        states; counts and run lengths that add up; values inside the
        span).  A zero-level header means "no utilization recorded" and
        decodes to ``None``."""
        end = len(data) if end is None else end
        if pos + _UTIL_HEADER.size > end:
            raise FormatError("utilization section truncated")
        base_shift, n_levels, t_min, t_max, n_thread, n_cpu = _UTIL_HEADER.unpack_from(
            data, pos
        )
        pos += _UTIL_HEADER.size
        if n_levels == 0:
            return None, pos
        if (
            t_min > t_max
            or base_shift + n_levels > 63
            or n_levels != levels_for_span(t_min, t_max, base_shift)
        ):
            raise FormatError(
                f"utilization section claims {n_levels} levels from shift "
                f"{base_shift} over [{t_min}, {t_max}]"
            )
        origin = t_min >> base_shift
        top = (t_max >> base_shift) - origin
        tables = []
        for n_lanes in (n_thread, n_cpu):
            keys, pos = _take(data, pos, end, "<u8", n_lanes, np.uint64)
            if n_lanes > 1 and not (keys[1:] > keys[:-1]).all():
                raise FormatError("utilization lane keys are not sorted")
            header, pos = _take(data, pos, end, "<u4", 2)
            n_cells, n_rows = header.tolist()
            per_lane, pos = _take(data, pos, end, "<u4", n_lanes)
            offsets = np.concatenate(([0], np.cumsum(per_lane)))
            if offsets[-1] != n_cells or (n_lanes and per_lane.min() == 0):
                raise FormatError("utilization lane cell counts disagree with the table")
            deltas, pos = _decode_runs(data, pos, end, n_cells)
            counts, pos = _decode_runs(data, pos, end, n_cells)
            n_states, pos = _decode_runs(data, pos, end, n_cells)
            bounded = not n_cells or 0 < n_states.min() <= n_states.max() <= n_rows
            state_off = np.concatenate(([0], np.cumsum(n_states)))
            if not bounded or state_off[-1] != n_rows:
                raise FormatError("utilization state counts disagree with the table")
            states, pos = _decode_runs(data, pos, end, n_rows)
            busy, pos = _decode_runs(data, pos, end, n_rows)
            # Per-lane running sums of the deltas.  With every delta at most
            # ``top``, the first bin past the span (or past int64, which
            # wraps negative) is seen before any later one can wrap back.
            bins = np.cumsum(deltas)
            first = offsets[:-1]
            bins -= np.repeat(bins[first] - deltas[first], per_lane)
            if n_cells and (
                deltas.max() > top
                or bins.min() < 0
                or bins.max() > top
                or not _increasing_within(bins, offsets)
                or not _increasing_within(states, state_off)
                or busy.min() <= 0
            ):
                raise FormatError("utilization cells are unsorted or out of range")
            finest = Level.of(offsets, bins + origin, counts, state_off, states, busy)
            tables.append(LaneTable(keys, Levels(keys, finest, n_levels)))
        return cls(base_shift, n_levels, t_min, t_max, *tables), pos

    @staticmethod
    def encode_absent() -> bytes:
        """The section bytes for an index without utilization data."""
        return _UTIL_HEADER.pack(0, 0, 0, 0, 0, 0)


def _payload_columns(
    util: UtilizationIndex,
    kind: str,
    window: tuple[int, int],
    max_bins: int,
    ticks_per_sec: float,
    record_name,
):
    """What both utilization answers are made of: ``(head, cells, edges,
    columns)`` — every key of the payload but ``lanes``; the window's
    :class:`WindowCells`; ``(start, end)`` seconds of each *distinct* bin
    (the edges are shared by every lane, so they are computed — and by the
    writer formatted — once per bin, not once per cell); and per cell its
    place in ``edges``, count, busy seconds, busy fraction and dominant
    state."""
    tps = ticks_per_sec
    w0, w1 = window
    w1 = max(w1, w0 + 1)
    shift, cells = util.query(kind, w0, w1, max_bins)
    width = 1 << shift
    names = {}
    for itype in np.unique(cells.dominant).tolist():
        try:
            names[str(itype)] = record_name(itype)
        except Exception:
            names[str(itype)] = f"type-{itype}"
    head = {
        "kind": kind,
        "ticks_per_sec": tps,
        "window": [w0 / tps, w1 / tps],
        "bin_seconds": width / tps,
        "shift": shift,
        "levels": util.n_levels,
        "base_shift": util.base_shift,
        "state_names": names,
    }
    bins, edge = np.unique(cells.bins, return_inverse=True)
    start = bins << shift
    edges = (start / tps, (start + width) / tps)
    columns = (
        edge, cells.counts, cells.busy / tps,
        np.minimum(cells.busy / width, 1.0), cells.dominant,
    )
    return head, cells, edges, columns


def utilization_payload(
    util: UtilizationIndex,
    kind: str,
    window: tuple[int, int],
    max_bins: int,
    ticks_per_sec: float,
    record_name,
) -> dict:
    """The ``ute-query --utilization`` answer, and ``/api/utilization``'s
    as a dict: raw cells over a tick ``window`` with seconds, busy fraction
    and dominant state per cell.  The daemon sends :func:`utilization_json`,
    which ``ute-oracle``'s ``payload_parity`` and
    ``tests/test_payload_json.py`` hold to ``json.dumps`` of this."""
    head, cells, edges, columns = _payload_columns(
        util, kind, window, max_bins, ticks_per_sec, record_name
    )
    starts, ends = (edge.tolist() for edge in edges)
    rows = [
        {"start": starts[at], "end": ends[at], "count": count, "busy": busy,
         "busy_frac": frac, "dominant": state}
        for at, count, busy, frac, state in zip(*(c.tolist() for c in columns))
    ]
    lanes = []
    for key, (lo, hi) in cells.spans.items():
        node, sub = split_thread_key(key)
        lanes.append({"node": node, kind: sub, "cells": rows[lo:hi]})  # "thread" | "cpu"
    return {**head, "lanes": lanes}


#: One cell of a utilization answer as ``json.dumps`` spells it: the part
#: every cell of one bin shares, and the cell around it.
_CELL_EDGES = '{"start": %r, "end": %r, '
_CELL = '%s"count": %d, "busy": %r, "busy_frac": %r, "dominant": %d}'


def utilization_json(
    util: UtilizationIndex,
    kind: str,
    window: tuple[int, int],
    max_bins: int,
    ticks_per_sec: float,
    record_name,
) -> str:
    """``json.dumps(utilization_payload(...))``, byte for byte, written
    from the same columns without a dict per cell: one format per cell, the
    two bin-edge floats of a cell formatted once per distinct bin.  Floats
    are ``float.__repr__`` either way; a non-finite one (``json.dumps``
    spells those differently) sends the whole answer through ``json.dumps``."""
    args = (util, kind, window, max_bins, ticks_per_sec, record_name)
    head, cells, edges, columns = _payload_columns(*args)
    if not all(np.isfinite(c).all() for c in (*edges, columns[2], columns[3])):
        return json.dumps(utilization_payload(*args))
    edge_texts = [
        _CELL_EDGES % edge for edge in zip(*(edge.tolist() for edge in edges))
    ]
    at, *rest = (c.tolist() for c in columns)
    rows = list(map(_CELL.__mod__, zip([edge_texts[i] for i in at], *rest)))
    lane = f'{{"node": %d, "{kind}": %d, "cells": [%s]}}'
    lanes = [
        lane % (*split_thread_key(key), ", ".join(rows[lo:hi]))
        for key, (lo, hi) in cells.spans.items()
    ]
    return json.dumps(head)[:-1] + ', "lanes": [' + ", ".join(lanes) + "]}"


#: Ceiling on the bins a single record may span at the accumulation
#: shift.  Without it, a long record arriving while the span — and
#: therefore the shift — is still small costs O(duration/width) rows,
#: which makes streaming accumulation quadratic-ish on regular traces.
#: With it, accumulation is O(_RECORD_BINS) per record and the finest
#: published level is at worst ``longest_record / span`` * cap /
#: _RECORD_BINS coarser than the span-optimal shift.  Like the span
#: rule, this constraint is a function of the record multiset only, so
#: the final shift stays independent of arrival order — the property the
#: live-snapshot-vs-rebuild byte-exactness rests on.
_RECORD_BINS = 64

#: Records :meth:`UtilizationBuilder.add` buffers before they flush
#: through :meth:`UtilizationBuilder.add_batch`.
_ADD_BUFFER = 4096

#: Loose (not yet aggregated) rows are folded into the aggregated head
#: once they number this many and twice the head's rows — amortized
#: O(n log n), memory a small multiple of level 0.
_COMPACT_ROWS = 1 << 16

_NO_ROWS: _Rows = (np.zeros(0, np.uint64), *(np.zeros(0, np.int64) for _ in range(4)))


class _Head:
    """One kind's aggregated rows: as rows (what a sort leaves) or as lane
    keys and a :class:`Level` (what a merge leaves).  The level of rows is
    derived once, when a build or a merge first asks for it."""

    def __init__(
        self, rows: _Rows | None = None, level: tuple[np.ndarray, Level] | None = None
    ) -> None:
        self._rows = rows
        self._level = level

    def __len__(self) -> int:
        return len(self._rows[0]) if self._rows is not None else len(self._level[1].states)

    def rows(self) -> _Rows:
        return self._rows if self._rows is not None else _rows_of(*self._level)

    def level(self) -> tuple[np.ndarray, Level]:
        if self._level is None:
            self._level = _level_of(self._rows)
        return self._level


class UtilizationBuilder:
    """Accumulates frame batches into the exact absolute-grid aggregates.

    Used identically by :func:`~repro.query.indexfile.build_index` (full
    pass) and the live writer's incremental index (frames as they seal) —
    both land on the same bytes.

    Rows accumulate at ``shift``: the smallest shift at which the span
    fits ``base_bins`` bins and no busy record covers more than
    :data:`_RECORD_BINS` bins.  It only ever grows, and when it does the
    held rows fold onto the coarser grid (``bin >> steps``, exact).

    Compaction folds the loose rows into the aggregated head.  When they
    are at least as many as the head's rows (a batch build, a first epoch,
    every row after a shift rise) that is one stable sort of everything;
    otherwise — a live publish — :func:`_merge` sorts only the new rows and
    the head cells they can reach, and splices the cells that come out
    into the head.  The choice reads the two row counts and nothing else.
    A merge leaves the head as the finest :class:`Level` itself, which
    :meth:`build` publishes as it stands; a build with no record since the
    last one returns that one's index.

    ``shift`` seeds the grid: rows are cut at it or coarser from the first
    batch on.  The final shift is the larger of the span rule and every
    record's :data:`_RECORD_BINS` rule, both monotone, so a seed no larger
    than that leaves every byte as an unseeded build gives it — and saves
    cutting rows on fine grids that only fold away.  A whole-file build
    (:meth:`~repro.query.indexfile.IndexAccumulator.scan`) seeds it from
    the frame directory's span; a live writer cannot know its span and
    starts at 0.
    """

    def __init__(self, *, base_bins: int = DEFAULT_BASE_BINS, shift: int = 0) -> None:
        self.base_bins = base_bins
        self.t_min: int | None = None
        self.t_max = 0
        self.shift = shift
        #: The aggregated head at ``shift``, thread lanes then CPU lanes.
        self._heads = [_Head(_NO_ROWS), _Head(_NO_ROWS)]
        #: Loose row chunks at ``shift``, per kind; ``_loose`` counts the
        #: thread kind's (the CPU kind gets as many, one per record and bin,
        #: until a shift rise puts each head back among them).
        self._rows: tuple[list[_Rows], list[_Rows]] = ([], [])
        self._loose = 0
        #: Thread rows in the head after the last compaction: the next one
        #: waits for twice as many loose rows, a shift rise or not.
        self._head_rows = 0
        self._buffer: list[IntervalRecord] = []
        #: What :meth:`build` last returned, until a record arrives.
        self._built: UtilizationIndex | None = None

    def add(self, record: IntervalRecord) -> None:
        """Account one record (any order; grids are absolute).  Buffered:
        records reach the aggregates through :meth:`add_batch`."""
        self._buffer.append(record)
        if len(self._buffer) >= _ADD_BUFFER:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            self.add_batch(batch_from_records(buffered))

    def add_batch(self, batch: FrameBatch) -> None:
        """Account one frame's records (any order, any chunking)."""
        self._flush()
        if not batch.n:
            return
        # Clock pairs and zero-duration rows add no busy row, but they
        # still move the span.
        self._built = None
        first = int(batch.start.min())
        self.t_min = first if self.t_min is None else min(self.t_min, first)
        self.t_max = max(self.t_max, int(batch.end.max()))
        cols = (batch.start, batch.end, batch.node, batch.thread, batch.cpu, batch.itype)
        busy = (batch.dura > 0) & (batch.itype != int(IntervalType.CLOCKPAIR))
        if not busy.all():
            cols = tuple(col[busy] for col in cols)
        start, end, node, thread, cpu, itype = cols
        k = shift_for_span(self.t_min, self.t_max, self.base_bins, self.shift)
        wide_lo, wide_hi = start, end - 1
        while True:
            wide = (wide_hi >> k) - (wide_lo >> k) >= _RECORD_BINS
            if not wide.any():
                break
            wide_lo, wide_hi = wide_lo[wide], wide_hi[wide]
            k += 1
        self._grow(k)
        if not len(start):
            return
        # One row per (record, covered bin): interior bins are fully
        # covered, the edge bins clipped.
        lo_bin = start >> k
        n_bins = ((end - 1) >> k) - lo_bin + 1
        bins = _ranges(lo_bin, n_bins)
        lo_tick = bins << k
        overlap = np.minimum(np.repeat(end, n_bins), lo_tick + (1 << k))
        overlap -= np.maximum(np.repeat(start, n_bins), lo_tick)
        count = (bins == np.repeat(lo_bin, n_bins)).astype(np.int64)
        state = np.repeat(itype, n_bins)
        for chunks, sub in zip(self._rows, (thread, cpu)):
            lane = np.repeat(lane_keys(node, sub), n_bins)
            chunks.append((lane, bins, state, count, overlap))
        self._loose += len(bins)
        if self._loose >= max(_COMPACT_ROWS, 2 * self._head_rows):
            self._compact()

    def _grow(self, shift: int) -> None:
        steps = shift - self.shift
        if steps:
            for kind, chunks in enumerate(self._rows):
                if len(self._heads[kind]):
                    # The head leads the loose rows: one sorted run.
                    chunks.insert(0, self._heads[kind].rows())
                    self._heads[kind] = _Head(_NO_ROWS)
                chunks[:] = [
                    (lane, bins >> steps, state, count, busy)
                    for lane, bins, state, count, busy in chunks
                ]
            self._loose = sum(len(rows[0]) for rows in self._rows[0])
            self.shift = shift

    def _compact(self) -> None:
        """Fold the loose rows into the aggregated head of each kind."""
        if not self._loose:
            return
        for kind, chunks in enumerate(self._rows):
            head = self._heads[kind]
            if self._loose < len(head):
                self._heads[kind] = _Head(level=_merge(*head.level(), chunks))
            else:
                rows = tuple(map(np.concatenate, zip(head.rows(), *chunks)))
                self._heads[kind] = _Head(_aggregate(rows))
            chunks.clear()
        self._loose = 0
        self._head_rows = len(self._heads[0])

    def build(self) -> UtilizationIndex:
        """Freeze the accumulated state onto the deterministic grids (the
        builder stays usable — live snapshots call this per epoch)."""
        self._flush()
        if self._built is None:
            self._compact()
            t_min = 0 if self.t_min is None else self.t_min
            t_max = max(self.t_max, t_min)
            n_levels = levels_for_span(t_min, t_max, self.shift)
            tables = []
            for head in self._heads:
                keys, level = head.level()
                tables.append(LaneTable(keys, Levels(keys, level, n_levels)))
            self._built = UtilizationIndex(self.shift, n_levels, t_min, t_max, *tables)
        return self._built
