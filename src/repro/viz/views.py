"""The multiple time-space diagrams (paper section 1.2).

All four views derive from the *same* interval records — the point of the
interval format:

* **thread-activity** — one timeline per thread, bars colored by state
  (MPI_Send, MPI_Recv, markers, Running).  Piece view shows interval pieces
  exactly as stored; the connected view unifies the pieces of each state
  into one bar (section 3.3's "connected and nested states").
* **processor-activity** — one timeline per processor, bars colored by
  state.  "This time-space diagram must be a view of interval pieces, since
  threads may jump among processors" — there is no connected variant.
* **thread-processor** — one timeline per thread, bars colored by the
  *processor* the thread occupied: shows how threads jump among CPUs.
* **processor-thread** — one timeline per processor, bars colored by the
  *thread* running there: shows processor allocation among threads.

Views are plain data (:class:`TimelineView`) renderable to SVG via
:func:`view_svg_string` or to text via :mod:`repro.viz.ansi`.

A fifth, **aggregate** view (:func:`utilization_view`) draws the thread or
processor lanes from the sidecar's utilization hierarchy instead of
records.

Every view is columns end to end.  The exact views read a frame's
:class:`~repro.query.columnar.FrameBatch` through one builder
(:func:`piece_view`, driven by :data:`PIECE_VIEWS`), the aggregate view the
index's cell columns; a row's ``bars`` is a window (:class:`Bars`) onto the
view's :class:`BarColumns`, and the renderer lays out every row in one pass
over float64 columns.  :class:`TimelineBar` objects and tooltip strings
exist only for callers that iterate a row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.core.records import BeBits, IntervalType
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError
from repro.query.columnar import FrameBatch
from repro.query.utilization import split_thread_key
from repro.viz.arrows import MessageArrow
from repro.viz.colors import IDLE_COLOR, ColorMap
from repro.viz.svg import (
    AXIS,
    GRID,
    SvgCanvas,
    TEXT_PRIMARY,
    TEXT_SECONDARY,
    bar_elements,
    path_element,
    xml_attr,
    xml_text,
)


@dataclass(frozen=True)
class TimelineBar:
    """One bar on a timeline: [start, end] with a color key and tooltip.

    ``opacity`` < 1 renders a partially transparent bar — the aggregate
    (utilization) view maps each bin's busy fraction onto it, so a
    half-idle bin reads as a lighter wash of its dominant state."""

    start: int
    end: int
    key: object
    depth: int = 0
    tooltip: str = ""
    opacity: float = 1.0


def _tails(template: str = "", *columns: np.ndarray) -> Callable[[object], Iterable[str]]:
    """Tooltip tails: ``template`` over the bars' entries of ``columns``
    (without columns, the bare template for every bar)."""
    if not columns:
        return lambda at: repeat(template)
    return lambda at: [
        template % parts for parts in zip(*(column[at].tolist() for column in columns))
    ]


class BarColumns(NamedTuple):
    """Bars as parallel columns, a row's bars together and in the order they
    were appended: ``[start, end]`` ticks, ``key`` an index into ``keys``
    (the colour keys; a builder's are in legend order), nesting ``depth``,
    ``opacity``.  A bar's tooltip is ``tips[key]`` plus its entry of
    ``tails(positions)`` — numbers and fixed words: nothing to escape."""

    start: np.ndarray
    end: np.ndarray
    key: np.ndarray
    depth: np.ndarray
    opacity: np.ndarray
    keys: list
    tips: list[str]
    tails: Callable[[object], Iterable[str]] = _tails()


class Bars(Sequence):
    """One row's bars: a window onto :class:`BarColumns`.

    The renderer reads the column slices; whoever iterates or indexes gets
    :class:`TimelineBar` objects (and their tooltips), made then."""

    def __init__(self, columns: BarColumns, lo: int, hi: int) -> None:
        self.columns = columns
        self.lo = lo
        self.hi = hi

    @classmethod
    def of(cls, bars: Iterable[TimelineBar]) -> "Bars":
        """Bar objects as columns (what a row handed a plain list keeps)."""
        bars = list(bars)
        slots: dict[tuple, int] = {}
        key = [slots.setdefault((bar.key, bar.tooltip), len(slots)) for bar in bars]
        columns = BarColumns(
            _tick_column([bar.start for bar in bars]), _tick_column([bar.end for bar in bars]),
            np.array(key, dtype=np.int64),
            np.array([bar.depth for bar in bars], dtype=np.int64),
            np.array([bar.opacity for bar in bars], dtype=np.float64),
            [key for key, _ in slots], [tip for _, tip in slots],
        )
        return cls(columns, 0, len(bars))

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[TimelineBar]:
        cols = self.columns
        at = slice(self.lo, self.hi)
        for start, end, key, depth, opacity, tail in zip(
            *(col[at].tolist() for col in cols[:5]), cols.tails(at)
        ):
            yield TimelineBar(start, end, cols.keys[key], depth, cols.tips[key] + tail, opacity)

    def __getitem__(self, index):
        return list(self)[index]


@dataclass
class TimelineRow:
    """One horizontal timeline (a thread, or a processor).  ``bars`` is
    always a :class:`Bars`; a plain sequence of bars is read into one."""

    label: str
    row_key: tuple
    bars: Sequence[TimelineBar] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.bars, Bars):
            self.bars = Bars.of(self.bars)


@dataclass
class TimelineView:
    """A complete time-space diagram model."""

    title: str
    rows: list[TimelineRow]
    t0: int
    t1: int
    key_names: dict[object, str]
    arrows: list[MessageArrow] = field(default_factory=list)

    def row_index(self) -> dict[tuple, int]:
        """row_key -> position, for arrow routing."""
        return {row.row_key: i for i, row in enumerate(self.rows)}


def _tick_column(ticks: list[int]) -> np.ndarray:
    """Ticks as an int64 column (as Python ints in an object column when
    one does not fit, so arithmetic stays exact at any size)."""
    try:
        return np.array(ticks, dtype=np.int64)
    except OverflowError:
        return np.array(ticks, dtype=object)


def _thread_label(table: ThreadTable, node: int, ltid: int) -> str:
    try:
        entry = table.lookup(node, ltid)
    except Exception:
        return f"n{node}.t{ltid}"
    suffix = f" [{entry.name}]" if entry.name else ""
    if entry.mpi_task >= 0:
        return f"task {entry.mpi_task} n{node}.t{ltid}{suffix}"
    return f"n{node}.t{ltid}{suffix}"


def _state_name(key: object, record_name: Callable[[int], str], markers: dict[int, str]) -> str:
    """The name of a state key: an interval type or ``("marker", id)``."""
    if isinstance(key, tuple):
        return markers.get(key[1], f"marker-{key[1]}")
    return record_name(key)


def _state_codes(batch: FrameBatch, rows: np.ndarray) -> tuple[np.ndarray, Callable]:
    """``(code, key_of)``: one int per row of ``rows`` naming its state —
    the interval type, or one code past the largest type per marker id —
    and the state key (a type, or ``("marker", id)``) a code stands for."""
    code = batch.itype[rows]
    top = int(code.max(initial=0))
    marked = np.flatnonzero(code == IntervalType.MARKER)
    ids: dict[object, int] = {}
    if len(marked):  # the id column is a Python list: built for markers only
        column = batch.extra_column("markerId")
        code[marked] = [
            top + 1 + ids.setdefault(0 if column[i] is None else column[i], len(ids))
            for i in rows[marked].tolist()
        ]
    marker_ids = list(ids)
    return code, lambda c: ("marker", marker_ids[c - top - 1]) if c > top else c


def _lane_codes(node: np.ndarray, sub: np.ndarray) -> tuple[np.ndarray, Callable]:
    """``(code, key_of)``: one int per row naming its ``(node, sub)`` lane,
    ordered as the pairs are, and the pair a code stands for."""
    nodes, node_at = np.unique(node, return_inverse=True)
    subs, sub_at = np.unique(sub, return_inverse=True)
    nodes, subs = nodes.tolist(), subs.tolist()
    return node_at * len(subs) + sub_at, lambda c: (nodes[c // len(subs)], subs[c % len(subs)])


def _by_first_appearance(code: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The distinct values of ``code`` in order of first appearance, and
    every entry's index into them."""
    values, first, at = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    position = np.empty(len(values), dtype=np.int64)
    position[order] = np.arange(len(values))
    return values[order].tolist(), position[at]


#: The tooltip's piece label by bebits (last: a unified state names no
#: piece), and its ending by whether the state was still open at the edge.
_PIECE = np.array([f" [{bebits.name.lower()}]" for bebits in BeBits] + [""])
_OPEN = np.array(["", " (open)"])

#: The views of records are one builder: each draws one axis of the records
#: (thread lanes, CPU lanes, states) as rows and colours them by another —
#: five piece views, and the thread view again with its pieces connected.
#: ``kind: (title, rows, colours, tooltip tail template and its columns)``.
PIECE_VIEWS = {
    "thread": ("Thread-activity view", "thread", "state", ("%s %d-%d", "piece", "since", "until")),
    "thread-connected": (
        "Thread-activity view (connected)", "thread", "state",
        ("%s %d-%d%s", "piece", "since", "until", "open"),
    ),
    "processor": ("Processor-activity view", "cpu", "state", (" tid %d", "thread")),
    "thread-processor": ("Thread-processor view", "thread", "cpu", ("",)),
    "processor-thread": ("Processor-thread view", "cpu", "thread", ("",)),
    "type": ("Type-activity view", "state", "thread", ("",)),
}


def piece_view(
    kind: str,
    batch: FrameBatch,
    *,
    thread_table: ThreadTable | None = None,
    n_cpus_per_node: dict[int, int] | None = None,
    record_name: Callable[[int], str] | None = None,
    markers: dict[int, str] | None = None,
    arrows: list[MessageArrow] | None = None,
    window: tuple[int, int] | None = None,
) -> TimelineView:
    """The view ``kind`` of :data:`PIECE_VIEWS` over a frame batch.

    Clock pairs are dropped, and zero-duration pseudo-intervals too unless
    the pieces are connected.  Every thread of the table (thread views) or
    CPU of ``n_cpus_per_node`` (CPU rows) gets a row even when idle — the
    empty rows are Figure 8's idle thread and Figure 9's mostly idle CPUs;
    a record on any other lane adds one.  The connected view unifies each
    state's pieces into one bar, nested by depth; a state still open at the
    edge runs to the ``window`` end (else the records' span end), marked
    "(open)".  CPU rows have no connected view: threads jump among
    processors.  The legend is in order of first appearance over *all* the
    records, on screen or not, in file order — (node, thread, start, end)
    order for the thread views."""
    title, row_axis, colour_axis, (tail, *tail_columns) = PIECE_VIEWS[kind]
    connected = kind == "thread-connected"
    by_thread = connected or kind == "thread"  # sorted by, and seeded from, the thread table
    markers = markers or {}
    keep = batch.itype != IntervalType.CLOCKPAIR
    if not connected:
        keep &= batch.dura > 0
    rows = np.flatnonzero(keep)
    if by_thread:
        rows = rows[np.lexsort(
            (batch.end[rows], batch.start[rows], batch.thread[rows], batch.node[rows])
        )]
    node, thread, start, end = (
        column[rows] for column in (batch.node, batch.thread, batch.start, batch.end)
    )
    t0 = int(start.min()) if len(rows) else 0
    t1 = max(int(end.max()), t0 + 1) if len(rows) else 1

    def axis(name: str, legend: bool) -> tuple[np.ndarray, Callable, Callable]:
        """``(code per record, key of a code, name of a key)`` along an axis."""
        if name == "state":
            return *_state_codes(batch, rows), lambda key: _state_name(key, record_name, markers)
        if name == "thread":
            return *_lane_codes(node, thread), lambda key: _thread_label(thread_table, *key)
        cpu_name = "CPU {1} (node {0})" if legend else "node {0} CPU {1}"
        return *_lane_codes(node, batch.cpu[rows]), lambda key: cpu_name.format(*key)

    code, key_of, name_of = axis(colour_axis, True)
    colours, key = _by_first_appearance(code)
    names = {
        (value if colour_axis == "state" else (colour_axis, *value)): name_of(value)
        for value in map(key_of, colours)
    }

    # Rows: the seeded lanes and the lanes seen, sorted by row key (the type
    # view orders its states by label first).
    code, key_of, label_of = axis(row_axis, False)
    lanes, lane = np.unique(code, return_inverse=True)
    seen = [key_of(c) for c in lanes.tolist()]
    seeds: Iterable[tuple] = ()
    if row_axis == "cpu":
        seeds = ((n, cpu) for n, n_cpus in n_cpus_per_node.items() for cpu in range(n_cpus))
    elif by_thread:
        seeds = ((entry.node, entry.logical_tid) for entry in thread_table)
    labels = {lane_key: label_of(lane_key) for lane_key in dict.fromkeys((*seeds, *seen))}
    row_keys = {
        ((str(label), lane_key) if row_axis == "state" else lane_key): lane_key
        for lane_key, label in labels.items()
    }
    # A marker may share its label with a record type: a type's state key
    # is an int and a marker's a tuple, so the type's row sorts first.
    by_label = (lambda key: (key[0], isinstance(key[1], tuple), key[1])) if row_axis == "state" else None
    ordered = sorted(row_keys, key=by_label)
    slot = {row_keys[row_key]: i for i, row_key in enumerate(ordered)}
    at_row = np.array([slot[lane_key] for lane_key in seen], dtype=np.int64)[lane]

    # A bar per record — or, connected, per state — and what its tooltip names.
    depth = still_open = np.zeros(len(rows), dtype=np.int64)
    piece, since, until = batch.bebits[rows], start, end
    if connected:
        at_row, start, end, key, depth, piece, since, until, still_open = _connect(
            at_row.tolist(), key.tolist(), piece.tolist(), start.tolist(), end.tolist(),
            window[1] if window is not None else t1,
        )
    have = {"piece": _PIECE[piece], "since": since, "until": until,
            "open": _OPEN[still_open], "thread": thread}
    # A row's bars sit together, in the order the loop above met them.
    by_row = np.argsort(at_row, kind="stable")
    columns = BarColumns(
        start[by_row], end[by_row], key[by_row], depth[by_row], np.ones(len(by_row)),
        list(names), list(names.values()),
        _tails(tail, *(have[name][by_row] for name in tail_columns)),
    )
    cuts = np.searchsorted(at_row[by_row], np.arange(len(ordered) + 1)).tolist()
    return TimelineView(
        title,
        [
            TimelineRow(labels[row_keys[row_key]], row_key, Bars(columns, lo, hi))
            for row_key, lo, hi in zip(ordered, cuts, cuts[1:])
        ],
        t0, t1, names, arrows or [],
    )


def _connect(lanes, keys, bebits, starts, ends, edge: int) -> list[np.ndarray]:
    """Unify the pieces of each state of each lane into one bar — a walk,
    since a state spanning pieces is sequential per lane.  Returns the bars
    as columns: lane, start, end, key, depth (states open on the lane when
    this one began), then the tooltip's parts — piece label code, the times
    it names, and whether the state was still open at ``edge`` (nothing
    ended it, so it is busy up to the edge: the bar runs there)."""
    bars: list[tuple] = []
    open_states: dict[int, dict[int, tuple]] = {}
    for lane, key, bits, start, end in zip(lanes, keys, bebits, starts, ends):
        open_map = open_states.setdefault(lane, {})
        if bits == BeBits.COMPLETE:
            bars.append((lane, start, end, key, len(open_map), bits, start, end, 0))
        elif bits == BeBits.BEGIN:
            open_map[key] = (start, end, len(open_map), bits, start, end)
        elif bits == BeBits.CONTINUATION:
            bar = open_map.get(key)
            if bar is None:
                # A window/frame starting mid-state: the pseudo-interval (or
                # first continuation piece) opens the state here.
                open_map[key] = (start, end, len(open_map), bits, start, end)
            else:
                open_map[key] = (bar[0], end, *bar[2:])
        elif bits == BeBits.END:
            bar = open_map.pop(key, None)
            since, depth = (bar[0], bar[2]) if bar is not None else (start, 0)
            bars.append((lane, since, end, key, depth, len(BeBits), since, end, 0))
    for lane, open_map in open_states.items():
        for key, (since, until, depth, *tip) in open_map.items():
            bars.append((lane, since, max(until, edge), key, depth, *tip, 1))
    return [_tick_column(list(column)) for column in zip(*bars)] or [np.zeros(0, np.int64)] * 9


#: Busy-fraction quantization for aggregate heat bars.  Opacity only needs
#: to *suggest* intensity; snapping it to eighths lets adjacent cells with
#: near-identical utilization merge into one run, which is what keeps the
#: element count tracking the trace's structure instead of its pixel width.
_OPACITY_BUCKETS = 8


def utilization_view(
    util,
    kind: str,
    thread_table: ThreadTable,
    record_name: Callable[[int], str],
    *,
    window: tuple[int, int] | None = None,
    max_bins: int = 1024,
) -> TimelineView:
    """Aggregate-driven time-space diagram from a
    :class:`~repro.query.utilization.UtilizationIndex` — no record decodes,
    and no per-cell object: the cells arrive as columns and leave as
    columns (:class:`BarColumns`), each row's ``bars`` a window onto them.

    Each lane renders its utilization cells as heat bars: color is the
    bin's dominant state, opacity its busy fraction.  ``kind`` picks the
    lane family (``"thread"`` rows per (node, thread), ``"cpu"`` rows per
    (node, cpu)); ``window`` restricts the time range (defaults to the
    indexed span) and ``max_bins`` caps the level resolution so the
    lookup stays O(pixels) at any zoom."""
    t0, t1 = window if window is not None else (util.t_min, util.t_max)
    t1 = max(t1, t0 + 1)
    shift, cells = util.query(kind, t0, t1, max_bins)

    # Clip every cell to the window and quantise its busy fraction.  A cell
    # wholly inside keeps its busy ticks, and its bucket busy * 8 // 2**shift
    # is a shift; the few the window cuts (a lane's first and last) go
    # through Python ints, where busy * (hi - lo) cannot wrap.
    lo = cells.bins << shift
    hi = lo + (1 << shift)
    clipped = cells.busy.copy()
    if shift >= 3:
        bucket = clipped >> (shift - 3)
    else:
        bucket = np.minimum(clipped, _OPACITY_BUCKETS) << (3 - shift)
    bucket = np.minimum(bucket, _OPACITY_BUCKETS - 1)
    cut = np.flatnonzero((lo < t0) | (hi > t1))
    if len(cut):
        width = 1 << shift
        cut_lo = [max(bin_t0, t0) for bin_t0 in lo[cut].tolist()]
        cut_hi = [min(bin_t1, t1) for bin_t1 in hi[cut].tolist()]
        cut_busy = [
            busy * (c_hi - c_lo) // width
            for busy, c_lo, c_hi in zip(clipped[cut].tolist(), cut_lo, cut_hi)
        ]
        bucket[cut] = [
            min(busy * _OPACITY_BUCKETS // max(c_hi - c_lo, 1), _OPACITY_BUCKETS - 1)
            for busy, c_lo, c_hi in zip(cut_busy, cut_lo, cut_hi)
        ]
        lo[cut], hi[cut], clipped[cut] = cut_lo, cut_hi, cut_busy

    # Adjacent cells of a lane with the same dominant state and the same
    # quantized busy fraction merge into one run: the rendered strip is
    # visually the same, but the element count tracks the trace's
    # *structure* (state changes) rather than its pixel width.
    state = cells.dominant
    lane = np.repeat(np.arange(len(cells.lanes)), np.diff(cells.offsets))
    first = np.ones(len(state), dtype=bool)
    first[1:] = (
        (lane[1:] != lane[:-1]) | (state[1:] != state[:-1])
        | (lo[1:] != hi[:-1]) | (bucket[1:] != bucket[:-1])
    )
    starts = np.flatnonzero(first)
    # Legend order is first appearance over the cells, in (lane, bin) order.
    keys, key = _by_first_appearance(state)
    names: dict[object, str] = {}
    for state in keys:
        try:
            names[state] = record_name(state)
        except Exception:
            names[state] = f"type-{state}"
    # A run ends where the next one starts (the last, where the first did).
    run_lo, run_hi = lo[starts], hi[np.roll(first, -1)]
    run_records = np.add.reduceat(cells.counts, starts)
    run_busy = np.add.reduceat(clipped, starts)

    def tails(at) -> list[str]:
        return [
            f" ~{min(busy / max(end - start, 1), 1.0):.0%} busy, {count} records"
            for start, end, count, busy in zip(
                *(column[at].tolist() for column in (run_lo, run_hi, run_records, run_busy))
            )
        ]

    columns = BarColumns(
        run_lo, run_hi, key[starts], np.zeros(len(starts), dtype=np.int64),
        np.maximum((bucket[starts] + 1) / _OPACITY_BUCKETS, 0.15),
        keys, list(names.values()), tails,
    )
    cuts = np.searchsorted(starts, cells.offsets).tolist()
    # Every indexed lane gets a row — lanes idle in this window render as
    # empty timelines, matching the exact views' convention.
    rows = []
    for lane_key, bar_lo, bar_hi in zip(cells.lanes.tolist(), cuts, cuts[1:]):
        node, sub = split_thread_key(lane_key)
        if kind == "thread":
            label = _thread_label(thread_table, node, sub)
        else:
            label = f"node {node} CPU {sub}"
        rows.append(TimelineRow(label, (node, sub), Bars(columns, bar_lo, bar_hi)))
    title = (
        "Thread utilization view (aggregate)"
        if kind == "thread"
        else "Processor utilization view (aggregate)"
    )
    return TimelineView(title, rows, t0, t1, names)


# ---------------------------------------------------------------- rendering

ROW_HEIGHT = 22
BAR_HEIGHT = 14
MARGIN_LEFT = 190
MARGIN_TOP = 48
MARGIN_BOTTOM = 56
MARGIN_RIGHT = 24
#: The narrowest drawable view: both margins and a plot as wide as the
#: label gutter (room for the seven tick labels of the time axis).
MIN_VIEW_WIDTH = MARGIN_LEFT + MARGIN_RIGHT + MARGIN_LEFT
#: Rows with more bars than this render as grouped ``<path>`` elements —
#: one per (color, opacity, inset) — instead of individual tooltipped
#: rects.  At that density each bar spans only a few pixels, hover targets
#: are useless, and the rows are laid out together as columns.
_BATCH_BARS = 48


def _render_bars(
    rows: list[TimelineRow], cmap: ColorMap, t0: int, t1: int, plot_w: int
) -> list[list[str]]:
    """The bars of every row as markup (a list of elements per row), laid
    out in one pass over their columns.

    A row holding more than :data:`_BATCH_BARS` bars, on screen or not, is
    dense: one ``<path>`` per style group; any other gets a tooltipped
    ``<rect>`` per bar the window shows.  Bars are drawn by (depth, start),
    ties as appended.  Coordinates are float64 columns in the operation
    order of the scalar code they replaced, formatted as Python floats."""
    marks: list[list[str]] = [[] for _ in rows]
    # Rows sharing one BarColumns — all of them, in a view a builder made —
    # are laid out together: (row, lo, hi) per row holding a bar.
    spans_of: dict[int, list[tuple[int, int, int]]] = {}
    for i, row in enumerate(rows):
        if row.bars.hi > row.bars.lo:
            spans_of.setdefault(id(row.bars.columns), []).append((i, row.bars.lo, row.bars.hi))
    palette: dict[str, int] = {}
    for spans in spans_of.values():
        cols = rows[spans[0][0]].bars.columns
        at_rows, lo, hi = np.array(spans, dtype=np.int64).T
        count = hi - lo
        at = np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count)
        row = np.repeat(at_rows, count)
        crowded = np.repeat(count > _BATCH_BARS, count)
        start, end, depth = cols.start[at], cols.end[at], cols.depth[at]
        later = (depth[1:] < depth[:-1]) | ((depth[1:] == depth[:-1]) & (start[1:] < start[:-1]))
        if (later & (row[1:] == row[:-1])).any():
            order = np.lexsort((start, depth, row))  # stable: ties stay as appended
            at, start, end, depth = at[order], start[order], end[order], depth[order]
        if not -(1 << 63) <= t0 <= t1 < 1 << 63:
            # The window left int64: exact Python ints in object columns.
            start, end = start.astype(object), end.astype(object)
        keep = np.flatnonzero((end >= t0) & (start <= t1))
        at, row, crowded = at[keep], row[keep], crowded[keep]
        s, e = np.maximum(start[keep], t0), np.minimum(end[keep], t1)
        level, key, opacity = np.minimum(depth[keep], 3), cols.key[at], cols.opacity[at]
        fill = np.array(
            [palette.setdefault(cmap.color_of(k), len(palette)) for k in cols.keys], np.int64
        )[key]

        dense = np.flatnonzero(crowded)
        for i, path in _dense_paths(
            row[dense], s[dense], e[dense], level[dense], opacity[dense], fill[dense],
            list(palette), t0, t1, plot_w,
        ):
            marks[i].append(path)
        sparse = np.flatnonzero(~crowded)
        s, e = s[sparse], e[sparse]
        if t1 - t0 >= 1 << 53:
            # int / int is correctly rounded in Python; float64 / float64
            # agrees with it only while both operands are exact.
            s, e = s.astype(object), e.astype(object)
        x_a = MARGIN_LEFT + (s - t0) / (t1 - t0) * plot_w
        x_b = MARGIN_LEFT + (e - t0) / (t1 - t0) * plot_w
        y = MARGIN_TOP + row[sparse] * ROW_HEIGHT + (ROW_HEIGHT - BAR_HEIGHT) / 2
        inset = level[sparse] * 2.0
        fills = [xml_attr(colour) for colour in palette]
        tips = [xml_text(tip) for tip in cols.tips]
        elements = bar_elements(
            x_a.tolist(), (y + inset).tolist(), np.maximum(x_b - x_a, 0.75).tolist(),
            (BAR_HEIGHT - 2 * inset).tolist(), [fills[f] for f in fill[sparse].tolist()],
            opacity[sparse].tolist(),
            [tips[k] + tail for k, tail in zip(key[sparse].tolist(), cols.tails(at[sparse]))],
        )
        for i, element in zip(row[sparse].tolist(), elements):
            marks[i].append(element)
    return marks


def _dense_paths(
    row, s, e, level, opacity, fill, fill_names: list[str], t0: int, t1: int, plot_w: int
) -> Iterator[tuple[int, str]]:
    """``(row, <path> element)`` per (row, fill, opacity, inset) group of
    the dense rows' bars — columns already clipped to the window and in
    drawing order — groups in the order their first bar is drawn."""
    x_base = float(MARGIN_LEFT)
    scale = float(plot_w) / (t1 - t0)
    x = x_base + (s - t0) * scale
    w = np.maximum((e - s) * scale, 0.75)
    shades, shade = np.unique(opacity, return_inverse=True)
    style = ((row * (int(fill.max(initial=0)) + 1) + fill) * len(shades) + shade) * 4 + level
    _, heads, group = np.unique(style, return_index=True, return_inverse=True)
    order = np.argsort(heads[group], kind="stable")
    by_first = np.argsort(heads)
    heads = heads[by_first]
    at_rows, fills, opacities, levels, sizes = (
        column.tolist() for column in (
            row[heads], fill[heads], opacity[heads], level[heads],
            np.bincount(group)[by_first],
        )
    )
    # One format string for the whole view: a group is its bar template
    # (y and height already in it) once per bar, groups a line each.
    templates = []
    for r, lv, n in zip(at_rows, levels, sizes):
        y_base = MARGIN_TOP + r * ROW_HEIGHT + (ROW_HEIGHT - BAR_HEIGHT) / 2
        inset = lv * 2.0
        templates.append(
            f"M%.1f {y_base + inset:.1f}h%.1fv{BAR_HEIGHT - 2 * inset:.1f}h-%.1fz" * n
        )
    numbers = np.stack((x[order], w[order], w[order]), axis=1).ravel().tolist()
    for r, d, f, opacity in zip(
        at_rows, ("\n".join(templates) % tuple(numbers)).split("\n"), fills, opacities
    ):
        yield r, path_element(
            d, fill=fill_names[f], opacity=round(opacity, 3) if opacity < 1.0 else None
        )


def view_svg_string(
    view: TimelineView,
    *,
    width: int = 1100,
    window: tuple[int, int] | None = None,
    ticks_per_sec: float = 1e9,
) -> str:
    """The SVG document for a timeline view, as a string (no file involved
    — what the serving daemon streams to clients)."""
    canvas = _view_canvas(view, width=width, window=window, ticks_per_sec=ticks_per_sec)
    return canvas.to_string()


def _view_canvas(
    view: TimelineView,
    *,
    width: int,
    window: tuple[int, int] | None,
    ticks_per_sec: float,
) -> SvgCanvas:
    t0, t1 = window if window is not None else (view.t0, view.t1)
    t1 = max(t1, t0 + 1)
    n_rows = max(len(view.rows), 1)
    legend_items = list(view.key_names.items())  # first appearance: the dict's order
    legend_height = 18 * ((len(legend_items) + 3) // 4)
    height = MARGIN_TOP + n_rows * ROW_HEIGHT + MARGIN_BOTTOM + legend_height
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
    if plot_w <= 0:
        raise FormatError(
            f"a {width}px wide view leaves no room for the plot; "
            f"the margins alone take {MARGIN_LEFT + MARGIN_RIGHT}px"
        )
    canvas = SvgCanvas(width, height)

    def x_of(t: int) -> float:
        return MARGIN_LEFT + (t - t0) / (t1 - t0) * plot_w

    canvas.text(MARGIN_LEFT, 22, view.title, size=15, weight="bold")
    cmap = ColorMap()
    for key, _ in legend_items:
        cmap.register(key)

    # Grid + time axis (seconds).
    n_ticks = 6
    for i in range(n_ticks + 1):
        t = t0 + (t1 - t0) * i // n_ticks
        x = x_of(t)
        canvas.line(x, MARGIN_TOP - 4, x, MARGIN_TOP + n_rows * ROW_HEIGHT, stroke=GRID)
        canvas.text(
            x, MARGIN_TOP + n_rows * ROW_HEIGHT + 16,
            _fmt_time(t, ticks_per_sec, span=(t1 - t0) // n_ticks),
            size=10, fill=TEXT_SECONDARY, anchor="middle",
        )
    canvas.text(
        MARGIN_LEFT + plot_w / 2, MARGIN_TOP + n_rows * ROW_HEIGHT + 34,
        "time (s)", size=11, fill=TEXT_SECONDARY, anchor="middle",
    )

    # A row is its label, its idle strip, its bars and a rule under them, the
    # chrome as ``canvas.text``, ``rect`` and ``line`` would write it.
    strip = (
        f'<text x="{MARGIN_LEFT - 8}" y="%d" font-size="10" fill="{TEXT_PRIMARY}" '
        'text-anchor="end" font-family="system-ui, sans-serif">%s</text>\n'
        f'<rect x="{MARGIN_LEFT}" y="%r" width="{plot_w}" height="{BAR_HEIGHT}" '
        f'fill="{IDLE_COLOR}"/>'
    )
    rule = (
        f'<line x1="{MARGIN_LEFT}" y1="%d" x2="{MARGIN_LEFT + plot_w}" y2="%d" '
        f'stroke="{GRID}" stroke-width="0.5"/>'
    )
    for i, (row, bars) in enumerate(zip(view.rows, _render_bars(view.rows, cmap, t0, t1, plot_w))):
        y = MARGIN_TOP + i * ROW_HEIGHT
        canvas.extend((
            strip % (y + BAR_HEIGHT, xml_text(row.label), y + (ROW_HEIGHT - BAR_HEIGHT) / 2),
            *bars,
            rule % (y + ROW_HEIGHT, y + ROW_HEIGHT),
        ))

    _render_arrows(canvas, view, x_of, t0, t1)
    _render_legend(
        canvas, legend_items, cmap,
        MARGIN_LEFT, MARGIN_TOP + n_rows * ROW_HEIGHT + 44, plot_w,
    )
    canvas.line(
        MARGIN_LEFT, MARGIN_TOP - 4, MARGIN_LEFT, MARGIN_TOP + n_rows * ROW_HEIGHT,
        stroke=AXIS,
    )
    return canvas


def _render_legend(canvas: SvgCanvas, items, cmap: ColorMap, x: float, y: float, w: float):
    if len(items) < 2:
        return
    col_w = w / 4
    for i, (key, name) in enumerate(items):
        cx = x + (i % 4) * col_w
        cy = y + (i // 4) * 18
        canvas.rect(cx, cy - 9, 12, 12, fill=cmap.color_of(key), rx=2)
        canvas.text(cx + 17, cy + 1, str(name), size=10, fill=TEXT_SECONDARY)


def _render_arrows(canvas: SvgCanvas, view: TimelineView, x_of, t0: int, t1: int):
    index = view.row_index()
    for arrow in view.arrows:
        src = index.get(arrow.src_row)
        dst = index.get(arrow.dst_row)
        if src is None or dst is None:
            continue
        if arrow.send_time > t1 or arrow.recv_time < t0:
            continue
        recv_clipped = arrow.recv_time > t1
        send_clipped = arrow.send_time < t0
        x1 = x_of(max(arrow.send_time, t0))
        y1 = MARGIN_TOP + src * ROW_HEIGHT + ROW_HEIGHT / 2
        x2 = x_of(min(arrow.recv_time, t1))
        y2 = MARGIN_TOP + dst * ROW_HEIGHT + ROW_HEIGHT / 2
        canvas.line(x1, y1, x2, y2, stroke=TEXT_PRIMARY, stroke_width=1.0, opacity=0.65)
        if recv_clipped:
            # The message is still in flight at the window edge: a cut-off
            # stub (no head — a head would claim delivery inside the
            # window).
            canvas.line(x2, y2 - 4, x2, y2 + 4, stroke=TEXT_PRIMARY,
                        stroke_width=1.0, opacity=0.65)
        else:
            # Arrowhead at the receive end.
            canvas.polygon(
                [(x2, y2), (x2 - 6, y2 - 3), (x2 - 6, y2 + 3)], fill=TEXT_PRIMARY
            )
        if send_clipped:
            canvas.line(x1, y1 - 4, x1, y1 + 4, stroke=TEXT_PRIMARY,
                        stroke_width=1.0, opacity=0.65)


def _fmt_time(ticks: int, ticks_per_sec: float, span: int | None = None) -> str:
    """Format an axis tick in seconds.

    ``span`` is the tick spacing in ticks; precision is derived from it so
    adjacent ticks always render distinct labels (``%.4g`` alone collapses
    neighbours once the window is deep inside a long run — four significant
    digits of a large absolute time cannot resolve a microsecond step)."""
    value = ticks / ticks_per_sec
    if not span or span <= 0 or ticks_per_sec <= 0:
        return f"{value:.4g}"
    step = span / ticks_per_sec
    decimals = min(max(1 - math.floor(math.log10(step)), 0), 12)
    return f"{value:.{decimals}f}"
