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
:func:`render_view_svg` or to text via :mod:`repro.viz.ansi`.

A fifth, **aggregate** view (:func:`utilization_view`) draws the thread or
processor lanes from the sidecar's utilization hierarchy instead of
records.  It is columns end to end: the index answers in columns, runs of
cells merge as array arithmetic, each row's ``bars`` is a window onto the
bar columns (:class:`HeatBars`), and the renderer lays out every dense row
of a view — aggregate or exact — in one pass over float64 columns.  Bar
objects and tooltips exist only for sparse rows and for callers that
iterate a row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadTable
from repro.errors import FormatError
from repro.viz.arrows import MessageArrow
from repro.viz.colors import IDLE_COLOR, ColorMap
from repro.viz.svg import AXIS, GRID, SvgCanvas, TEXT_PRIMARY, TEXT_SECONDARY


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


@dataclass
class TimelineRow:
    """One horizontal timeline (a thread, or a processor).  ``bars`` is a
    list on the exact views and a :class:`HeatBars` on the aggregate one."""

    label: str
    row_key: tuple
    bars: Sequence[TimelineBar] = field(default_factory=list)


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


def _span(records: list[IntervalRecord]) -> tuple[int, int]:
    if not records:
        return 0, 1
    t0 = min(r.start for r in records)
    t1 = max(r.end for r in records)
    return t0, max(t1, t0 + 1)


def _state_key(record: IntervalRecord) -> object:
    if record.itype == IntervalType.MARKER:
        return ("marker", record.extra.get("markerId", 0))
    return record.itype


def _state_name(
    record: IntervalRecord, record_name: Callable[[int], str], markers: dict[int, str]
) -> str:
    if record.itype == IntervalType.MARKER:
        mid = record.extra.get("markerId", 0)
        return markers.get(mid, f"marker-{mid}")
    return record_name(record.itype)


#: The tooltip's piece label, by bebits.
_PIECE = {bebits: bebits.name.lower() for bebits in BeBits}


def _thread_label(table: ThreadTable, node: int, ltid: int) -> str:
    try:
        entry = table.lookup(node, ltid)
    except Exception:
        return f"n{node}.t{ltid}"
    suffix = f" [{entry.name}]" if entry.name else ""
    if entry.mpi_task >= 0:
        return f"task {entry.mpi_task} n{node}.t{ltid}{suffix}"
    return f"n{node}.t{ltid}{suffix}"


def _cpu_row(rows: dict[tuple, TimelineRow], record: IntervalRecord) -> TimelineRow:
    """The (node, cpu) timeline of ``record``, added on first sight."""
    row_key = (record.node, record.cpu)
    row = rows.get(row_key)
    if row is None:
        row = rows[row_key] = TimelineRow(f"node {record.node} CPU {record.cpu}", row_key)
    return row


def _filter_real(records: Iterable[IntervalRecord]) -> list[IntervalRecord]:
    """Drop clock pairs; keep pseudo-intervals out of piece views (they are
    zero-duration and would be invisible anyway)."""
    return [
        r
        for r in records
        if r.itype != IntervalType.CLOCKPAIR and r.duration > 0
    ]


def thread_activity_view(
    records: Iterable[IntervalRecord],
    thread_table: ThreadTable,
    record_name: Callable[[int], str],
    markers: dict[int, str] | None = None,
    *,
    connected: bool = False,
    arrows: list[MessageArrow] | None = None,
    window: tuple[int, int] | None = None,
) -> TimelineView:
    """Thread-activity view: one timeline per (node, thread).

    With ``connected=True``, the begin/continuation/end pieces of each state
    are unified into a single spanning bar and nesting depth is tracked so
    inner states draw over outer ones (zero-duration pseudo-intervals
    contribute span information, which is why mid-file windows still show
    enclosing states).  States still open at the edge extend to the
    ``window`` end (or the records' span end), tooltip-marked "(open)" —
    a state that has not ended is busy right up to the edge, not idle
    after its last piece.
    """
    markers = markers or {}
    recs = [r for r in records if r.itype != IntervalType.CLOCKPAIR]
    if not connected:
        recs = [r for r in recs if r.duration > 0]
    rows: dict[tuple, TimelineRow] = {}
    names: dict[object, str] = {}
    open_states: dict[tuple, dict[object, TimelineBar]] = {}
    # Seed a row for every known thread so idle threads show as empty
    # timelines — Figure 8's "one thread is idle" observation depends on it.
    for entry in thread_table:
        key = (entry.node, entry.logical_tid)
        rows[key] = TimelineRow(_thread_label(thread_table, *key), key)
        open_states[key] = {}
    for r in sorted(recs, key=lambda x: (x.node, x.thread, x.start, x.end)):
        row_key = (r.node, r.thread)
        row = rows.get(row_key)
        if row is None:
            row = TimelineRow(_thread_label(thread_table, r.node, r.thread), row_key)
            rows[row_key] = row
            open_states[row_key] = {}
        key = _state_key(r)
        if key not in names:
            names[key] = _state_name(r, record_name, markers)
        tooltip = f"{names[key]} [{_PIECE[r.bebits]}] {r.start}-{r.end}"
        if not connected:
            row.bars.append(TimelineBar(r.start, r.end, key, 0, tooltip))
            continue
        open_map = open_states[row_key]
        if r.bebits is BeBits.COMPLETE:
            depth = len(open_map)
            row.bars.append(TimelineBar(r.start, r.end, key, depth, tooltip))
        elif r.bebits is BeBits.BEGIN:
            open_map[key] = TimelineBar(r.start, r.end, key, len(open_map), tooltip)
        elif r.bebits is BeBits.CONTINUATION:
            bar = open_map.get(key)
            if bar is None:
                # A window/frame starting mid-state: the pseudo-interval (or
                # first continuation piece) opens the state here.
                open_map[key] = TimelineBar(r.start, r.end, key, len(open_map), tooltip)
            else:
                open_map[key] = TimelineBar(bar.start, r.end, key, bar.depth, bar.tooltip)
        elif r.bebits is BeBits.END:
            bar = open_map.pop(key, None)
            start = bar.start if bar is not None else r.start
            depth = bar.depth if bar is not None else 0
            row.bars.append(
                TimelineBar(start, r.end, key, depth, f"{names[key]} {start}-{r.end}")
            )
    ordered = [rows[k] for k in sorted(rows)]
    flat = [r for r in recs]
    t0, t1 = _span(flat)
    edge = window[1] if window is not None else t1
    # Close any states left open at the view edge: they run to the edge
    # (nothing ended them), so the bar extends there instead of stopping
    # at the last observed piece.
    for row_key, open_map in open_states.items():
        for bar in open_map.values():
            rows[row_key].bars.append(
                TimelineBar(
                    bar.start, max(bar.end, edge), bar.key, bar.depth,
                    (bar.tooltip + " (open)") if bar.tooltip else "(open)",
                )
            )
    return TimelineView(
        "Thread-activity view" + (" (connected)" if connected else ""),
        ordered,
        t0,
        t1,
        names,
        arrows or [],
    )


def processor_activity_view(
    records: Iterable[IntervalRecord],
    n_cpus_per_node: dict[int, int],
    record_name: Callable[[int], str],
    markers: dict[int, str] | None = None,
) -> TimelineView:
    """Processor-activity view: one timeline per (node, cpu), pieces only.

    Every processor of every node gets a row even when idle — the paper's
    Figure 9 point is precisely that "the CPUs are mostly idle".
    """
    markers = markers or {}
    recs = _filter_real(records)
    rows: dict[tuple, TimelineRow] = {}
    for node, n_cpus in sorted(n_cpus_per_node.items()):
        for cpu in range(n_cpus):
            rows[(node, cpu)] = TimelineRow(f"node {node} CPU {cpu}", (node, cpu))
    names: dict[object, str] = {}
    for r in recs:
        key = _state_key(r)
        if key not in names:
            names[key] = _state_name(r, record_name, markers)
        row = _cpu_row(rows, r)
        row.bars.append(
            TimelineBar(r.start, r.end, key, 0, f"{names[key]} tid {r.thread}")
        )
    t0, t1 = _span(recs)
    return TimelineView(
        "Processor-activity view", [rows[k] for k in sorted(rows)], t0, t1, names
    )


def type_activity_view(
    records: Iterable[IntervalRecord],
    thread_table: ThreadTable,
    record_name: Callable[[int], str],
    markers: dict[int, str] | None = None,
) -> TimelineView:
    """Type-activity view: one timeline per *record type*, colored by
    thread — the paper's "other possible views may use record type as the
    significant discriminator along the y-axis".

    Shows when each kind of activity (each MPI routine, each marker region)
    was happening anywhere in the job, and which threads did it.
    """
    markers = markers or {}
    recs = _filter_real(records)
    rows: dict[object, TimelineRow] = {}  # by state; ordered by (label, state)
    names: dict[object, str] = {}
    for r in recs:
        state = _state_key(r)
        row = rows.get(state)
        if row is None:
            label = _state_name(r, record_name, markers)
            row = rows[state] = TimelineRow(label, (str(label), state))
        key = ("thread", r.node, r.thread)
        if key not in names:
            names[key] = _thread_label(thread_table, r.node, r.thread)
        row.bars.append(TimelineBar(r.start, r.end, key, 0, names[key]))
    t0, t1 = _span(recs)
    return TimelineView(
        "Type-activity view", sorted(rows.values(), key=lambda row: row.row_key),
        t0, t1, names,
    )


def thread_processor_view(
    records: Iterable[IntervalRecord], thread_table: ThreadTable
) -> TimelineView:
    """Thread-processor view: timelines per thread, colored by processor —
    shows threads jumping among CPUs."""
    recs = _filter_real(records)
    rows: dict[tuple, TimelineRow] = {}
    names: dict[object, str] = {}
    for r in recs:
        row_key = (r.node, r.thread)
        row = rows.get(row_key)
        if row is None:
            row = rows[row_key] = TimelineRow(
                _thread_label(thread_table, r.node, r.thread), row_key
            )
        key = ("cpu", r.node, r.cpu)
        if key not in names:
            names[key] = f"CPU {r.cpu} (node {r.node})"
        row.bars.append(TimelineBar(r.start, r.end, key, 0, names[key]))
    t0, t1 = _span(recs)
    return TimelineView(
        "Thread-processor view", [rows[k] for k in sorted(rows)], t0, t1, names
    )


def processor_thread_view(
    records: Iterable[IntervalRecord],
    n_cpus_per_node: dict[int, int],
    thread_table: ThreadTable,
) -> TimelineView:
    """Processor-thread view: timelines per processor, colored by thread —
    shows processor allocation among threads."""
    recs = _filter_real(records)
    rows: dict[tuple, TimelineRow] = {}
    for node, n_cpus in sorted(n_cpus_per_node.items()):
        for cpu in range(n_cpus):
            rows[(node, cpu)] = TimelineRow(f"node {node} CPU {cpu}", (node, cpu))
    names: dict[object, str] = {}
    for r in recs:
        key = ("thread", r.node, r.thread)
        if key not in names:
            names[key] = _thread_label(thread_table, r.node, r.thread)
        _cpu_row(rows, r).bars.append(TimelineBar(r.start, r.end, key, 0, names[key]))
    t0, t1 = _span(recs)
    return TimelineView(
        "Processor-thread view", [rows[k] for k in sorted(rows)], t0, t1, names
    )


#: Busy-fraction quantization for aggregate heat bars.  Opacity only needs
#: to *suggest* intensity; snapping it to eighths lets adjacent cells with
#: near-identical utilization merge into one run, which is what keeps the
#: element count tracking the trace's structure instead of its pixel width.
_OPACITY_BUCKETS = 8


class HeatColumns(NamedTuple):
    """Every heat bar of an aggregate view as parallel columns, sorted by
    (lane, start): ``[start, end)`` ticks, ``key`` an index into ``keys``
    (the dominant states in legend order), the records and clipped busy
    ticks the bar sums, and its opacity."""

    start: np.ndarray
    end: np.ndarray
    key: np.ndarray
    count: np.ndarray
    busy: np.ndarray
    opacity: np.ndarray
    keys: list[int]
    names: dict[object, str]


class HeatBars(Sequence):
    """One lane's heat bars: a window onto :class:`HeatColumns`.

    The dense-row renderer reads the column slices; whoever iterates or
    indexes gets :class:`TimelineBar` objects (and their tooltips), made
    then."""

    def __init__(self, columns: HeatColumns, lo: int, hi: int) -> None:
        self.columns = columns
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[TimelineBar]:
        cols = self.columns
        at = slice(self.lo, self.hi)
        for start, end, key, count, busy, opacity in zip(
            *(
                col[at].tolist()
                for col in (cols.start, cols.end, cols.key, cols.count, cols.busy, cols.opacity)
            )
        ):
            state = cols.keys[key]
            frac = min(busy / max(end - start, 1), 1.0)
            yield TimelineBar(
                start, end, state, 0,
                f"{cols.names[state]} ~{frac:.0%} busy, {count} records",
                opacity=opacity,
            )

    def __getitem__(self, index):
        return list(self)[index]


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
    columns (:class:`HeatColumns`), each row's ``bars`` a window onto them.

    Each lane renders its utilization cells as heat bars: color is the
    bin's dominant state, opacity its busy fraction.  ``kind`` picks the
    lane family (``"thread"`` rows per (node, thread), ``"cpu"`` rows per
    (node, cpu)); ``window`` restricts the time range (defaults to the
    indexed span) and ``max_bins`` caps the level resolution so the
    lookup stays O(pixels) at any zoom."""
    from repro.query.utilization import split_thread_key

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
    states, seen, key = np.unique(state, return_index=True, return_inverse=True)
    order = np.argsort(seen)
    position = np.empty(len(states), dtype=np.int64)
    position[order] = np.arange(len(states))
    keys = states[order].tolist()
    names: dict[object, str] = {}
    for state in keys:
        try:
            names[state] = record_name(state)
        except Exception:
            names[state] = f"type-{state}"
    columns = HeatColumns(
        # A run ends where the next one starts (the last, where the first did).
        lo[starts], hi[np.roll(first, -1)], position[key[starts]],
        np.add.reduceat(cells.counts, starts), np.add.reduceat(clipped, starts),
        np.maximum((bucket[starts] + 1) / _OPACITY_BUCKETS, 0.15),
        keys, names,
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
        rows.append(TimelineRow(label, (node, sub), HeatBars(columns, bar_lo, bar_hi)))
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


def _tick_column(ticks: list[int]) -> np.ndarray:
    """Ticks as an int64 column (as Python ints in an object column when
    one does not fit, so arithmetic stays exact at any size)."""
    try:
        return np.array(ticks, dtype=np.int64)
    except OverflowError:
        return np.array(ticks, dtype=object)


def _bar_columns(bars: Sequence[TimelineBar], fill_of: Callable[[object], int]) -> tuple:
    """A row's bars as the columns :func:`_render_bars_batched` lays out:
    ``(start, end, depth, opacity, fill)`` in drawing order (depth, then
    start), ``fill`` from ``fill_of(key)``."""
    if isinstance(bars, HeatBars):
        # Already in order: one depth, starts ascending.
        cols, at = bars.columns, slice(bars.lo, bars.hi)
        fills = np.array([fill_of(key) for key in cols.keys], dtype=np.int64)
        return (
            cols.start[at], cols.end[at], np.zeros(len(bars), dtype=np.int64),
            cols.opacity[at], fills[cols.key[at]],
        )
    bars = sorted(bars, key=lambda b: (b.depth, b.start))
    return (
        _tick_column([b.start for b in bars]), _tick_column([b.end for b in bars]),
        np.array([b.depth for b in bars], dtype=np.int64),
        np.array([b.opacity for b in bars], dtype=np.float64),
        np.array([fill_of(b.key) for b in bars], dtype=np.int64),
    )


def _render_bars_batched(
    rows: list[TimelineRow], cmap: ColorMap, x_of: Callable[[int], float], t0: int, t1: int
) -> dict[int, list[tuple[str, str, float | None]]]:
    """Lay out every dense row (more than :data:`_BATCH_BARS` bars) of a
    view in one pass.

    Returns, per dense row's position, the arguments of one
    :meth:`SvgCanvas.path` per (fill, opacity, inset) group in
    first-appearance order — ``(d, fill, opacity)``, the ``d`` carrying
    every bar of that style as a rectangular subpath.  Coordinates are
    float64 columns computed in the order the sparse rows' scalar code
    uses; formatting is one ``%`` over their Python floats."""
    palette: dict[str, int] = {}

    def fill_of(key: object) -> int:
        return palette.setdefault(cmap.color_of(key), len(palette))

    dense = {
        i: _bar_columns(row.bars, fill_of)
        for i, row in enumerate(rows) if len(row.bars) > _BATCH_BARS
    }
    paths: dict[int, list[tuple[str, str, float | None]]] = {i: [] for i in dense}
    if not dense:
        return paths
    x_base = x_of(t0)
    scale = (x_of(t1) - x_base) / (t1 - t0)
    row = np.repeat(
        np.fromiter(dense, np.int64, len(dense)), [len(cols[0]) for cols in dense.values()]
    )
    start, end, depth, opacity, fill = map(np.concatenate, zip(*dense.values()))
    if not -(1 << 63) <= t0 <= t1 < 1 << 63:
        start, end = start.astype(object), end.astype(object)
    keep = np.flatnonzero((end >= t0) & (start <= t1))
    s, e = np.maximum(start[keep], t0), np.minimum(end[keep], t1)
    x = x_base + (s - t0) * scale
    w = np.maximum((e - s) * scale, 0.75)
    row, fill, opacity, level = row[keep], fill[keep], opacity[keep], np.minimum(depth[keep], 3)
    # Bars grouped by style, groups in the order their first bar is drawn.
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
    fill_names = list(palette)
    for r, d, f, opacity in zip(
        at_rows, ("\n".join(templates) % tuple(numbers)).split("\n"), fills, opacities
    ):
        paths[r].append((d, fill_names[f], round(opacity, 3) if opacity < 1.0 else None))
    return paths


def render_view_svg(
    view: TimelineView,
    path,
    *,
    width: int = 1100,
    window: tuple[int, int] | None = None,
    ticks_per_sec: float = 1e9,
):
    """Render a timeline view to an SVG file.

    ``window`` restricts the x-axis to a sub-range (frame display); bars are
    clipped to it.
    """
    canvas = _view_canvas(view, width=width, window=window, ticks_per_sec=ticks_per_sec)
    return canvas.write(path)


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
    legend_items = _legend_items(view)
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

    dense = _render_bars_batched(view.rows, cmap, x_of, t0, t1)
    for i, row in enumerate(view.rows):
        y = MARGIN_TOP + i * ROW_HEIGHT
        canvas.text(
            MARGIN_LEFT - 8, y + BAR_HEIGHT, row.label, size=10,
            fill=TEXT_PRIMARY, anchor="end",
        )
        canvas.rect(
            MARGIN_LEFT, y + (ROW_HEIGHT - BAR_HEIGHT) / 2, plot_w, BAR_HEIGHT,
            fill=IDLE_COLOR,
        )
        if i in dense:
            for d, fill, opacity in dense[i]:
                canvas.path(d, fill=fill, opacity=opacity)
        else:
            for bar in sorted(row.bars, key=lambda b: (b.depth, b.start)):
                if bar.end < t0 or bar.start > t1:
                    continue
                x_a = x_of(max(bar.start, t0))
                x_b = x_of(min(bar.end, t1))
                inset = min(bar.depth, 3) * 2.0
                canvas.rect(
                    x_a, y + (ROW_HEIGHT - BAR_HEIGHT) / 2 + inset,
                    max(x_b - x_a, 0.75), BAR_HEIGHT - 2 * inset,
                    fill=cmap.color_of(bar.key), rx=1.5, title=bar.tooltip or None,
                    opacity=bar.opacity if bar.opacity < 1.0 else None,
                )
        canvas.line(
            MARGIN_LEFT, y + ROW_HEIGHT, MARGIN_LEFT + plot_w, y + ROW_HEIGHT,
            stroke=GRID, stroke_width=0.5,
        )

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


def _legend_items(view: TimelineView) -> list[tuple[object, str]]:
    # Stable order: by first appearance in key_names (dict preserves order).
    return list(view.key_names.items())


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
