"""The exact render path in columns against the per-record code it replaced.

A frame display is drawn from the frame's batch: one builder for the five
piece views, an open-state walk over column lists for the connected one,
one lazy ``Bars`` per row and one layout pass in ``_view_canvas``.  The code
of the commit before — five builder loops making a ``TimelineBar`` per
record, and the sparse rows' ``canvas.rect`` loop — is kept *here* as the
reference, and hypothesis holds the columns to it over record sets with
markers, more states than palette slots, all four bebits with unmatched
pieces, lanes outside the thread table, ticks up to 2**62 and names drawn
from all of Unicode: rows, labels, legend, every lazy bar in order, and the
SVG byte for byte.

The satellites ride along: an unknown view kind is refused before any IO, a frame display
leaves one cached form behind, and ``ServeClient``'s revalidation cache is a
bounded LRU.
"""

from __future__ import annotations

import io
import xml.dom.minidom
from dataclasses import dataclass, field
from typing import Callable, Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.query.columnar import FrameBatch, batch_from_records
from repro.serve import ServeClient, client as client_module
from repro.serve.app import ServerThread
from repro.viz.arrows import MessageArrow
from repro.viz.colors import IDLE_COLOR, ColorMap
from repro.viz.jumpshot import VIEW_KINDS, Jumpshot
from repro.viz.svg import AXIS, GRID, SvgCanvas, TEXT_PRIMARY, TEXT_SECONDARY
from repro.viz.views import (
    _BATCH_BARS,
    BAR_HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    ROW_HEIGHT,
    Bars,
    TimelineBar,
    TimelineView,
    _fmt_time,
    _render_arrows,
    _render_legend,
    _thread_label,
    piece_view,
    view_svg_string,
)
from tests.conftest import DATA_DIR

# ------------------------------------------------- the reference: builders
# The five builder loops (and their helpers) of the commit before, verbatim
# but for the row class: a reference row keeps the plain list it appends to.


@dataclass
class RefRow:
    label: str
    row_key: tuple
    bars: list = field(default_factory=list)


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


def _cpu_row(rows: dict[tuple, RefRow], record: IntervalRecord) -> RefRow:
    """The (node, cpu) timeline of ``record``, added on first sight."""
    row_key = (record.node, record.cpu)
    row = rows.get(row_key)
    if row is None:
        row = rows[row_key] = RefRow(f"node {record.node} CPU {record.cpu}", row_key)
    return row


def _filter_real(records: Iterable[IntervalRecord]) -> list[IntervalRecord]:
    """Drop clock pairs; keep pseudo-intervals out of piece views (they are
    zero-duration and would be invisible anyway)."""
    return [
        r
        for r in records
        if r.itype != IntervalType.CLOCKPAIR and r.duration > 0
    ]


def ref_thread_activity_view(
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
    rows: dict[tuple, RefRow] = {}
    names: dict[object, str] = {}
    open_states: dict[tuple, dict[object, TimelineBar]] = {}
    # Seed a row for every known thread so idle threads show as empty
    # timelines — Figure 8's "one thread is idle" observation depends on it.
    for entry in thread_table:
        key = (entry.node, entry.logical_tid)
        rows[key] = RefRow(_thread_label(thread_table, *key), key)
        open_states[key] = {}
    for r in sorted(recs, key=lambda x: (x.node, x.thread, x.start, x.end)):
        row_key = (r.node, r.thread)
        row = rows.get(row_key)
        if row is None:
            row = RefRow(_thread_label(thread_table, r.node, r.thread), row_key)
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


def ref_processor_activity_view(
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
    rows: dict[tuple, RefRow] = {}
    for node, n_cpus in sorted(n_cpus_per_node.items()):
        for cpu in range(n_cpus):
            rows[(node, cpu)] = RefRow(f"node {node} CPU {cpu}", (node, cpu))
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


def ref_type_activity_view(
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
    rows: dict[object, RefRow] = {}  # by state; ordered by (label, state)
    names: dict[object, str] = {}
    for r in recs:
        state = _state_key(r)
        row = rows.get(state)
        if row is None:
            label = _state_name(r, record_name, markers)
            row = rows[state] = RefRow(label, (str(label), state))
        key = ("thread", r.node, r.thread)
        if key not in names:
            names[key] = _thread_label(thread_table, r.node, r.thread)
        row.bars.append(TimelineBar(r.start, r.end, key, 0, names[key]))
    t0, t1 = _span(recs)
    return TimelineView(
        "Type-activity view", sorted(rows.values(), key=lambda row: row.row_key),
        t0, t1, names,
    )


def ref_thread_processor_view(
    records: Iterable[IntervalRecord], thread_table: ThreadTable
) -> TimelineView:
    """Thread-processor view: timelines per thread, colored by processor —
    shows threads jumping among CPUs."""
    recs = _filter_real(records)
    rows: dict[tuple, RefRow] = {}
    names: dict[object, str] = {}
    for r in recs:
        row_key = (r.node, r.thread)
        row = rows.get(row_key)
        if row is None:
            row = rows[row_key] = RefRow(
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


def ref_processor_thread_view(
    records: Iterable[IntervalRecord],
    n_cpus_per_node: dict[int, int],
    thread_table: ThreadTable,
) -> TimelineView:
    """Processor-thread view: timelines per processor, colored by thread —
    shows processor allocation among threads."""
    recs = _filter_real(records)
    rows: dict[tuple, RefRow] = {}
    for node, n_cpus in sorted(n_cpus_per_node.items()):
        for cpu in range(n_cpus):
            rows[(node, cpu)] = RefRow(f"node {node} CPU {cpu}", (node, cpu))
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




# --------------------------------------------------- the reference: canvas


def ref_view_svg(view, *, width=1100, window=None, ticks_per_sec=1e9) -> str:
    """``_view_canvas`` of the commit before with every row drawn by its
    sparse loop: one ``canvas`` call per label, strip, bar and rule."""
    t0, t1 = window if window is not None else (view.t0, view.t1)
    t1 = max(t1, t0 + 1)
    n_rows = max(len(view.rows), 1)
    legend_items = list(view.key_names.items())
    legend_height = 18 * ((len(legend_items) + 3) // 4)
    height = MARGIN_TOP + n_rows * ROW_HEIGHT + MARGIN_BOTTOM + legend_height
    plot_w = width - MARGIN_LEFT - MARGIN_RIGHT
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
    return canvas.to_string()


# -------------------------------------------------------------- strategies

MARKER = IntervalType.MARKER
#: Twelve states beside markers: the legend runs past the eight palette slots.
TYPES = [IntervalType.RUNNING, IntervalType.IO, IntervalType.CLOCKPAIR, MARKER, MARKER] + [
    IntervalType.for_mpi_fn(fn) for fn in range(10)
]


@st.composite
def record_sets(draw):
    """Records on three nodes x four threads x three CPUs (the tables below
    know two nodes, three threads, two CPUs): every bebits, zero durations,
    markers with and without an id, times up to 2**62."""
    big = draw(st.booleans())
    starts = st.integers(0, (1 << 62) - 1) if big else st.integers(0, 5_000)
    duras = st.integers(0, 1 << 61) if big else st.sampled_from([0, 1, 7, 60, 900])
    records = []
    for _ in range(draw(st.integers(0, 40))):
        itype = draw(st.sampled_from(TYPES))
        extra = {}
        if itype == MARKER and draw(st.booleans()):
            extra["markerId"] = draw(st.integers(0, 3))
        records.append(IntervalRecord(
            itype, draw(st.sampled_from(list(BeBits))), draw(starts), draw(duras),
            draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3)), extra,
        ))
    return records


@st.composite
def trace_names(draw):
    """``(thread table, {node: cpus}, record_name, markers)`` with every
    name a trace can carry drawn from all of Unicode."""
    table = ThreadTable([
        ThreadEntry(n * 3 + t, 100 + n, 5000 + n * 3 + t, n, t,
                    draw(st.sampled_from([-1, n * 3 + t])), draw(st.text(max_size=6)))
        for n in range(2) for t in range(3)
    ])
    prefix = draw(st.text(max_size=6))
    markers = draw(st.dictionaries(st.integers(0, 2), st.text(max_size=6), max_size=3))
    return table, {0: 2, 1: 2}, lambda itype: f"{prefix}{itype}", markers


def windows_over(view, data):
    span = view.t1 - view.t0
    t0 = data.draw(st.integers(view.t0 - span // 3 - 2, view.t1), label="t0")
    t1 = data.draw(st.integers(t0, view.t1 + span // 3 + 2), label="t1")
    return data.draw(st.sampled_from([None, (t0, t1)]), label="window")


def builders(names, *, connected_window=None):
    """``{kind: (reference builder, builder)}``, both taking the records
    (the builder reads them into one batch)."""
    table, cpus, record_name, markers = names
    arrows = [MessageArrow(7, (0, 0), (1, 1), 10, 400, 64), MessageArrow(8, (0, 1), (9, 9), 0, 1, 1)]

    def build(kind, **extra):
        return lambda r: piece_view(
            kind, batch_from_records(r), thread_table=table, n_cpus_per_node=cpus,
            record_name=record_name, markers=markers, **extra,
        )

    return {
        "thread": (
            lambda r: ref_thread_activity_view(r, table, record_name, markers, arrows=arrows),
            build("thread", arrows=arrows),
        ),
        "thread-connected": (
            lambda r: ref_thread_activity_view(
                r, table, record_name, markers, connected=True, window=connected_window),
            build("thread-connected", window=connected_window),
        ),
        "processor": (
            lambda r: ref_processor_activity_view(r, cpus, record_name, markers),
            build("processor"),
        ),
        "thread-processor": (
            lambda r: ref_thread_processor_view(r, table),
            build("thread-processor"),
        ),
        "processor-thread": (
            lambda r: ref_processor_thread_view(r, cpus, table),
            build("processor-thread"),
        ),
        "type": (
            lambda r: ref_type_activity_view(r, table, record_name, markers),
            build("type"),
        ),
    }


def same_model(view: TimelineView, want: TimelineView) -> None:
    assert view.title == want.title
    assert (view.t0, view.t1) == (want.t0, want.t1)
    assert view.key_names == want.key_names
    assert list(view.key_names) == list(want.key_names)  # legend order
    assert view.arrows == want.arrows
    assert [(row.row_key, row.label) for row in view.rows] == [
        (row.row_key, row.label) for row in want.rows
    ]
    for row, ref_row in zip(view.rows, want.rows):
        assert isinstance(row.bars, Bars) and len(row.bars) == len(ref_row.bars)
        assert list(row.bars) == ref_row.bars  # start, end, key, depth, tooltip, in order


# ------------------------------------------------------ builders and canvas


class TestColumnsAgainstTheRecordLoops:
    @settings(max_examples=150, deadline=None)
    @given(record_sets(), trace_names(), st.data())
    def test_model_and_svg_equal_the_reference(self, records, names, data):
        span_end = max((r.end for r in records), default=1)
        edge = data.draw(st.sampled_from([None, (0, span_end // 2), (0, span_end + 50)]))
        for kind, (reference, build) in builders(names, connected_window=edge).items():
            try:
                want = reference(records)
            except TypeError:
                # Two states under one label, one of them a marker: the
                # reference cannot order (label, int) against (label, tuple);
                # the builder puts the record type's row first.
                assert kind == "type"
                keys = [row.row_key for row in build(records).rows]
                assert keys == sorted(keys, key=lambda k: (k[0], isinstance(k[1], tuple), k[1]))
                assert len({label for label, _ in keys}) < len(keys)
                continue
            window = windows_over(want, data)
            width = data.draw(st.sampled_from([1100, 640, 404]), label="width")
            svg = ref_view_svg(want, width=width, window=window, ticks_per_sec=1e6)
            view = build(records)
            same_model(view, want)
            assert view_svg_string(view, width=width, window=window, ticks_per_sec=1e6) == svg
            xml.dom.minidom.parseString(svg)

    def test_a_view_is_built_without_bar_objects(self, monkeypatch):
        made = []
        monkeypatch.setattr(
            "repro.viz.views.TimelineBar", lambda *a, **k: made.append(a) or TimelineBar(*a, **k)
        )
        records = [
            IntervalRecord(IntervalType.for_mpi_fn(i % 3), BeBits.COMPLETE, i * 10, 8, 0, i % 2, i % 3)
            for i in range(30)
        ]
        names = (ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "t")]), {0: 2}, str, {})
        for _, build in builders(names).values():
            view = build(records)
            xml.dom.minidom.parseString(view_svg_string(view))
        assert not made
        assert len(list(view.rows[0].bars)) == len(made) > 0  # whoever iterates pays

    def test_dense_rows_count_what_was_read_not_what_is_visible(self):
        # 60 bars on one lane, three inside the window: still a dense row.
        records = [
            IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 70, 0, 0, 0)
            for i in range(_BATCH_BARS + 12)
        ]
        table = ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "t")])
        view = piece_view("thread", batch_from_records(records), thread_table=table, record_name=str)
        svg = view_svg_string(view, window=(1_000, 1_250))
        assert svg.count("<path") == 1 and "<title>" not in svg
        assert svg.count("M") == 3

    def test_a_plain_list_of_bars_is_read_into_columns(self):
        bars = [TimelineBar(5, 9, "b", 1, "inner"), TimelineBar(0, 20, "a", 0, ""),
                TimelineBar(0, 4, "b", 0, "x<y", 0.5)]
        from repro.viz.views import TimelineRow

        row = TimelineRow("r", (0, 0), bars)
        assert isinstance(row.bars, Bars) and list(row.bars) == bars
        assert row.bars[1] == bars[1] and len(TimelineRow("e", (0, 1)).bars) == 0
        view = TimelineView("v", [row], 0, 20, {"a": "A", "b": "B"})
        want = TimelineView("v", [RefRow("r", (0, 0), bars)], 0, 20, {"a": "A", "b": "B"})
        assert view_svg_string(view) == ref_view_svg(want)


# ------------------------------------------------- the viewer reads batches


class TestFrameDisplayReadsBatches:
    @pytest.fixture
    def viewer(self):
        with Jumpshot(DATA_DIR / "good.slog") as viewer:
            yield viewer

    def test_an_unknown_kind_is_refused_before_any_io(self, viewer):
        before = viewer.slog.stats()
        for call in (
            lambda: viewer.view_svg_at(0.0000001, kind="bogus"),
            lambda: viewer.view_svg_at(99.0, kind="bogus"),  # no frame holds t either
            lambda: viewer.view_svg_window(0.0, 1.0, kind="bogus"),
            lambda: viewer.build_view(FrameBatch(0), "bogus"),
        ):
            with pytest.raises(FormatError, match="unknown view kind 'bogus'; pick one of"):
                call()
        assert viewer.slog.stats() == before  # no miss, no hit, no byte fetched
        assert before["misses"] == 0

    def test_the_server_answers_400_and_reads_nothing(self):
        with ServerThread(DATA_DIR / "good.slog") as server:
            client = ServeClient(server.base_url, use_etags=False)
            before = client.metric_value("ute_serve_frame_cache_misses_total")
            for query in ("t=0.0000001", "t=99", "window=0:1"):
                response = client.request(f"/api/view/bogus?{query}")
                assert response.status == 400
                assert "unknown view kind 'bogus'; pick one of" in response.text
                assert response.headers.get("x-ute-bytes-read", "0") == "0"
            assert client.metric_value("ute_serve_frame_cache_misses_total") == before
            assert client.request("/api/view/thread?t=99").status == 400  # no frame contains t

    def test_no_view_or_render_call_asks_for_record_objects(self, viewer):
        def refuse(frame):
            raise AssertionError("a display asked the frame store for record objects")

        # good.slog has no node table: the CPU counts are folded from the
        # frame columns too.
        viewer.slog.read_frame = refuse
        tps = viewer.slog.ticks_per_sec
        t = viewer.slog.frames[2].start_time / tps
        for kind in VIEW_KINDS:
            assert viewer.view_svg_at(t, kind=kind).startswith("<svg")
            assert viewer.view_svg_window(0.0, 1.0, kind=kind).startswith("<svg")
            assert viewer.view_svg_window(None, None, kind=kind).startswith("<svg")

    def test_a_frame_display_leaves_one_cached_form(self, viewer):
        frame = viewer.slog.frames[1]
        viewer.view_svg_at(frame.start_time / viewer.slog.ticks_per_sec)
        assert viewer.slog.resident_bytes() == frame.size  # the batch, no record list
        viewer.view_svg_at(frame.start_time / viewer.slog.ticks_per_sec, kind="type")
        stats = viewer.slog.stats()
        assert (stats["misses"], stats["hits"], stats["resident_bytes"]) == (1, 1, frame.size)

    def test_build_view_is_called_once_per_exact_view(self, viewer):
        # The benchmark wraps it as an instance attribute and reads a median
        # over its spans; the module-global renderer likewise.
        calls = []
        build_view = viewer.build_view
        viewer.build_view = lambda *a, **k: calls.append(a[1]) or build_view(*a, **k)
        viewer.view_svg_window(0.0, 1.0, kind="type")
        viewer.view_svg_at(0.0000001, kind="thread")
        assert calls == ["type", "thread"] and viewer.last_view_aggregate is False

    def test_an_empty_window_still_draws_the_idle_lanes(self, viewer):
        end = viewer.slog.frames[-1].end_time / viewer.slog.ticks_per_sec
        svg = viewer.view_svg_window(end + 1.0, end + 2.0, kind="thread")
        root = xml.dom.minidom.parseString(svg).documentElement
        assert len(root.getElementsByTagName("title")) == 0
        assert len(root.getElementsByTagName("text")) > len(viewer.slog.thread_table)


# ------------------------------------------------ the client's cache is an LRU


class FakeConnection:
    """An ``http.client.HTTPConnection`` answered in process: every path
    has a body and an ETag; a matching ``If-None-Match`` is a 304 without a
    body.  ``seen`` lists (path, validator) of every request sent."""

    seen: list = []

    def __init__(self, host, port, timeout=None):
        self.sock = None

    def request(self, method, path, body=None, headers=None):
        self.sock = object()  # connected
        validator = headers.get("If-None-Match")
        self.seen.append((path, validator))
        etag = f'"{path}"'
        hit = validator == etag
        self.reply = FakeResponse(
            304 if hit else 200, {"ETag": etag},
            b"" if hit else f"body of {path}".encode() * 40,
        )

    def getresponse(self):
        return self.reply

    def close(self):
        self.sock = None


class FakeResponse(io.BytesIO):
    def __init__(self, status, headers, body=b""):
        super().__init__(body)
        self.status, self.headers = status, headers

    def getheaders(self):
        return list(self.headers.items())


class TestClientCacheIsBounded:
    @pytest.fixture
    def served(self, monkeypatch):
        monkeypatch.setattr(FakeConnection, "seen", [])
        monkeypatch.setattr(client_module.http.client, "HTTPConnection", FakeConnection)
        return FakeConnection.seen

    def test_ten_thousand_paths_stay_under_the_bound(self, served):
        client = ServeClient("http://fake")
        max_entries, max_bytes = client_module.CACHE_BOUND
        for i in range(10_000):
            client.request(f"/api/view/thread?t={i}")
            assert len(client._cache) <= max_entries
        assert len(client._cache) == max_entries
        assert sum(len(r.body) for r in client._cache.values()) <= max_bytes
        # The most recent paths are the ones kept, and they revalidate.
        assert list(client._cache)[-1] == "/api/view/thread?t=9999"
        response = client.request("/api/view/thread?t=9999")
        assert response.status == 304
        assert response.body == b"body of /api/view/thread?t=9999" * 40
        # One that fell out is fetched in full again, without a validator.
        assert client.request("/api/view/thread?t=0").status == 200
        assert served[-1] == ("/api/view/thread?t=0", None)

    def test_the_byte_bound_evicts_too(self, served, monkeypatch):
        monkeypatch.setattr(client_module, "CACHE_BOUND", (256, 3_000))
        client = ServeClient("http://fake")
        for i in range(50):
            client.request(f"/p{i}")
            assert sum(len(r.body) for r in client._cache.values()) <= 3_000
        assert 0 < len(client._cache) < 50
        monkeypatch.setattr(client_module, "CACHE_BOUND", (256, 10))
        client.request("/too-big-for-the-cache")
        assert not client._cache

    def test_a_revalidated_hit_is_the_most_recent(self, served, monkeypatch):
        monkeypatch.setattr(client_module, "CACHE_BOUND", (2, 1 << 20))
        client = ServeClient("http://fake")
        client.request("/a")
        client.request("/b")
        assert client.request("/a").status == 304  # /a is now the newer one
        client.request("/c")  # evicts /b
        assert list(client._cache) == ["/a", "/c"]
        assert client.request("/a").body == b"body of /a" * 40
