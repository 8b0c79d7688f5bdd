"""The columnar render path against the per-object code it replaced.

The aggregate answer stays in columns from ``UtilizationIndex.query`` to
the SVG string; these properties hold each columnar step to a reference
kept here — the cell-by-cell, bar-by-bar loops of the commit before:

* ``query``'s ``dominant`` column is ``dominant_state`` of every cell, and
  its mapping form is the per-lane ``Level.cells`` answer;
* a row's lazy ``bars`` are the bars the per-cell merge loop built (start,
  end, key, opacity, tooltip), for windows that cut bins at both edges and
  spans up to 2**62 ticks;
* every view kind is well-formed XML whatever the trace's names hold.

The satellite fixes ride along: names with control characters, views too
narrow for a plot, and the per-viewer CPU-count inference.
"""

from __future__ import annotations

import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.query import build_index, index_path_for, open_trace, write_index
from repro.query.columnar import batch_from_records
from repro.query.utilization import (
    UtilizationBuilder,
    dominant_state,
    split_thread_key,
    thread_key,
)
from repro.serve.app import ServerThread
from repro.utils.slog import SlogWriter
from repro.viz.jumpshot import Jumpshot
from repro.viz.svg import SvgCanvas
from repro.viz.views import (
    MIN_VIEW_WIDTH,
    TimelineBar,
    TimelineRow,
    TimelineView,
    _thread_label,
    piece_view,
    utilization_view,
    view_svg_string,
)
from repro.workloads import write_big_slog

PROFILE = standard_profile()
MARKER = int(IntervalType.MARKER)
STATES = [int(IntervalType.RUNNING), MARKER, int(IntervalType.for_mpi_fn(0)),
          int(IntervalType.for_mpi_fn(1)), 7]
TABLE = ThreadTable(
    [ThreadEntry(n * 3 + t, 100 + n, 5000 + n * 3 + t, n, t, 0, f"n{n}t{t}")
     for n in range(2) for t in range(3)]
)


def rec(start, dura, *, node=0, cpu=0, thread=0, itype=IntervalType.RUNNING,
        bebits=BeBits.COMPLETE, extra=None):
    return IntervalRecord(itype, bebits, start, dura, node, cpu, thread, extra or {})


def build(records, **kwargs):
    builder = UtilizationBuilder(**kwargs)
    for r in records:
        builder.add(r)
    return builder.build()


#: (start, duration, node, cpu, thread, state); the big rows reach 2**62
#: ticks while a lane's busy total stays inside int64.
small_rows = st.lists(
    st.tuples(
        st.integers(0, 3_000_000),
        st.sampled_from([1, 7, 300, 5_000, 120_000, 900_000]),
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
        st.sampled_from(STATES),
    ),
    min_size=1, max_size=60,
)
big_rows = st.lists(
    st.tuples(
        st.integers(0, (1 << 62) - (1 << 59) - 1), st.integers(1, 1 << 59),
        st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
        st.sampled_from(STATES),
    ),
    min_size=1, max_size=6,
)
record_rows = st.one_of(small_rows, big_rows)
grids = st.sampled_from([4096, 64])  # base_bins
max_bins = st.sampled_from([1, 3, 16, 192, 1024, 1 << 20])


def from_rows(rows):
    return [
        rec(start, dura, node=node, cpu=cpu, thread=thread, itype=itype)
        for start, dura, node, cpu, thread, itype in rows
    ]


def windows_of(util, data):
    """A window drawn around the indexed span: inside it, overhanging it
    on either side, or the span itself."""
    span = util.t_max - util.t_min
    t0 = data.draw(st.integers(util.t_min - span // 3 - 2, util.t_max), label="t0")
    t1 = data.draw(st.integers(t0, util.t_max + span // 3 + 2), label="t1")
    return data.draw(st.sampled_from([(t0, t1), (util.t_min, util.t_max)]), label="window")


# ------------------------------------------------------------ the references


def reference_query(util, kind, t0, t1, max_bins):
    """``query`` as it answered before the columns: every selected cell
    through ``Level.cells`` at once, split by lane.  A window wholly
    outside the span has no cells, at the finest level."""
    table = util._table(kind)
    if t1 < util.t_min or t0 > util.t_max:
        return util.base_shift, {}
    t0 = max(t0, util.t_min)
    t1 = min(max(t1, t0), util.t_max)
    li = util.level_for(t0, t1, max_bins)
    k = util.base_shift + li
    level = table.levels[li]
    sel = np.flatnonzero((level.bins >= t0 >> k) & (level.bins <= t1 >> k))
    cells = level.cells(sel, k)
    cuts = np.searchsorted(sel, level.offsets).tolist()
    return k, {
        key: cells[lo:hi]
        for key, lo, hi in zip(table.keys.tolist(), cuts, cuts[1:]) if lo < hi
    }


def reference_bars(util, kind, record_name, window, max_bins):
    """The per-cell merge loop ``utilization_view`` used to be: ``({lane
    key: [TimelineBar]}, names)`` from the mapping form of the answer."""
    t0, t1 = window
    t1 = max(t1, t0 + 1)
    shift, lanes = util.query(kind, t0, t1, max_bins)
    names = {}
    bars = {}

    def bar_of(run):
        lo, hi, state, count, bucket, busy = run
        frac = min(busy / max(hi - lo, 1), 1.0)
        return TimelineBar(
            lo, hi, state, 0, f"{names[state]} ~{frac:.0%} busy, {count} records",
            opacity=max((bucket + 1) / 8, 0.15),
        )

    for key in sorted(util.lanes(kind)):
        out = bars[key] = []
        run = None
        for bin_t0, bin_t1, count, busy, states in lanes.get(key, []):
            state = dominant_state(states)
            if state not in names:
                names[state] = record_name(state)
            lo, hi = max(bin_t0, t0), min(bin_t1, t1)
            clipped = busy * (hi - lo) // (bin_t1 - bin_t0)
            bucket = min(int(clipped * 8 // max(hi - lo, 1)), 7)
            if run is not None and run[2] == state and run[1] == lo and run[4] == bucket:
                run[1] = hi
                run[3] += count
                run[5] += clipped
                continue
            if run is not None:
                out.append(bar_of(run))
            run = [lo, hi, state, count, bucket, clipped]
        if run is not None:
            out.append(bar_of(run))
    return bars, names


def name_of(state):
    return f"state-{state}"


# --------------------------------------------------------------- the answer


class TestQueryColumns:
    @settings(max_examples=80, deadline=None)
    @given(record_rows, grids)
    def test_dominant_is_dominant_state_of_every_cell(self, rows, grid):
        util = build(from_rows(rows), base_bins=grid)
        for kind in ("thread", "cpu"):
            for li in range(util.n_levels):
                k = util.base_shift + li
                held = util.level_cells(kind, li)
                # A window over the whole span at this level's resolution.
                fits = (util.t_max >> k) - (util.t_min >> k) + 1
                shift, cells = util.query(kind, util.t_min, util.t_max, fits)
                if shift != k:
                    continue  # a finer level already fits that many bins
                lanes = np.repeat(cells.lanes, np.diff(cells.offsets)).tolist()
                assert len(lanes) == sum(len(lane) for lane in held.values())
                for lane, bin_, count, busy, top in zip(
                    lanes, cells.bins.tolist(), cells.counts.tolist(),
                    cells.busy.tolist(), cells.dominant.tolist(),
                ):
                    n, states = held[lane][bin_]
                    assert (count, busy) == (n, sum(states.values()))
                    assert top == dominant_state(states)

    @settings(max_examples=80, deadline=None)
    @given(record_rows, grids, max_bins, st.data())
    def test_the_mapping_is_the_per_lane_cell_lists(self, rows, grid, bins, data):
        util = build(from_rows(rows), base_bins=grid)
        t0, t1 = windows_of(util, data)
        for kind in ("thread", "cpu"):
            shift, cells = util.query(kind, t0, t1, bins)
            want_shift, want = reference_query(util, kind, t0, t1, bins)
            assert shift == want_shift == cells.shift
            assert list(cells) == list(want)
            assert dict(cells) == want
            assert len(cells) == len(want)
            assert cells == want and cells.get(-1) is None
            # The columns say the same thing as the lists.
            flat = [cell for lane in want.values() for cell in lane]
            assert (cells.bins << shift).tolist() == [c[0] for c in flat]
            assert cells.counts.tolist() == [c[2] for c in flat]
            assert cells.busy.tolist() == [c[3] for c in flat]
            assert cells.dominant.tolist() == [dominant_state(c[4]) for c in flat]

    def test_ties_go_to_the_smallest_state(self):
        # Two states with equal busy time in one bin, a third behind them.
        records = [
            rec(0, 40, itype=9), rec(40, 40, itype=5), rec(80, 20, itype=3),
            rec(0, 30, thread=1, itype=8),
        ]
        util = build(records)
        _, cells = util.query("thread", 0, 100, 1)
        assert cells.dominant.tolist() == [5, 8]


# ----------------------------------------------------------------- the bars


class TestHeatBars:
    @settings(max_examples=120, deadline=None)
    @given(record_rows, grids, max_bins, st.data())
    def test_lazy_bars_equal_the_merge_loop(self, rows, grid, bins, data):
        util = build(from_rows(rows), base_bins=grid)
        window = windows_of(util, data)
        for kind in ("thread", "cpu"):
            view = utilization_view(
                util, kind, TABLE, name_of, window=window, max_bins=bins
            )
            want, names = reference_bars(util, kind, name_of, window, bins)
            assert view.key_names == names
            assert list(view.key_names) == list(names)  # legend order
            assert [row.row_key for row in view.rows] == [
                split_thread_key(key) for key in want
            ]
            for row, bars in zip(view.rows, want.values()):
                assert len(row.bars) == len(bars)
                assert list(row.bars) == bars
                if bars:
                    assert row.bars[0] == bars[0] and row.bars[-1] == bars[-1]

    def test_a_window_cutting_both_edge_bins_at_a_wide_shift(self):
        # shift >= 32: busy * (hi - lo) passes 2**63 on the cut cells.
        t = 1 << 58
        records = [rec(i * t, t - (i % 3) * (t >> 4), itype=STATES[i % 5]) for i in range(12)]
        util = build(records)
        window = (t // 3, 11 * t + t // 7)
        view = utilization_view(util, "thread", TABLE, name_of, window=window, max_bins=8)
        want, _ = reference_bars(util, "thread", name_of, window, 8)
        shift, _ = util.query("thread", *window, 8)
        assert shift >= 32
        assert list(view.rows[0].bars) == want[thread_key(0, 0)]
        assert view.rows[0].bars[0].start == window[0]
        assert view.rows[0].bars[-1].end == window[1]

    def test_a_window_before_the_span_draws_no_bar(self):
        # Used to draw the first bin's cells, clipped to a bar that starts
        # after it ends (1 000 000 -> 500 000).
        util = build([rec(10**6 + i * 1_000, 400, thread=i % 2) for i in range(50)])
        for window in ((0, 500_000), (util.t_max + 1, util.t_max + 500_000)):
            view = utilization_view(util, "thread", TABLE, name_of, window=window)
            assert [len(row.bars) for row in view.rows] == [0, 0]
            assert view.key_names == {}

    def test_idle_lanes_keep_their_rows(self):
        util = build([rec(0, 100), rec(5_000, 100, thread=1)])
        view = utilization_view(util, "thread", TABLE, name_of, window=(0, 200))
        assert [len(row.bars) for row in view.rows] == [1, 0]
        assert view.rows[0].label == _thread_label(TABLE, 0, 0)


# --------------------------------------------------------------- the markup


def six_views(names, records):
    """Every view kind over ``records``, with every name a trace can
    carry — thread, marker and record-type names — taken from ``names``."""
    thread_a, thread_b, marker, state = names
    table = ThreadTable(
        [ThreadEntry(0, 100, 5000, 0, 0, 0, thread_a),
         ThreadEntry(1, 100, 5001, 0, 1, 0, thread_b)]
    )
    markers = {1: marker}
    cpus = {0: 2}

    def record_name(itype):
        return f"{state}{itype}"

    util = build(records)
    batch = batch_from_records(records)
    return [
        *(
            piece_view(
                kind, batch, thread_table=table, n_cpus_per_node=cpus,
                record_name=record_name, markers=markers,
            )
            for kind in ("thread", "thread-connected", "processor",
                         "thread-processor", "processor-thread", "type")
        ),
        utilization_view(util, "thread", table, record_name),
        utilization_view(util, "cpu", table, record_name),
    ]


def named_records(n):
    return [
        rec(
            i * 100, 60 + i % 30, cpu=i % 2, thread=i % 2,
            itype=MARKER if i % 4 == 0 else STATES[i % 5],
            extra={"markerId": 1 + i % 2} if i % 4 == 0 else None,
        )
        for i in range(n)
    ]


class TestWellFormed:
    @settings(max_examples=60, deadline=None)
    @given(st.tuples(st.text(), st.text(), st.text(), st.text()), st.sampled_from([8, 150]))
    def test_every_kind_parses_for_any_names(self, names, n_records):
        # 8 records: sparse rows (tooltipped rects); 150: dense rows (paths).
        for view in six_views(names, named_records(n_records)):
            xml.dom.minidom.parseString(view_svg_string(view))

    def test_a_control_character_becomes_the_replacement_character(self):
        views = six_views(("io\x01thread", "b", "phase\x0b", "st\x1f"), named_records(8))
        for view in views:
            svg = view_svg_string(view)
            xml.dom.minidom.parseString(svg)
            assert not set(svg) & set(map(chr, [*range(9), 11, 12, *range(14, 32)]))
        assert "io\ufffdthread" in view_svg_string(views[0])
        assert "phase\ufffd" in view_svg_string(views[0])

    def test_strings_are_escaped_and_numbers_are_not(self):
        canvas = SvgCanvas(40, 20)
        canvas.rect(1.005, 2, 3.14159, 4, fill='a"<b', rx=1.5, title="x\ufffe&y", opacity=0.5)
        canvas.line(0, 0, 1, 1, stroke="#000", dash="2 '\"2")
        canvas.text(1, 2, "<\uffff>", anchor="en&d")
        root = xml.dom.minidom.parseString(canvas.to_string()).documentElement
        rect = root.getElementsByTagName("rect")[1]
        assert rect.getAttribute("fill") == 'a"<b'
        assert rect.getAttribute("width") == "3.14"
        assert rect.getAttribute("rx") == "1.5"
        assert rect.getElementsByTagName("title")[0].firstChild.data == "x\ufffd&y"
        assert root.getElementsByTagName("line")[0].getAttribute("stroke-dasharray") == "2 '\"2"
        text = root.getElementsByTagName("text")[0]
        assert text.firstChild.data == "<\ufffd>"
        assert text.getAttribute("text-anchor") == "en&d"

    def test_existing_documents_are_unchanged_by_the_text_function(self):
        # Tab, newline and carriage return are XML characters: kept.
        canvas = SvgCanvas(10, 10)
        canvas.text(0, 0, "a\tb\nc\rd é \U0001f600")
        assert ">a\tb\nc\rd é \U0001f600</text>" in canvas.to_string()


# ------------------------------------------------------------ narrow widths


class TestNarrowViews:
    def test_a_view_without_room_for_a_plot_is_refused(self):
        view = piece_view(
            "thread", batch_from_records(named_records(8)), thread_table=TABLE,
            record_name=name_of,
        )
        for width in (200, 214, 0):
            with pytest.raises(FormatError, match="no room for the plot"):
                view_svg_string(view, width=width)
        assert "<svg" in view_svg_string(view, width=215)

    def test_the_minimum_leaves_a_forward_axis(self):
        view = piece_view(
            "thread", batch_from_records(named_records(8)), thread_table=TABLE,
            record_name=name_of,
        )
        svg = view_svg_string(view, width=MIN_VIEW_WIDTH)
        root = xml.dom.minidom.parseString(svg).documentElement
        ticks = [
            float(line.getAttribute("x1")) for line in root.getElementsByTagName("line")
            if line.getAttribute("y1") == "44"
        ]
        assert len(ticks) == 8 and ticks[:7] == sorted(ticks[:7]) and ticks[0] < ticks[6]
        assert 'width="0"' not in svg

    def test_the_server_clamps_width_to_the_minimum(self, tmp_path):
        big = write_big_slog(
            tmp_path / "w.slog", n_nodes=1, threads_per_node=2, n_records=400,
            cpus_per_node=2, frame_bytes=4096,
        )
        with open_trace(big.path) as handle:
            write_index(build_index(handle), index_path_for(big.path))
        import urllib.request

        with ServerThread(big.path) as server:
            bodies = {}
            for width in (200, MIN_VIEW_WIDTH):
                url = f"{server.base_url}/api/view/thread?window=0:0.01&width={width}"
                with urllib.request.urlopen(url) as response:
                    bodies[width] = response.read().decode()
        assert bodies[200] == bodies[MIN_VIEW_WIDTH]
        xml.dom.minidom.parseString(bodies[200])
        assert f'width="{MIN_VIEW_WIDTH}"' in bodies[200]
        assert 'width="0"' not in bodies[200]


# ----------------------------------------------------- CPU-count inference


class TestInferredCpus:
    @pytest.fixture
    def viewer(self, tmp_path):
        records = sorted(named_records(120), key=lambda r: r.end)
        writer = SlogWriter(
            tmp_path / "legacy.slog", PROFILE,
            ThreadTable([ThreadEntry(t, 100, 5000 + t, 0, t, 0, f"t{t}") for t in range(2)]),
            markers={1: "a", 2: "b"}, node_cpus={}, field_mask=MASK_ALL_MERGED,
            frame_bytes=512, time_range=(0, records[-1].end),
        )
        for record in records:
            writer.write(record)
        with Jumpshot(writer.close()) as viewer:
            assert not viewer.slog.node_cpus and len(viewer.slog.frames) > 3
            yield viewer

    @staticmethod
    def count_reads(viewer):
        calls = []
        read_frame_batch = viewer.slog.read_frame_batch

        def counting(frame):
            calls.append(frame)
            return read_frame_batch(frame)

        viewer.slog.read_frame_batch = counting
        return calls

    def test_two_processor_views_cost_one_pass(self, viewer):
        batch = viewer.batch(viewer.slog.frames[:1])
        calls = self.count_reads(viewer)
        first = viewer.build_view(batch, "processor")
        assert len(calls) == len(viewer.slog.frames)
        second = viewer.build_view(batch, "processor-thread")
        third = viewer.build_view(batch, "processor")
        assert len(calls) == len(viewer.slog.frames)
        assert [row.row_key for row in first.rows] == [(0, 0), (0, 1)]
        assert [row.row_key for row in second.rows] == [(0, 0), (0, 1)]
        assert [row.row_key for row in third.rows] == [(0, 0), (0, 1)]

    def test_a_reload_infers_again(self, viewer):
        batch = viewer.batch(viewer.slog.frames[:1])
        calls = self.count_reads(viewer)
        viewer.build_view(batch, "processor")
        viewer.reload_preview()
        viewer.build_view(batch, "processor")
        assert len(calls) == 2 * len(viewer.slog.frames)

    def test_callers_cannot_edit_the_kept_answer(self, viewer):
        viewer._cpus_per_node()[0] = 99
        assert viewer._cpus_per_node() == {0: 2}


# ------------------------------------------------- dense rows, exact and not


class TestDenseRows:
    def test_sparse_and_dense_rows_agree_on_where_bars_are(self):
        # The same 60 bars drawn as rects (two rows of 30) and as one dense
        # row's paths start at the same x, to the path's one decimal.
        bars = [TimelineBar(i * 100, i * 100 + 70, i % 3, i % 2) for i in range(60)]
        names = {0: "a", 1: "b", 2: "c"}
        dense = TimelineView("d", [TimelineRow("r", (0, 0), bars)], 0, 6_000, names)
        sparse = TimelineView(
            "s", [TimelineRow("r", (0, 0), bars[:30]), TimelineRow("q", (0, 1), bars[30:])],
            0, 6_000, names,
        )
        import re

        path_x = sorted(
            float(x) for x in re.findall(r"M([0-9.]+) ", view_svg_string(dense))
        )
        root = xml.dom.minidom.parseString(view_svg_string(sparse)).documentElement
        rect_x = sorted(
            float(r.getAttribute("x")) for r in root.getElementsByTagName("rect")
            if r.getAttribute("rx") == "1.5"
        )
        assert len(path_x) == len(rect_x) == 60
        assert all(abs(a - b) <= 0.051 for a, b in zip(path_x, rect_x))

    def test_groups_are_by_colour_not_by_state(self):
        # Ten states: the ninth and tenth share the "Other" gray, so a row
        # holds at most nine distinct fills however many states it has.
        bars = [TimelineBar(i * 10, i * 10 + 8, 200 + i % 10) for i in range(100)]
        names = {200 + i: f"s{i}" for i in range(10)}
        view = TimelineView("v", [TimelineRow("r", (0, 0), bars)], 0, 1_000, names)
        root = xml.dom.minidom.parseString(view_svg_string(view)).documentElement
        paths = root.getElementsByTagName("path")
        assert len(paths) == 9
        assert sum(p.getAttribute("d").count("M") for p in paths) == 100

    def test_a_window_past_int64_still_draws(self):
        bars = [TimelineBar(i * 10, i * 10 + 8, 1) for i in range(100)]
        view = TimelineView("v", [TimelineRow("r", (0, 0), bars)], 0, 1_000, {1: "x"})
        svg = view_svg_string(view, window=(-(10 ** 30), 10 ** 30))
        xml.dom.minidom.parseString(svg)
        assert svg.count("M") == 100
