"""View-construction parity and regression coverage for the view layer.

The four time-space diagrams derive from the same interval records, so
their answers must agree wherever they overlap: the connected view
covers exactly the time the piece view covers, a windowed view shows the
same bars the full view shows inside that window, and the aggregate
(utilization) view hands off to exact records below the density
threshold.  The regression classes pin the view-layer bugfixes: axis
labels stay distinct deep inside long runs, open states extend to the
window edge, and arrows clipped by the window render as stubs instead of
claiming delivery.
"""

import statistics
import time

import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.query import build_index, open_trace
from repro.query.columnar import batch_from_records
from repro.utils.slog import SlogFile, SlogWriter
from repro.viz.arrows import MessageArrow
from repro.viz.jumpshot import DENSITY_THRESHOLD, VIEW_KINDS, Jumpshot
from repro.viz.views import (
    TimelineView,
    _fmt_time,
    piece_view,
    view_svg_string,
)

PROFILE = standard_profile()
TABLE = ThreadTable(
    [ThreadEntry(t, 100 + t, 5000 + t, 0, t, 0, f"t{t}") for t in range(2)]
)


def thread_view(records, *, connected=False, window=None):
    """The thread-activity view of a record list (``connected``: its
    pieces unified)."""
    return piece_view(
        "thread-connected" if connected else "thread", batch_from_records(records),
        thread_table=TABLE, record_name=PROFILE.record_name, window=window,
    )


def rec(start, dura, *, thread=0, itype=IntervalType.RUNNING,
        bebits=BeBits.COMPLETE, extra=None):
    return IntervalRecord(
        itype, bebits, start, dura, 0, thread % 2, thread, extra or {}
    )


def coverage(view: TimelineView) -> dict[tuple, int]:
    """Union of covered ticks per (row, state) — merge-overlap sweep."""
    out = {}
    for row in view.rows:
        spans = {}
        for bar in row.bars:
            spans.setdefault(bar.key, []).append((bar.start, bar.end))
        for key, pairs in spans.items():
            total, cur_lo, cur_hi = 0, None, None
            for lo, hi in sorted(pairs):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        total += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                total += cur_hi - cur_lo
            out[(row.row_key, key)] = total
    return out


def pieces():
    """Two states split into begin/continuation/end pieces, plus a
    complete record, across two threads."""
    send = IntervalType.for_mpi_fn(0)
    return [
        rec(100, 200, bebits=BeBits.BEGIN, itype=send),
        rec(300, 150, bebits=BeBits.CONTINUATION, itype=send),
        rec(450, 250, bebits=BeBits.END, itype=send),
        rec(800, 400),
        rec(200, 300, thread=1, bebits=BeBits.BEGIN),
        rec(500, 100, thread=1, bebits=BeBits.END),
    ]


class TestPieceConnectedParity:
    def test_coverage_identical_per_row_and_state(self):
        piece = thread_view(pieces())
        connected = thread_view(pieces(), connected=True)
        assert coverage(piece) == coverage(connected)

    def test_connected_unifies_pieces_into_one_bar(self):
        connected = thread_view(pieces(), connected=True)
        by_row = {row.row_key: row for row in connected.rows}
        send_bars = [
            b for b in by_row[(0, 0)].bars
            if b.key == IntervalType.for_mpi_fn(0)
        ]
        assert [(b.start, b.end) for b in send_bars] == [(100, 700)]


class TestWindowParity:
    def test_windowed_bars_match_full_view_inside_the_window(self):
        records = [rec(i * 100, 80, thread=i % 2) for i in range(30)]
        full = thread_view(records)
        w0, w1 = 500, 1500
        inside = [r for r in records if r.end > w0 and r.start < w1]
        windowed = thread_view(inside, window=(w0, w1))
        want = {
            (row.row_key, bar.start, bar.end, bar.key)
            for row in full.rows for bar in row.bars
            if bar.end > w0 and bar.start < w1
        }
        got = {
            (row.row_key, bar.start, bar.end, bar.key)
            for row in windowed.rows for bar in row.bars
        }
        assert got == want


class TestCorpusViewsNeverRaise:
    @pytest.mark.parametrize("name", ["good.slog", "flip-frame.slog"])
    @pytest.mark.parametrize("kind", VIEW_KINDS)
    def test_every_kind_renders_over_salvaged_slogs(self, corpus, name, kind):
        slog = SlogFile(corpus.path(name), errors="salvage")
        viewer = Jumpshot(corpus.path(name), slog=slog)
        view = viewer.build_view(viewer.batch(viewer.slog.frames), kind)
        svg = view_svg_string(view, ticks_per_sec=viewer.slog.ticks_per_sec)
        assert svg.startswith("<svg")


class TestAggregateDrillDown:
    @pytest.fixture(scope="class")
    def dense(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("drill")
        path = tmp / "dense.slog"
        records = [rec(i * 50, 40, thread=i % 2) for i in range(12_000)]
        writer = SlogWriter(
            path, PROFILE, TABLE, field_mask=MASK_ALL_MERGED,
            time_range=(0, 12_000 * 50 + 50), frame_bytes=4096,
            node_cpus={0: 2},
        )
        for r in records:
            writer.write(r)
        writer.close()
        with open_trace(path, PROFILE) as handle:
            index = build_index(handle)
        return path, index

    def test_whole_run_answers_from_aggregates(self, dense):
        path, index = dense
        with Jumpshot(path) as viewer:
            tps = viewer.slog.ticks_per_sec
            t1 = max(f.end_time for f in viewer.slog.frames) / tps
            svg = viewer.view_svg_window(0.0, t1, kind="thread", index=index)
            assert viewer.last_view_aggregate
            assert svg.startswith("<svg")

    def test_narrow_window_drills_down_to_exact_records(self, dense):
        path, index = dense
        with Jumpshot(path) as viewer:
            tps = viewer.slog.ticks_per_sec
            # A window holding ~20 records is far below the density
            # threshold: the viewer must decode records, not aggregate.
            viewer.view_svg_window(0.0, 1000 / tps, kind="thread", index=index)
            assert not viewer.last_view_aggregate

    def test_threshold_is_records_per_pixel(self, dense):
        path, index = dense
        with Jumpshot(path) as viewer:
            tps = viewer.slog.ticks_per_sec
            frames = viewer.slog.frames
            n = sum(f.n_records for f in frames)
            t1 = max(f.end_time for f in frames) / tps
            assert n / 880 > DENSITY_THRESHOLD  # sanity: workload is dense
            viewer.view_svg_window(0.0, t1, kind="thread-processor", index=index)
            assert not viewer.last_view_aggregate  # kind has no aggregate path


class TestAxisLabelRegression:
    def test_deep_window_ticks_stay_distinct(self):
        # 1 us apart, 5000 s into the run: %.4g alone would render both
        # as "5000" — the span-derived precision must keep them distinct.
        tps = 1e9
        a = _fmt_time(5_000_000_001_000, tps, span=1_000)
        b = _fmt_time(5_000_000_002_000, tps, span=1_000)
        assert a != b

    def test_whole_run_ticks_stay_short(self):
        label = _fmt_time(1_500_000_000, 1e9, span=250_000_000)
        assert len(label) <= 6

    def test_no_span_falls_back_to_general_format(self):
        assert _fmt_time(1_500_000_000, 1e9) == "1.5"


class TestOpenStateRegression:
    def test_open_state_extends_to_window_edge(self):
        records = [rec(100, 200, bebits=BeBits.BEGIN)]
        view = thread_view(records, connected=True, window=(0, 5_000))
        bars = [b for row in view.rows for b in row.bars]
        assert len(bars) == 1
        assert bars[0].end == 5_000
        assert "(open)" in bars[0].tooltip


class TestClippedArrowRegression:
    @staticmethod
    def view_with_arrow(recv_time):
        view = thread_view([rec(100, 200), rec(300, 200, thread=1)])
        view.arrows.append(
            MessageArrow(1, (0, 0), (0, 1), 150, recv_time, 64)
        )
        return view

    def test_inside_arrow_gets_a_head(self):
        svg = view_svg_string(self.view_with_arrow(450), window=(0, 600))
        assert "<polygon" in svg

    def test_clipped_arrow_renders_a_stub_not_a_head(self):
        svg = view_svg_string(self.view_with_arrow(9_000), window=(0, 600))
        assert "<polygon" not in svg
        assert "<line" in svg


class TestOneWindowOnePicture:
    """``ute-view``, ``ute-report`` and ``Jumpshot.view_svg_window`` draw a
    window through one route: past the density threshold with a fresh
    sidecar beside the file they give the same bytes, and without one the
    whole run is every record on the records' own span."""

    AGGREGATE = ("thread", "processor")

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        from repro.workloads import write_big_slog

        path = tmp_path_factory.mktemp("one-picture") / "wide.slog"
        return write_big_slog(
            path, n_nodes=2, threads_per_node=4, n_records=8_000, frame_bytes=8_192, seed=3
        ).path

    @staticmethod
    def cli_svgs(path, tmp_path, kinds):
        """``{kind: ute-view SVG}`` and the report's view figures, in order."""
        import re

        from repro import cli

        views = {}
        for kind in kinds:
            out = tmp_path / f"{kind}.svg"
            assert cli.main_view([str(path), "--kind", kind, "-o", str(out)]) == 0
            views[kind] = out.read_text()
        out = tmp_path / "report.html"
        assert cli.main_report([str(path), "-o", str(out), "--views", ",".join(kinds)]) == 0
        figures = re.findall(r"<figure>(.*?)</figure>", out.read_text(), re.S)
        return views, figures[1:]  # the first figure is the preview

    def test_with_a_fresh_sidecar_all_three_draw_the_aggregate(self, wide, tmp_path, capsys):
        import shutil

        from repro.query import index_path_for, write_index

        path = shutil.copy(wide, tmp_path / "wide.slog")
        with open_trace(path, PROFILE) as handle:
            index = build_index(handle)
        write_index(index, index_path_for(path))
        kinds = (*self.AGGREGATE, "thread-processor")
        views, figures = self.cli_svgs(path, tmp_path, kinds)
        with Jumpshot(path) as viewer:
            tps = viewer.slog.ticks_per_sec
            for kind, figure in zip(kinds, figures):
                if kind in self.AGGREGATE:
                    want = viewer.view_svg_window(
                        index.t_min / tps, index.t_max / tps, kind=kind, index=index
                    )
                    assert viewer.last_view_aggregate
                else:  # no aggregate path: the exact whole run, on its own span
                    view = viewer.build_view(viewer.batch(viewer.slog.frames), kind)
                    want = view_svg_string(view, ticks_per_sec=tps)
                assert views[kind] == figure == want, kind

    def test_without_a_sidecar_every_record_is_drawn(self, wide, tmp_path, capsys):
        from repro.query import index_path_for

        assert not index_path_for(wide).exists()
        views, figures = self.cli_svgs(wide, tmp_path, self.AGGREGATE)
        with Jumpshot(wide) as viewer:
            frames = viewer.slog.frames
            assert sum(f.n_records for f in frames) / 880 > DENSITY_THRESHOLD
            batch = viewer.batch(frames)
            for kind, figure in zip(self.AGGREGATE, figures):
                view = viewer.build_view(batch, kind)
                want = view_svg_string(view, ticks_per_sec=viewer.slog.ticks_per_sec)
                assert views[kind] == figure == want, kind

    def test_without_a_sidecar_the_report_decodes_each_frame_once(
        self, wide, tmp_path, monkeypatch
    ):
        """Both whole-run views and the call profile come from one decode
        of the run, though it is longer than the frame cache."""
        from repro.core.reader import DEFAULT_FRAME_CACHE
        from repro.query import index_path_for
        from repro.viz import jumpshot
        from repro.viz.report import build_run_report

        opened = []

        class Recorded(SlogFile):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(jumpshot, "SlogFile", Recorded)
        assert not index_path_for(wide).exists()
        build_run_report(wide, tmp_path / "report.html")
        (slog,) = opened
        assert len(slog.frames) > DEFAULT_FRAME_CACHE
        assert slog.stats()["misses"] == len(slog.frames)


class TestWholeRunViewScale:
    """A whole-run view costs what its pixels cost, not what the file
    holds: past the density threshold both whole-run views answer from the
    utilization aggregate and decode no frame, at 1 000 records and at
    100x that, and the 100x view takes at most twice the small one."""

    AGGREGATE = ("thread", "processor")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        from repro.workloads import write_big_slog

        tmp = tmp_path_factory.mktemp("view-scale")
        out = {}
        for n_records in (1_000, 100_000):
            path = tmp / f"{n_records}.slog"
            write_big_slog(path, n_nodes=2, threads_per_node=16, n_records=n_records)
            with open_trace(path, PROFILE) as handle:
                out[n_records] = (path, build_index(handle))
        return out

    # At the default 1 100-px width 1 000 records are ~1.1 per pixel, under
    # the threshold (the exact drill-down); 400 px puts them past it.
    @pytest.mark.parametrize("n_records", [1_000, 100_000])
    def test_both_views_answer_from_the_aggregate_without_decoding(self, runs, n_records):
        path, index = runs[n_records]
        with Jumpshot(path) as viewer:
            for kind in self.AGGREGATE:
                misses = viewer.slog.stats()["misses"]
                svg = viewer.view_svg_window(None, None, kind=kind, width=400, index=index)
                assert svg.startswith("<svg")
                assert viewer.last_view_aggregate, kind
                assert viewer.slog.stats()["misses"] == misses, kind

    def test_latency_at_100x_is_within_2x(self, runs):
        def median_latency(n_records, rounds=9):
            path, index = runs[n_records]
            with Jumpshot(path) as viewer:
                samples = []
                for _ in range(rounds):
                    t0 = time.perf_counter()
                    viewer.view_svg_window(None, None, kind="thread", index=index)
                    samples.append(time.perf_counter() - t0)
                return statistics.median(samples), viewer.last_view_aggregate

        small, _ = median_latency(1_000)
        large, aggregate = median_latency(100_000)
        assert aggregate
        # The floor keeps scheduler noise on a sub-millisecond small view
        # from deciding the ratio.
        budget = 2 * max(small, 0.005)
        assert large <= budget, f"{large * 1e3:.1f} ms at 100x vs {small * 1e3:.1f} ms"
