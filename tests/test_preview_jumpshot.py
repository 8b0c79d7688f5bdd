"""Tests for the preview model, interesting-range detection, and the
Jumpshot viewer."""

import numpy as np
import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.query.columnar import FrameBatch, batch_from_records
from repro.utils.slog import SlogFile, SlogWriter
from repro.viz.jumpshot import Jumpshot
from repro.viz.preview import Preview, interesting_ranges

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)


def make_slog(path, records, *, bins=10, frame_bytes=512):
    t1 = max((r.end for r in records), default=1)
    writer = SlogWriter(
        path, PROFILE,
        ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")]),
        field_mask=MASK_ALL_MERGED, time_range=(0, max(t1, 1)),
        preview_bins=bins, frame_bytes=frame_bytes, node_cpus={0: 2},
    )
    for rec in sorted(records, key=lambda r: r.end):
        writer.write(rec)
    return writer.close()


def rec(itype=IntervalType.RUNNING, start=0, dura=100, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, 0, 0, 0, extra)


def phased_records():
    """Busy MPI at both ends, quiet Running in the middle."""
    records = []
    for i in range(10):  # bins 0-0.9 of [0, 10000)
        records.append(rec(SEND, start=i * 100, dura=90, msgSizeSent=1, seqno=i + 1))
    records.append(rec(IntervalType.RUNNING, start=1000, dura=8000))
    for i in range(10):
        records.append(
            rec(SEND, start=9000 + i * 100, dura=90, msgSizeSent=1, seqno=100 + i)
        )
    return records


class TestPreview:
    def test_from_slog(self, tmp_path):
        path = make_slog(tmp_path / "a.slog", phased_records())
        preview = Preview.from_slog(SlogFile(path))
        assert preview.bins == 10
        assert SEND in preview.itypes
        assert preview.state_names[SEND] == "MPI_Send"

    def test_interesting_excludes_running(self, tmp_path):
        path = make_slog(tmp_path / "b.slog", phased_records())
        preview = Preview.from_slog(SlogFile(path))
        interesting = preview.interesting_per_bin()
        # First and last bins busy; middle quiet.
        assert interesting[0] > 0 and interesting[-1] > 0
        assert np.all(interesting[2:8] == 0)

    def test_interesting_ranges_detection(self, tmp_path):
        path = make_slog(tmp_path / "c.slog", phased_records())
        preview = Preview.from_slog(SlogFile(path))
        ranges = interesting_ranges(preview, threshold=0.5)
        assert len(ranges) == 2
        (lo1, hi1), (lo2, hi2) = ranges
        assert lo1 == pytest.approx(0.0)
        assert hi2 == pytest.approx(preview.bin_edges_seconds()[-1])

    def test_all_quiet_returns_empty(self, tmp_path):
        path = make_slog(tmp_path / "d.slog", [rec(start=0, dura=1000)])
        preview = Preview.from_slog(SlogFile(path))
        assert interesting_ranges(preview) == []

    def test_render_svg(self, tmp_path):
        path = make_slog(tmp_path / "e.slog", phased_records())
        preview = Preview.from_slog(SlogFile(path))
        assert preview.render_svg().startswith("<svg")


class TestJumpshot:
    def test_locate_and_frame_records(self, tmp_path):
        records = [rec(start=i * 100, dura=90) for i in range(100)]
        path = make_slog(tmp_path / "f.slog", records, frame_bytes=512)
        viewer = Jumpshot(path)
        frame = viewer.locate(0.0000050)  # 5000 ticks
        assert frame.contains_time(5000)
        assert len(viewer.batch([frame])) > 0

    def test_locate_outside_run_raises(self, tmp_path):
        path = make_slog(tmp_path / "g.slog", [rec(dura=100)])
        with pytest.raises(FormatError, match="no frame"):
            Jumpshot(path).locate(99.0)

    def test_render_frame_at(self, tmp_path):
        records = [rec(start=i * 100, dura=90) for i in range(200)]
        path = make_slog(tmp_path / "h.slog", records, frame_bytes=512)
        viewer = Jumpshot(path)
        assert viewer.view_svg_at(0.0000050).startswith("<svg")

    def test_all_view_kinds_render(self, tmp_path):
        records = phased_records()
        path = make_slog(tmp_path / "i.slog", records)
        viewer = Jumpshot(path)
        for kind in ("thread", "thread-connected", "processor",
                     "thread-processor", "processor-thread"):
            assert viewer.view_svg_window(None, None, kind=kind).startswith("<svg")

    def test_unknown_view_kind_rejected(self, tmp_path):
        path = make_slog(tmp_path / "j.slog", [rec()])
        viewer = Jumpshot(path)
        with pytest.raises(FormatError, match="unknown view kind"):
            viewer.build_view(FrameBatch(0), "pie-chart")

    def test_a_half_open_window_is_refused(self, tmp_path):
        viewer = Jumpshot(make_slog(tmp_path / "w.slog", [rec()]))
        for t0, t1 in ((None, 1.0), (0.0, None)):
            with pytest.raises(FormatError, match="needs both bounds"):
                viewer.view_svg_window(t0, t1)
        assert viewer.view_svg_window(None, None).startswith("<svg")

    def test_cpus_per_node_from_slog(self, tmp_path):
        path = make_slog(tmp_path / "k.slog", [rec()])
        viewer = Jumpshot(path)
        view = viewer.build_view(viewer.batch(viewer.slog.frames), "processor")
        assert len(view.rows) == 2  # node_cpus={0: 2}


class TestStatViewer:
    def test_binned_table_svg(self, tmp_path):
        from repro.utils.stats import generate_tables
        from repro.viz.statviewer import render_binned_table_svg

        records = phased_records()
        program = (
            'table name=hot condition=(type != 0) '
            'x=("node", node) x=("bin", bin(start, 0, 0.00001, 10)) '
            'y=("sum", dura, sum)'
        )
        (table,) = generate_tables([batch_from_records(records)], program)
        svg = render_binned_table_svg(table, tmp_path / "b.svg", total_seconds=0.00001)
        assert svg.exists()

    def test_binned_requires_two_x(self, tmp_path):
        from repro.utils.stats import StatsTable
        from repro.viz.statviewer import render_binned_table_svg

        table = StatsTable("t", ("only",), ("y",), {(1,): (2.0,)})
        with pytest.raises(ValueError, match="needs"):
            render_binned_table_svg(table, tmp_path / "x.svg")

    def test_bar_table_svg(self, tmp_path):
        from repro.utils.stats import StatsTable
        from repro.viz.statviewer import render_table_svg

        table = StatsTable(
            "by_type", ("type",), ("total",),
            {(0,): (1.5,), (1,): (0.5,)},
        )
        svg = render_table_svg(
            table, tmp_path / "bar.svg", name_of={0: "Running", 1: "MPI_Send"}
        )
        assert "Running" in svg.read_text()
