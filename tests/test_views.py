"""Tests for the time-space diagrams, arrows, and renderers."""

import pytest

from repro.core import standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.query.columnar import batch_from_records
from repro.viz.ansi import render_view_ansi
from repro.viz.arrows import match_arrows
from repro.viz.colors import OTHER_COLOR, RUNNING_COLOR, STATE_PALETTE, ColorMap
from repro.viz.views import piece_view, view_svg_string

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)
RECV = IntervalType.for_mpi_fn(1)


def rec(itype=IntervalType.RUNNING, bebits=BeBits.COMPLETE, start=0, dura=100,
        node=0, cpu=0, thread=0, **extra):
    return IntervalRecord(itype, bebits, start, dura, node, cpu, thread, extra)


def view_of(kind, records, **names):
    """The ``kind`` view over a record list, read into one batch."""
    return piece_view(kind, batch_from_records(records), **names)


def table(entries=None):
    return ThreadTable(
        entries
        or [
            ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0"),
            ThreadEntry(-1, 100, 5001, 0, 1, 1, "worker"),
            ThreadEntry(1, 101, 5002, 1, 0, 0, "rank-1"),
        ]
    )


class TestThreadActivityView:
    def test_rows_per_thread_from_table(self):
        view = view_of("thread", [rec()], thread_table=table(), record_name=PROFILE.record_name)
        # All known threads get rows, even without records.
        assert len(view.rows) == 3
        assert view.rows[0].row_key == (0, 0)

    def test_piece_view_one_bar_per_record(self):
        records = [
            rec(itype=RECV, bebits=BeBits.BEGIN, start=0, dura=50),
            rec(itype=RECV, bebits=BeBits.CONTINUATION, start=100, dura=50),
            rec(itype=RECV, bebits=BeBits.END, start=200, dura=50),
        ]
        view = view_of("thread", records, thread_table=table(), record_name=PROFILE.record_name)
        bars = view.rows[0].bars
        assert len(bars) == 3
        assert [(b.start, b.end) for b in bars] == [(0, 50), (100, 150), (200, 250)]

    def test_connected_view_unifies_pieces(self):
        records = [
            rec(itype=RECV, bebits=BeBits.BEGIN, start=0, dura=50),
            rec(itype=RECV, bebits=BeBits.CONTINUATION, start=100, dura=50),
            rec(itype=RECV, bebits=BeBits.END, start=200, dura=50),
        ]
        view = view_of(
            "thread-connected", records, thread_table=table(), record_name=PROFILE.record_name
        )
        bars = view.rows[0].bars
        assert len(bars) == 1
        assert (bars[0].start, bars[0].end) == (0, 250)

    def test_connected_view_window_with_pseudo_continuation(self):
        """A window starting mid-state: the zero-duration pseudo interval
        opens the state, so the bar still appears (section 3.3)."""
        records = [
            rec(itype=IntervalType.MARKER, bebits=BeBits.CONTINUATION,
                start=1000, dura=0, markerId=1),
            rec(start=1000, dura=500),
            rec(itype=IntervalType.MARKER, bebits=BeBits.END,
                start=1600, dura=100, markerId=1),
        ]
        view = view_of(
            "thread-connected", records, thread_table=table(),
            record_name=PROFILE.record_name, markers={1: "phase"},
        )
        marker_bars = [b for b in view.rows[0].bars if b.key == ("marker", 1)]
        assert len(marker_bars) == 1
        assert marker_bars[0].start == 1000
        assert marker_bars[0].end == 1700

    def test_nested_states_get_depth(self):
        records = [
            rec(itype=IntervalType.MARKER, bebits=BeBits.BEGIN, start=0, dura=100,
                markerId=1),
            rec(itype=SEND, bebits=BeBits.COMPLETE, start=100, dura=100,
                msgSizeSent=8, seqno=1),
            rec(itype=IntervalType.MARKER, bebits=BeBits.END, start=200, dura=100,
                markerId=1),
        ]
        view = view_of(
            "thread-connected", records, thread_table=table(),
            record_name=PROFILE.record_name, markers={1: "outer"},
        )
        bars = {b.key: b for b in view.rows[0].bars}
        assert bars[("marker", 1)].depth == 0
        assert bars[SEND].depth == 1

    def test_marker_names_resolved(self):
        records = [
            rec(itype=IntervalType.MARKER, start=0, dura=10, markerId=3),
        ]
        view = view_of(
            "thread", records, thread_table=table(),
            record_name=PROFILE.record_name, markers={3: "Initial Phase"},
        )
        assert view.key_names[("marker", 3)] == "Initial Phase"


class TestTypeView:
    def test_a_marker_named_like_a_record_type_gets_its_own_row(self):
        records = [
            rec(itype=SEND, start=0, dura=10, msgSizeSent=8, seqno=1),
            rec(itype=IntervalType.MARKER, start=20, dura=10, markerId=1),
        ]
        view = view_of(
            "type", records, thread_table=table(), record_name=PROFILE.record_name,
            markers={1: "MPI_Send"},
        )
        assert [row.row_key for row in view.rows] == [
            ("MPI_Send", SEND), ("MPI_Send", ("marker", 1))
        ]


class TestProcessorViews:
    def test_all_cpus_get_rows(self):
        view = view_of(
            "processor", [rec(cpu=0)], n_cpus_per_node={0: 4}, record_name=PROFILE.record_name
        )
        assert len(view.rows) == 4
        assert [r.row_key for r in view.rows] == [(0, c) for c in range(4)]

    def test_activity_lands_on_correct_cpu(self):
        records = [rec(cpu=2, start=0, dura=10), rec(cpu=0, start=20, dura=10)]
        view = view_of(
            "processor", records, n_cpus_per_node={0: 4}, record_name=PROFILE.record_name
        )
        by_cpu = {row.row_key[1]: row.bars for row in view.rows}
        assert len(by_cpu[2]) == 1 and len(by_cpu[0]) == 1
        assert not by_cpu[1] and not by_cpu[3]

    def test_thread_processor_view_colors_by_cpu(self):
        records = [
            rec(start=0, dura=10, cpu=0),
            rec(start=20, dura=10, cpu=3),
        ]
        view = view_of("thread-processor", records, thread_table=table())
        keys = {b.key for b in view.rows[0].bars}
        assert keys == {("cpu", 0, 0), ("cpu", 0, 3)}

    def test_processor_thread_view_colors_by_thread(self):
        records = [
            rec(thread=0, cpu=1, start=0, dura=10),
            rec(thread=1, cpu=1, start=20, dura=10),
        ]
        view = view_of("processor-thread", records, n_cpus_per_node={0: 2}, thread_table=table())
        row = next(r for r in view.rows if r.row_key == (0, 1))
        assert {b.key for b in row.bars} == {("thread", 0, 0), ("thread", 0, 1)}


class TestArrows:
    def send_recv_records(self):
        return [
            rec(itype=SEND, node=0, thread=0, start=100, dura=50,
                msgSizeSent=4096, seqno=7),
            rec(itype=RECV, node=1, thread=0, start=120, dura=200,
                msgSizeRecv=4096, seqno=7),
        ]

    def test_matched_arrow(self):
        (arrow,) = match_arrows(batch_from_records(self.send_recv_records()))
        assert arrow.seqno == 7
        assert arrow.src_row == (0, 0)
        assert arrow.dst_row == (1, 0)
        assert arrow.send_time == 100
        assert arrow.recv_time == 320
        assert arrow.size == 4096

    def test_unmatched_send_dropped(self):
        records = self.send_recv_records()[:1]
        assert match_arrows(batch_from_records(records)) == []

    def test_split_recv_uses_last_piece_end(self):
        records = [
            rec(itype=SEND, node=0, start=0, dura=10, msgSizeSent=64, seqno=3),
            rec(itype=RECV, node=1, bebits=BeBits.BEGIN, start=5, dura=10,
                msgSizeRecv=64, seqno=3),
            rec(itype=RECV, node=1, bebits=BeBits.END, start=50, dura=10,
                msgSizeRecv=64, seqno=3),
        ]
        (arrow,) = match_arrows(batch_from_records(records))
        assert arrow.recv_time == 60

    def test_non_mpi_records_ignored(self):
        assert match_arrows(batch_from_records([rec(markerId=1)])) == []

    def test_waitall_seqnos_vector_matches_many(self):
        """A waitall completing several receives yields one arrow per
        matched sequence number, all ending at the waitall's end."""
        waitall = IntervalType.for_mpi_fn(5)
        records = [
            rec(itype=SEND, node=0, start=0, dura=5, msgSizeSent=10, seqno=1),
            rec(itype=SEND, node=0, start=10, dura=5, msgSizeSent=20, seqno=2),
            rec(itype=waitall, node=1, start=30, dura=100, seqnos=[1, 2]),
        ]
        arrows = match_arrows(batch_from_records(records))
        assert len(arrows) == 2
        assert all(a.recv_time == 130 for a in arrows)
        assert {a.size for a in arrows} == {10, 20}


class TestColorMap:
    def test_running_always_recessive(self):
        cmap = ColorMap()
        assert cmap.register(IntervalType.RUNNING) == RUNNING_COLOR
        assert cmap.register("Running") == RUNNING_COLOR

    def test_fixed_order_assignment(self):
        cmap = ColorMap()
        colors = [cmap.register(f"state-{i}") for i in range(8)]
        assert colors == list(STATE_PALETTE)
        # Re-registering returns the same color (stable identity).
        assert cmap.register("state-3") == STATE_PALETTE[3]

    def test_ninth_entity_folds_to_other(self):
        cmap = ColorMap()
        for i in range(8):
            cmap.register(f"state-{i}")
        assert cmap.register("state-8") == OTHER_COLOR
        assert cmap.is_folded("state-8")
        assert not cmap.is_folded("state-0")


class TestRenderers:
    def sample_view(self):
        records = [
            rec(start=0, dura=100),
            rec(itype=SEND, start=100, dura=50, msgSizeSent=10, seqno=1),
        ]
        return view_of("thread", records, thread_table=table(), record_name=PROFILE.record_name)

    def test_svg_written_and_wellformed(self):
        import xml.etree.ElementTree as ET

        body = view_svg_string(self.sample_view())
        assert ET.fromstring(body).tag.endswith("svg")
        assert "MPI_Send" in body  # legend entry

    def test_svg_window_clips(self):
        view = self.sample_view()
        assert "<title>MPI_Send [complete] 100-150</title>" in view_svg_string(view)
        assert "<title>MPI_Send" not in view_svg_string(view, window=(0, 50))

    def test_ansi_renders_rows_and_legend(self):
        text = render_view_ansi(self.sample_view(), columns=40)
        lines = text.splitlines()
        assert lines[0] == "Thread-activity view"
        assert len([l for l in lines if "|" in l]) == 3  # three thread rows
        assert "legend:" in lines[-1]
        assert "MPI_Send" in lines[-1]

    def test_ansi_color_mode(self):
        text = render_view_ansi(self.sample_view(), columns=20, color=True)
        assert "\x1b[" in text
