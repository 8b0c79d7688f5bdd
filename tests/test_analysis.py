"""Tests for the performance-analysis applications (spans, blocking,
message stats, time-resolved metrics)."""

from repro.analysis import (
    MessageStats,
    call_profile,
    communication_efficiency_timeline,
    load_balance_timeline,
    message_stats,
    state_spans,
)
from repro.analysis.blocking import format_call_profile
from repro.analysis.messages import latency_by_size
from repro.core import standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.query.columnar import concat_batches
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.stats import interval_records
from repro.viz.arrows import MessageArrow
from repro.workloads import run_pingpong, run_stencil

from tests.test_query import make_ivl

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)
RECV = IntervalType.for_mpi_fn(1)


def rec(itype=IntervalType.RUNNING, bebits=BeBits.COMPLETE, start=0, dura=100,
        node=0, cpu=0, thread=0, **extra):
    return IntervalRecord(itype, bebits, start, dura, node, cpu, thread, extra)


class TestStateSpans:
    def test_complete_record_is_one_span(self):
        (span,) = state_spans([rec(itype=SEND, start=100, dura=50)])
        assert (span.begin, span.end) == (100, 150)
        assert span.on_cpu == 50
        assert span.blocked == 0
        assert span.pieces == 1

    def test_pieces_fold_into_span_with_blocked_time(self):
        pieces = [
            rec(itype=RECV, bebits=BeBits.BEGIN, start=0, dura=10),
            rec(itype=RECV, bebits=BeBits.CONTINUATION, start=100, dura=10),
            rec(itype=RECV, bebits=BeBits.END, start=200, dura=10),
        ]
        (span,) = state_spans(pieces)
        assert (span.begin, span.end) == (0, 210)
        assert span.on_cpu == 30
        assert span.blocked == 180
        assert span.pieces == 3

    def test_running_excluded_by_default(self):
        spans = list(state_spans([rec(), rec(itype=SEND, start=200, dura=10)]))
        assert [s.itype for s in spans] == [SEND]
        spans = list(
            state_spans(
                [rec(), rec(itype=SEND, start=200, dura=10)], include_running=True
            )
        )
        assert {s.itype for s in spans} == {IntervalType.RUNNING, SEND}

    def test_markers_keyed_by_id(self):
        records = [
            rec(itype=IntervalType.MARKER, bebits=BeBits.BEGIN, start=0, dura=5,
                markerId=1),
            rec(itype=IntervalType.MARKER, bebits=BeBits.BEGIN, start=10, dura=5,
                thread=1, markerId=2),
            rec(itype=IntervalType.MARKER, bebits=BeBits.END, start=20, dura=5,
                markerId=1),
            rec(itype=IntervalType.MARKER, bebits=BeBits.END, start=30, dura=5,
                thread=1, markerId=2),
        ]
        spans = sorted(state_spans(records), key=lambda s: s.marker_id)
        assert [s.marker_id for s in spans] == [1, 2]
        assert spans[0].end == 25

    def test_pseudo_interval_folds_harmlessly(self):
        records = [
            rec(itype=SEND, bebits=BeBits.BEGIN, start=0, dura=10),
            rec(itype=SEND, bebits=BeBits.CONTINUATION, start=50, dura=0),  # pseudo
            rec(itype=SEND, bebits=BeBits.END, start=80, dura=10),
        ]
        (span,) = state_spans(records)
        assert span.on_cpu == 20
        assert span.end == 90

    def test_unclosed_state_still_reported(self):
        records = [rec(itype=SEND, bebits=BeBits.BEGIN, start=0, dura=10)]
        (span,) = state_spans(records)
        assert span.end == 10


class TestCallProfile:
    def test_blocked_ranking(self):
        records = [
            # A quick send.
            rec(itype=SEND, start=0, dura=10, node=0),
            # A recv blocked for 1000.
            rec(itype=RECV, bebits=BeBits.BEGIN, start=20, dura=5),
            rec(itype=RECV, bebits=BeBits.END, start=1020, dura=5),
        ]
        rows = call_profile(records, PROFILE)
        assert rows[0].name == "MPI_Recv"
        assert rows[0].blocked_ns == 995  # wall 1005 - on_cpu 10
        assert rows[0].blocked_fraction > 0.9
        assert rows[1].name == "MPI_Send"
        assert rows[1].blocked_ns == 0

    def test_marker_rows_named_by_string(self):
        records = [
            rec(itype=IntervalType.MARKER, start=0, dura=100, markerId=1),
        ]
        rows = call_profile(records, PROFILE, markers={1: "Main Loop"})
        assert rows[0].name == "Main Loop"

    def test_counts_and_avg(self):
        records = [rec(itype=SEND, start=i * 100, dura=10) for i in range(5)]
        (row,) = call_profile(records, PROFILE)
        assert row.calls == 5
        assert row.wall_ns == 50
        assert row.avg_wall_ns == 10
        assert row.max_wall_ns == 10

    def test_format_output(self):
        records = [rec(itype=SEND, start=0, dura=10)]
        text = format_call_profile(call_profile(records, PROFILE))
        assert "MPI_Send" in text
        assert "blocked" in text.splitlines()[0]

    def test_real_pipeline_blocking(self, tmp_path):
        """On a real ping-pong run, receives block more than sends."""
        from repro.core import IntervalReader
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_pingpong

        run = run_pingpong(tmp_path / "raw")
        conv = convert_traces(run.raw_paths, tmp_path / "ivl")
        merged = merge_interval_files(conv.interval_paths, tmp_path / "m.ute", PROFILE)
        reader = IntervalReader(merged.merged_path, PROFILE)
        rows = {
            r.name: r
            for r in call_profile(
                list(reader.intervals()), PROFILE, markers=reader.markers
            )
        }
        assert rows["MPI_Recv"].blocked_ns > rows["MPI_Send"].blocked_ns
        assert rows["MPI_Recv"].blocked_fraction > 0.3


class TestMessageStats:
    def arrows(self):
        return [
            MessageArrow(1, (0, 0), (1, 0), 100, 300, 1024),
            MessageArrow(2, (1, 0), (0, 0), 400, 450, 1024),
            MessageArrow(3, (0, 0), (1, 0), 500, 2500, 65536),
        ]

    def test_summary(self):
        stats = message_stats(self.arrows())
        assert stats.count == 3
        assert stats.total_bytes == 1024 * 2 + 65536
        assert stats.min_latency_ns == 50
        assert stats.max_latency_ns == 2000
        assert stats.causality_violations == 0

    def test_from_records(self):
        records = [
            rec(itype=SEND, node=0, start=0, dura=10, msgSizeSent=64, seqno=9),
            rec(itype=RECV, node=1, start=5, dura=40, msgSizeRecv=64, seqno=9),
        ]
        stats = message_stats(records)
        assert stats.count == 1
        assert stats.min_latency_ns == 45

    def test_empty(self):
        assert message_stats([]) == MessageStats.empty()

    def test_latency_by_size(self):
        table = latency_by_size(self.arrows())
        assert table[1024][0] == 2
        assert table[65536] == (1, 2000.0)


# ---------------------------------------------------------------------------
# Time-resolved metrics over one frame batch.

RUNNING = IntervalType.RUNNING


def piece(itype, bebits, t0, t1, node, thread):
    return IntervalRecord(itype, bebits, t0, t1 - t0, node, 0, thread, {})


def timeline_input(path):
    """One file's records (clock pairs dropped) as one frame batch."""
    return concat_batches(list(interval_records([path], PROFILE).batches()))


def merged_trace(tmp_path, run):
    raw = run(tmp_path / "raw")
    conv = convert_traces(raw.raw_paths, tmp_path / "ivl")
    return merge_interval_files(conv.interval_paths, tmp_path / "m.ute", PROFILE).merged_path


#: Thread (0, 0) runs the whole span; thread (0, 1) runs its first tenth.
IMBALANCE = [
    piece(RUNNING, BeBits.COMPLETE, 0, 100_000, 0, 1),
    piece(RUNNING, BeBits.COMPLETE, 0, 1_000_000, 0, 0),
]

#: Two nodes of running and MPI pieces over [0, 800 000], most of them
#: straddling a 100 000-tick bin edge at ``bins=8``; no marker.
TWO_NODE = sorted(
    [
        piece(RUNNING, BeBits.COMPLETE, 0, 130_000, 0, 0),
        piece(SEND, BeBits.BEGIN, 130_000, 150_000, 0, 0),
        piece(SEND, BeBits.END, 370_000, 410_000, 0, 0),
        piece(RUNNING, BeBits.COMPLETE, 410_000, 650_000, 0, 0),
        piece(RECV, BeBits.COMPLETE, 650_000, 720_000, 0, 0),
        piece(RUNNING, BeBits.COMPLETE, 720_000, 800_000, 0, 0),
        piece(RUNNING, BeBits.COMPLETE, 50_000, 250_000, 0, 1),
        piece(RECV, BeBits.BEGIN, 250_000, 260_000, 0, 1),
        piece(RECV, BeBits.END, 540_000, 560_000, 0, 1),
        piece(RUNNING, BeBits.COMPLETE, 560_000, 610_000, 0, 1),
        piece(RUNNING, BeBits.COMPLETE, 0, 90_000, 1, 0),
        piece(RECV, BeBits.COMPLETE, 90_000, 310_000, 1, 0),
        piece(RUNNING, BeBits.COMPLETE, 310_000, 475_000, 1, 0),
        piece(SEND, BeBits.COMPLETE, 475_000, 490_000, 1, 0),
        piece(RUNNING, BeBits.COMPLETE, 490_000, 790_000, 1, 0),
    ],
    key=lambda r: r.end,  # the writer wants ascending end times
)

#: ``repr`` of each metric's values and terms at ``bins=8``, as the
#: table-based timelines computed them.
PINNED = {
    ("imbalance", "load_balance"): {
        "values": "array([0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])",
        "busy": (
            "array([[125000., 100000.],\n"
            "       [125000.,      0.],\n"
            "       [125000.,      0.],\n"
            "       [125000.,      0.],\n"
            "       [125000.,      0.],\n"
            "       [125000.,      0.],\n"
            "       [125000.,      0.],\n"
            "       [125000.,      0.]])"
        ),
    },
    ("imbalance", "communication_efficiency"): {
        "values": "array([1., 1., 1., 1., 1., 1., 1., 1.])",
        "compute": (
            "array([225000., 125000., 125000., 125000., 125000., 125000., 125000.,\n"
            "       125000.])"
        ),
        "comm": "array([0., 0., 0., 0., 0., 0., 0., 0.])",
    },
    ("two_node", "load_balance"): {
        "values": (
            "array([0.8       , 0.43333333, 0.33333333, 0.33333333, 0.64814815,\n"
            "       0.8       , 0.53333333, 0.62962963])"
        ),
        "busy": (
            "array([[100000.,  50000.,  90000.],\n"
            "       [ 30000., 100000.,      0.],\n"
            "       [     0.,  50000.,      0.],\n"
            "       [     0.,      0.,  90000.],\n"
            "       [ 90000.,      0.,  85000.],\n"
            "       [100000.,  40000., 100000.],\n"
            "       [ 50000.,  10000., 100000.],\n"
            "       [ 80000.,      0.,  90000.]])"
        ),
    },
    ("two_node", "communication_efficiency"): {
        "values": (
            "array([0.96      , 0.52      , 0.3125    , 0.69230769, 0.875     ,\n"
            "       0.92307692, 0.76190476, 0.89473684])"
        ),
        "compute": (
            "array([240000., 130000.,  50000.,  90000., 175000., 240000., 160000.,\n"
            "       170000.])"
        ),
        "comm": (
            "array([ 10000., 120000., 110000.,  40000.,  25000.,  20000.,  50000.,\n"
            "        20000.])"
        ),
    },
    ("empty", "load_balance"): {
        "values": "array([1., 1., 1., 1., 1., 1., 1., 1.])",
        "busy": (
            "array([[0.],\n"
            "       [0.],\n"
            "       [0.],\n"
            "       [0.],\n"
            "       [0.],\n"
            "       [0.],\n"
            "       [0.],\n"
            "       [0.]])"
        ),
    },
    ("empty", "communication_efficiency"): {
        "values": "array([1., 1., 1., 1., 1., 1., 1., 1.])",
        "compute": "array([0., 0., 0., 0., 0., 0., 0., 0.])",
        "comm": "array([0., 0., 0., 0., 0., 0., 0., 0.])",
    },
}


class TestTimelines:
    def test_pinned_values(self, tmp_path):
        inputs = {"imbalance": IMBALANCE, "two_node": TWO_NODE, "empty": []}
        for name, records in inputs.items():
            batch = timeline_input(make_ivl(tmp_path / f"{name}.ute", records))
            for metric in (
                load_balance_timeline(batch, bins=8),
                communication_efficiency_timeline(batch, bins=8),
            ):
                got = {"values": repr(metric.values)}
                got.update((k, repr(v)) for k, v in metric.terms.items())
                assert got == PINNED[name, metric.name], (name, metric.name)

    def test_marker_regions_are_compute(self, tmp_path):
        """Stencil and ping-pong compute inside marker regions, so a
        timeline that counted only running pieces read CE 0.0 and LB 1.0."""
        stencil = timeline_input(merged_trace(tmp_path / "stencil", run_stencil))
        pingpong = timeline_input(merged_trace(tmp_path / "pingpong", run_pingpong))
        for batch in (stencil, pingpong):
            ce = communication_efficiency_timeline(batch, bins=8)
            assert 0.0 not in ce.values.tolist()
            assert (ce.terms["comm"] > 0).any()
        lb = load_balance_timeline(pingpong, bins=8)
        assert lb.values.tolist() != [1.0] * 8
