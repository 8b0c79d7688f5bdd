"""Tests for the performance-analysis applications (spans, blocking,
message stats, time-resolved metrics).

Spans, the call profile and arrow matching fold frame columns; the
record-at-a-time loops they replaced are kept below as references
(``reference_state_spans``, ``reference_call_profile``,
``ReferenceArrowMatcher``), and hypothesis holds the folds to them row for
row, over streams cut into one to three batches."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.analysis import (
    MessageStats,
    call_profile,
    communication_efficiency_timeline,
    load_balance_timeline,
    message_stats,
    state_spans,
)
from repro.analysis.blocking import CallProfileRow, format_call_profile
from repro.analysis.messages import latency_by_size
from repro.analysis.spans import StateSpan
from repro.core import IntervalReader, standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.errors import FormatError
from repro.query.columnar import FrameBatch, batch_from_records, concat_batches
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.slog import SlogFile
from repro.utils.stats import interval_records
from repro.viz.arrows import ArrowMatcher, MessageArrow, match_arrows
from repro.viz.jumpshot import Jumpshot
from repro.viz.report import build_run_report
from repro.workloads import run_pingpong, run_stencil

from tests.test_query import make_ivl

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)
RECV = IntervalType.for_mpi_fn(1)
WAITALL = next(t for t in PROFILE.record_types() if PROFILE.record_name(t) == "MPI_Waitall")


def rec(itype=IntervalType.RUNNING, bebits=BeBits.COMPLETE, start=0, dura=100,
        node=0, cpu=0, thread=0, **extra):
    return IntervalRecord(itype, bebits, start, dura, node, cpu, thread, extra)


def spans(records, **kwargs):
    return list(state_spans(batch_from_records(records), **kwargs))


def profile(records, **kwargs):
    return call_profile(batch_from_records(records), PROFILE, **kwargs)


class TestStateSpans:
    def test_complete_record_is_one_span(self):
        (span,) = spans([rec(itype=SEND, start=100, dura=50)])
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
        (span,) = spans(pieces)
        assert (span.begin, span.end) == (0, 210)
        assert span.on_cpu == 30
        assert span.blocked == 180
        assert span.pieces == 3

    def test_running_excluded_by_default(self):
        records = [rec(), rec(itype=SEND, start=200, dura=10)]
        assert [s.itype for s in spans(records)] == [SEND]
        assert {s.itype for s in spans(records, include_running=True)} == {
            IntervalType.RUNNING, SEND,
        }

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
        got = sorted(spans(records), key=lambda s: s.marker_id)
        assert [s.marker_id for s in got] == [1, 2]
        assert got[0].end == 25

    def test_pseudo_interval_folds_harmlessly(self):
        records = [
            rec(itype=SEND, bebits=BeBits.BEGIN, start=0, dura=10),
            rec(itype=SEND, bebits=BeBits.CONTINUATION, start=50, dura=0),  # pseudo
            rec(itype=SEND, bebits=BeBits.END, start=80, dura=10),
        ]
        (span,) = spans(records)
        assert span.on_cpu == 20
        assert span.end == 90

    def test_unclosed_state_still_reported(self):
        records = [rec(itype=SEND, bebits=BeBits.BEGIN, start=0, dura=10)]
        (span,) = spans(records)
        assert span.end == 10

    def test_unclosed_states_come_last_in_the_order_their_keys_opened(self):
        """A BEGIN over an open state drops it but keeps its key's place; a
        key that closed and opened again goes to the end."""
        records = [
            rec(itype=SEND, bebits=BeBits.BEGIN, start=0, dura=1),            # a opens
            rec(itype=RECV, bebits=BeBits.BEGIN, start=1, dura=1),            # b opens
            rec(itype=SEND, bebits=BeBits.BEGIN, start=2, dura=1),            # a again
            rec(itype=SEND, bebits=BeBits.COMPLETE, start=3, dura=1),         # own span
            rec(itype=RECV, bebits=BeBits.END, start=4, dura=1),              # b closes
            rec(itype=RECV, bebits=BeBits.CONTINUATION, start=6, dura=2),     # b reopens
        ]
        got = [(s.itype, s.begin, s.end, s.on_cpu, s.pieces) for s in spans(records)]
        assert got == [
            (SEND, 3, 4, 1, 1), (RECV, 1, 5, 2, 2), (SEND, 2, 3, 1, 1), (RECV, 6, 8, 2, 1),
        ]
        assert got == [
            (s.itype, s.begin, s.end, s.on_cpu, s.pieces)
            for s in reference_state_spans(records)
        ]

    def test_an_empty_batch_has_no_spans(self):
        assert list(state_spans(FrameBatch(0))) == []
        assert call_profile(FrameBatch(0), PROFILE) == []


class TestCallProfile:
    def test_blocked_ranking(self):
        records = [
            # A quick send.
            rec(itype=SEND, start=0, dura=10, node=0),
            # A recv blocked for 1000.
            rec(itype=RECV, bebits=BeBits.BEGIN, start=20, dura=5),
            rec(itype=RECV, bebits=BeBits.END, start=1020, dura=5),
        ]
        rows = profile(records)
        assert rows[0].name == "MPI_Recv"
        assert rows[0].blocked_ns == 995  # wall 1005 - on_cpu 10
        assert rows[0].blocked_fraction > 0.9
        assert rows[1].name == "MPI_Send"
        assert rows[1].blocked_ns == 0

    def test_marker_rows_named_by_string(self):
        records = [
            rec(itype=IntervalType.MARKER, start=0, dura=100, markerId=1),
        ]
        rows = profile(records, markers={1: "Main Loop"})
        assert rows[0].name == "Main Loop"

    def test_counts_and_avg(self):
        records = [rec(itype=SEND, start=i * 100, dura=10) for i in range(5)]
        (row,) = profile(records)
        assert row.calls == 5
        assert row.wall_ns == 50
        assert row.avg_wall_ns == 10
        assert row.max_wall_ns == 10

    def test_format_output(self):
        records = [rec(itype=SEND, start=0, dura=10)]
        text = format_call_profile(profile(records))
        assert "MPI_Send" in text
        assert "blocked" in text.splitlines()[0]

    def test_real_pipeline_blocking(self, tmp_path):
        """On a real ping-pong run, receives block more than sends."""
        run = run_pingpong(tmp_path / "raw")
        conv = convert_traces(run.raw_paths, tmp_path / "ivl")
        merged = merge_interval_files(conv.interval_paths, tmp_path / "m.ute", PROFILE)
        with IntervalReader(merged.merged_path, PROFILE) as reader:
            markers = reader.markers
        batch = timeline_input(merged.merged_path)
        rows = {r.name: r for r in call_profile(batch, PROFILE, markers=markers)}
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
        stats = message_stats(match_arrows(batch_from_records(records)))
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
    return concat_batches(list(interval_records([path], PROFILE)))


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


# ---------------------------------------------------------------------------
# The record loops the folds replaced, kept as references.


def reference_state_spans(records, *, include_running=False):
    """Spans folded one record at a time, one open state per key."""
    open_spans: dict[tuple, dict] = {}
    for record in records:
        if record.itype == IntervalType.CLOCKPAIR:
            continue
        if record.itype == IntervalType.RUNNING and not include_running:
            continue
        marker = record.extra.get("markerId", 0) if record.itype == IntervalType.MARKER else 0
        key = (record.node, record.thread, record.itype, marker)
        if record.bebits is BeBits.COMPLETE:
            yield StateSpan(record.itype, marker, record.node, record.thread,
                            record.start, record.end, record.duration, 1)
            continue
        if record.bebits is BeBits.BEGIN:
            open_spans[key] = {"begin": record.start, "end": record.end,
                               "on_cpu": record.duration, "pieces": 1}
            continue
        state = open_spans.get(key)
        if state is None:
            state = {"begin": record.start, "end": record.end, "on_cpu": 0, "pieces": 0}
            open_spans[key] = state
        state["end"] = max(state["end"], record.end)
        state["on_cpu"] += record.duration
        state["pieces"] += 1
        if record.bebits is BeBits.END:
            del open_spans[key]
            yield StateSpan(record.itype, marker, record.node, record.thread,
                            state["begin"], state["end"], state["on_cpu"], state["pieces"])
    for (node, thread, itype, marker), state in open_spans.items():
        yield StateSpan(itype, marker, node, thread, state["begin"], state["end"],
                        state["on_cpu"], state["pieces"])


def reference_call_profile(records, profile, *, markers=None, include_running=False):
    """The call profile accumulated span by span, in a dict per key."""
    markers = markers or {}
    acc: dict[tuple, dict] = {}
    for span in reference_state_spans(records, include_running=include_running):
        row = acc.setdefault((span.itype, span.marker_id),
                             {"calls": 0, "wall": 0, "cpu": 0, "max": 0, "pieces": 0})
        row["calls"] += 1
        row["wall"] += span.wall
        row["cpu"] += span.on_cpu
        row["max"] = max(row["max"], span.wall)
        row["pieces"] += span.pieces
    out = []
    for (itype, marker_id), row in acc.items():
        if itype == IntervalType.MARKER:
            name = markers.get(marker_id, f"marker-{marker_id}")
        else:
            try:
                name = profile.record_name(itype)
            except FormatError:
                name = f"type{itype}"
        out.append(CallProfileRow(itype, name, row["calls"], row["wall"], row["cpu"],
                                  row["max"], row["pieces"]))
    out.sort(key=lambda r: r.blocked_ns, reverse=True)
    return out


class ReferenceArrowMatcher:
    """Arrow matching one record at a time."""

    def __init__(self):
        self.sends, self.recvs = {}, {}

    def observe(self, r):
        if not IntervalType.is_mpi(r.itype):
            return
        row = (r.node, r.thread)
        seqno = r.extra.get("seqno", 0)
        if seqno:
            if r.extra.get("msgSizeSent", 0) > 0 and r.bebits in (BeBits.COMPLETE, BeBits.BEGIN):
                self.sends.setdefault(seqno, (row, r.start, r.extra["msgSizeSent"]))
            if r.extra.get("msgSizeRecv", 0) > 0 and r.bebits in (BeBits.COMPLETE, BeBits.END):
                self.note(seqno, row, r.end)
        if r.bebits in (BeBits.COMPLETE, BeBits.END):
            for s in r.extra.get("seqnos", ()) or ():
                self.note(int(s), row, r.end)

    def note(self, seqno, row, end):
        current = self.recvs.get(seqno)
        if current is None or end > current[1]:
            self.recvs[seqno] = (row, end)

    def arrows(self):
        return sorted(
            (MessageArrow(s, src, self.recvs[s][0], t, self.recvs[s][1], size)
             for s, (src, t, size) in self.sends.items() if s in self.recvs),
            key=lambda a: a.seqno,
        )


# ---------------------------------------------------------------------------
# The folds against the references, on random piece streams.

#: A few keys, so that pieces of one state meet: 2 nodes x 2 threads x
#: (two MPI types, a marker with two ids, running, clock pairs).
PIECE_TYPES = [SEND, RECV, IntervalType.MARKER, IntervalType.RUNNING, IntervalType.CLOCKPAIR]


@st.composite
def pieces(draw):
    itype = draw(st.sampled_from(PIECE_TYPES))
    extra = {}
    if itype == IntervalType.MARKER and draw(st.integers(0, 5)):
        extra["markerId"] = draw(st.integers(1, 2))
    dura = draw(st.sampled_from([0, 0, 1, 5, 40, 1 << 40, 1 << 62]))  # sums past int64
    return rec(itype=itype, bebits=draw(st.sampled_from(list(BeBits))),
               start=draw(st.integers(0, 200)), dura=dura,
               node=draw(st.integers(0, 1)), thread=draw(st.integers(0, 1)), **extra)


@st.composite
def cut_streams(draw, element):
    """``(records, batches)``: a stream and the same rows cut into one to
    three batches, joined back into one."""
    records = draw(st.lists(element, max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=2)))
    bounds = [0, *cuts, len(records)]
    parts = [batch_from_records(records[a:b]) for a, b in zip(bounds, bounds[1:])]
    return records, parts


@st.composite
def messages(draw):
    """MPI pieces (and a marker) over three sequence numbers and a few end
    ticks, so that sends repeat and receives tie; Waitall pieces carry
    ``seqnos`` instead."""
    itype = draw(st.sampled_from([SEND, RECV, WAITALL, IntervalType.MARKER]))
    extra = {}
    if itype == WAITALL and draw(st.booleans()):
        extra["seqnos"] = draw(st.lists(st.integers(0, 3), max_size=3))
    else:
        extra.update(
            seqno=draw(st.integers(0, 3)),
            msgSizeSent=draw(st.sampled_from([0, 8, 16])),
            msgSizeRecv=draw(st.sampled_from([0, 8])),
        )
    return rec(itype=itype, bebits=draw(st.sampled_from(list(BeBits))),
               start=draw(st.integers(0, 6)), dura=draw(st.integers(0, 2)),
               node=draw(st.integers(0, 1)), thread=draw(st.integers(0, 1)), **extra)


class TestFoldsEqualTheRecordLoops:
    @settings(max_examples=300, deadline=None)
    @given(cut_streams(pieces()), st.booleans())
    def test_spans_and_call_profile(self, stream, include_running):
        records, parts = stream
        batch = concat_batches(parts)
        assert list(state_spans(batch, include_running=include_running)) == list(
            reference_state_spans(records, include_running=include_running)
        )
        markers = {1: "region"}
        assert call_profile(
            batch, PROFILE, markers=markers, include_running=include_running
        ) == reference_call_profile(
            records, PROFILE, markers=markers, include_running=include_running
        )

    @settings(max_examples=300, deadline=None)
    @given(cut_streams(messages()))
    def test_arrow_matcher_one_batch_or_several(self, stream):
        records, parts = stream
        reference = ReferenceArrowMatcher()
        for r in records:
            reference.observe(r)
        want = reference.arrows()
        assert match_arrows(concat_batches(parts)) == want
        matcher = ArrowMatcher()
        for part in parts:
            matcher.observe(part)
        assert matcher.arrows() == want


class TestArrowMatcherEdges:
    def test_the_first_send_wins_and_a_tied_receive_keeps_the_first(self):
        records = [
            rec(itype=SEND, start=0, dura=1, seqno=1, msgSizeSent=8),
            rec(itype=SEND, node=1, start=2, dura=1, seqno=1, msgSizeSent=16),
            rec(itype=RECV, node=1, start=5, dura=5, seqno=1, msgSizeRecv=8),
            rec(itype=WAITALL, thread=1, start=8, dura=2, seqnos=[1]),  # ends at 10 too
        ]
        want = [MessageArrow(1, (0, 0), (1, 0), 0, 10, 8)]
        assert match_arrows(batch_from_records(records)) == want
        matcher = ArrowMatcher()
        for record in records:
            matcher.observe(batch_from_records([record]))
        assert matcher.arrows() == want

    def test_a_waitall_ahead_of_a_tied_receive_keeps_its_place(self):
        records = [
            rec(itype=WAITALL, thread=1, start=8, dura=2, seqnos=[1]),
            rec(itype=RECV, node=1, start=5, dura=5, seqno=1, msgSizeRecv=8),
            rec(itype=SEND, start=0, dura=1, seqno=1, msgSizeSent=8),
        ]
        (arrow,) = match_arrows(batch_from_records(records))
        assert (arrow.dst_row, arrow.recv_time) == ((0, 1), 10)

    def test_a_later_receive_replaces_the_held_one(self):
        records = [
            rec(itype=WAITALL, thread=1, start=8, dura=2, seqnos=[1]),
            rec(itype=RECV, node=1, start=5, dura=6, seqno=1, msgSizeRecv=8),
            rec(itype=SEND, start=0, dura=1, seqno=1, msgSizeSent=8),
        ]
        (arrow,) = match_arrows(batch_from_records(records))
        assert (arrow.dst_row, arrow.recv_time) == ((1, 0), 11)


# ---------------------------------------------------------------------------
# The read side builds no record objects.


def refuse(*args, **kwargs):
    raise AssertionError("a record object was built")


@pytest.fixture(scope="module")
def stencil(tmp_path_factory):
    """A stencil run traced, converted and merged: ``(merged.ute, run.slog)``."""
    out = tmp_path_factory.mktemp("stencil")
    assert cli.main_trace(["stencil", "-o", str(out / "raw")]) == 0
    raws = sorted(str(p) for p in (out / "raw").glob("*.raw"))
    assert cli.main_convert([*raws, "-o", str(out / "ivl")]) == 0
    ivls = sorted(str(p) for p in (out / "ivl").glob("trace*.ute"))
    merged, slog = out / "merged.ute", out / "run.slog"
    assert cli.main_slogmerge([*ivls, "-o", str(merged), "--slog", str(slog)]) == 0
    return merged, slog


def test_profile_report_and_views_build_no_records(stencil, tmp_path, capsys):
    merged, slog = stencil
    with mock.patch.object(FrameBatch, "to_records", refuse), \
            mock.patch.object(SlogFile, "read_frame", refuse):
        for path in (merged, slog):
            assert cli.main_profile([str(path), "--include-running"]) == 0
            assert "MPI_Waitall" in capsys.readouterr().out
        assert build_run_report(slog, tmp_path / "report.html").exists()
        with Jumpshot(slog) as viewer:
            view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")
        assert view.arrows
