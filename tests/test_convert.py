"""Tests for the convert utility: event matching, interval pieces, bebits,
Running synthesis, and marker unification."""

import pytest

from repro.core import IntervalReader, standard_profile
from repro.core.records import BeBits, IntervalType
from repro.errors import TraceError
from repro.tracing.events import RawEvent
from repro.tracing.hooks import HookId, MPI_FN_IDS, hook_for_mpi_begin, hook_for_mpi_end
from repro.tracing.rawfile import RawFileHeader, RawTraceWriter
from repro.utils.convert import MarkerUnifier, convert_one, convert_traces

PROFILE = standard_profile()
SEND = MPI_FN_IDS["MPI_Send"]
RECV = MPI_FN_IDS["MPI_Recv"]
TID = 500


def write_raw(tmp_path, events, node_id=0, n_cpus=2, name="t.raw"):
    path = tmp_path / name
    with RawTraceWriter(path, RawFileHeader(node_id, n_cpus, 0)) as writer:
        for ev in events:
            writer.write(ev)
    return path


def thread_info(ts=0, tid=TID, ltid=0, name="main"):
    return RawEvent(HookId.THREAD_INFO, ts, tid, 0, (1000, 0, 0, ltid), name)


def dispatch(ts, cpu=0, tid=TID):
    return RawEvent(HookId.DISPATCH, ts, tid, cpu)


def undispatch(ts, cpu=0, tid=TID):
    return RawEvent(HookId.UNDISPATCH, ts, tid, cpu)


def mpi_begin(ts, fn=SEND, args=(1, 0, 100, 7, 0), tid=TID, cpu=0):
    return RawEvent(hook_for_mpi_begin(fn), ts, tid, cpu, args)


def mpi_end(ts, fn=SEND, args=(), tid=TID, cpu=0):
    return RawEvent(hook_for_mpi_end(fn), ts, tid, cpu, args)


def convert(tmp_path, events, **kwargs):
    from repro.tracing.rawfile import RawTraceReader

    raw = write_raw(tmp_path, events, **kwargs)
    out = tmp_path / "out.ute"
    convert_one(RawTraceReader(raw), out, PROFILE, MarkerUnifier())
    reader = IntervalReader(out, PROFILE)
    return [r for r in reader.intervals() if r.itype != IntervalType.CLOCKPAIR], reader


class TestBasicMatching:
    def test_uninterrupted_call_is_complete(self, tmp_path):
        records, _ = convert(
            tmp_path,
            [
                thread_info(),
                dispatch(0),
                mpi_begin(100),
                mpi_end(250),
                undispatch(300),
            ],
        )
        send = [r for r in records if r.itype == IntervalType.for_mpi_fn(SEND)]
        assert len(send) == 1
        assert send[0].bebits is BeBits.COMPLETE
        assert (send[0].start, send[0].duration) == (100, 150)
        assert send[0].extra["msgSizeSent"] == 100
        assert send[0].extra["seqno"] == 7

    def test_descheduled_call_splits_into_pieces(self, tmp_path):
        """The paper's core example: a thread de-scheduled inside an MPI
        call produces begin / continuation / end pieces."""
        records, _ = convert(
            tmp_path,
            [
                thread_info(),
                dispatch(0),
                mpi_begin(100, RECV, args=(0, 0, 0, 0, 0)),
                undispatch(150),
                dispatch(300, cpu=1),
                undispatch(350, cpu=1),
                dispatch(500, cpu=0),
                mpi_end(600, RECV, args=(1, 0, 64, 9)),
                undispatch(650),
            ],
        )
        recv = [r for r in records if r.itype == IntervalType.for_mpi_fn(RECV)]
        assert [r.bebits for r in recv] == [BeBits.BEGIN, BeBits.CONTINUATION, BeBits.END]
        assert [(r.start, r.end) for r in recv] == [(100, 150), (300, 350), (500, 600)]
        # Pieces carry the CPU they actually ran on.
        assert [r.cpu for r in recv] == [0, 1, 0]
        # The recv end's message info lands on every piece.
        assert all(r.extra["seqno"] == 9 for r in recv)
        assert all(r.extra["msgSizeRecv"] == 64 for r in recv)

    def test_running_state_fills_gaps(self, tmp_path):
        records, _ = convert(
            tmp_path,
            [
                thread_info(),
                dispatch(0),
                mpi_begin(100),
                mpi_end(200),
                mpi_begin(400),
                mpi_end(500),
                undispatch(600),
            ],
        )
        running = [r for r in records if r.itype == IntervalType.RUNNING]
        spans = sorted((r.start, r.end) for r in running if r.duration > 0)
        assert spans == [(0, 100), (200, 400), (500, 600)]

    def test_running_survives_descheduling_as_pieces(self, tmp_path):
        records, _ = convert(
            tmp_path,
            [
                thread_info(),
                dispatch(0),
                undispatch(100),
                dispatch(200),
                undispatch(300),
            ],
        )
        running = [r for r in records if r.itype == IntervalType.RUNNING]
        assert [r.bebits for r in running] == [BeBits.BEGIN, BeBits.END]
        assert [(r.start, r.end) for r in running] == [(0, 100), (200, 300)]

    def test_mismatched_end_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="does not match"):
            convert(
                tmp_path,
                [thread_info(), dispatch(0), mpi_begin(10, SEND), mpi_end(20, RECV)],
            )

    def test_trace_cut_mid_state_closes_at_last_event(self, tmp_path):
        records, _ = convert(
            tmp_path,
            [thread_info(), dispatch(0), mpi_begin(100), undispatch(400)],
        )
        send = [r for r in records if r.itype == IntervalType.for_mpi_fn(SEND)]
        assert len(send) == 1
        assert send[0].end == 400


class TestNestedStates:
    def marker_events(self):
        """Section 3.3's example: marker 2 nested in marker 1, MPI inside 2."""
        return [
            thread_info(),
            RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (1,), "outer"),
            RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (2,), "inner"),
            dispatch(0),
            RawEvent(HookId.MARKER_BEGIN, 100, TID, 0, (1, 0)),
            RawEvent(HookId.MARKER_BEGIN, 200, TID, 0, (2, 0)),
            mpi_begin(300),
            mpi_end(400),
            RawEvent(HookId.MARKER_END, 500, TID, 0, (2, 0)),
            RawEvent(HookId.MARKER_END, 600, TID, 0, (1, 0)),
            undispatch(700),
        ]

    def test_outer_marker_has_begin_and_end_pieces(self, tmp_path):
        records, reader = convert(tmp_path, self.marker_events())
        outer_id = {v: k for k, v in reader.markers.items()}["outer"]
        outer = [
            r for r in records
            if r.itype == IntervalType.MARKER and r.extra["markerId"] == outer_id
        ]
        # Exactly the paper's description: begin piece and end piece, with
        # no coverage while the inner marker was active.
        assert [r.bebits for r in outer] == [BeBits.BEGIN, BeBits.END]
        assert [(r.start, r.end) for r in outer] == [(100, 200), (500, 600)]

    def test_inner_marker_split_by_mpi(self, tmp_path):
        records, reader = convert(tmp_path, self.marker_events())
        inner_id = {v: k for k, v in reader.markers.items()}["inner"]
        inner = [
            r for r in records
            if r.itype == IntervalType.MARKER and r.extra["markerId"] == inner_id
        ]
        assert [r.bebits for r in inner] == [BeBits.BEGIN, BeBits.END]
        assert [(r.start, r.end) for r in inner] == [(200, 300), (400, 500)]

    def test_mismatched_marker_end_rejected(self, tmp_path):
        events = [
            thread_info(),
            RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (1,), "a"),
            RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (2,), "b"),
            dispatch(0),
            RawEvent(HookId.MARKER_BEGIN, 10, TID, 0, (1, 0)),
            RawEvent(HookId.MARKER_END, 20, TID, 0, (2, 0)),
        ]
        with pytest.raises(TraceError, match="marker end"):
            convert(tmp_path, events)


class TestMarkerUnification:
    def test_same_string_same_global_id_across_files(self, tmp_path):
        """Different tasks define the same strings in different orders with
        different local ids; conversion unifies them."""
        events_a = [
            thread_info(),
            RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (1,), "Initial Phase"),
            RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (2,), "Main Loop"),
            dispatch(0),
            RawEvent(HookId.MARKER_BEGIN, 10, TID, 0, (1, 0)),
            RawEvent(HookId.MARKER_END, 20, TID, 0, (1, 0)),
            undispatch(30),
        ]
        events_b = [
            thread_info(tid=TID + 1),
            # Opposite definition order, colliding local ids.
            RawEvent(HookId.MARKER_DEFINE, 0, TID + 1, 0, (1,), "Main Loop"),
            RawEvent(HookId.MARKER_DEFINE, 0, TID + 1, 0, (2,), "Initial Phase"),
            dispatch(0, tid=TID + 1),
            RawEvent(HookId.MARKER_BEGIN, 10, TID + 1, 0, (2, 0)),
            RawEvent(HookId.MARKER_END, 20, TID + 1, 0, (2, 0)),
            undispatch(30, tid=TID + 1),
        ]
        raw_a = write_raw(tmp_path, events_a, node_id=0, name="a.raw")
        raw_b = write_raw(tmp_path, events_b, node_id=1, name="b.raw")
        result = convert_traces([raw_a, raw_b], tmp_path / "out")
        # One global id per string.
        assert sorted(result.marker_table.values()) == ["Initial Phase", "Main Loop"]
        ids = {v: k for k, v in result.marker_table.items()}
        for path in result.interval_paths:
            reader = IntervalReader(path, PROFILE)
            marker_recs = [
                r for r in reader.intervals() if r.itype == IntervalType.MARKER
            ]
            # Both files' "Initial Phase" records carry the same global id.
            assert {r.extra["markerId"] for r in marker_recs} == {ids["Initial Phase"]}

    def test_undefined_marker_rejected(self, tmp_path):
        events = [
            thread_info(),
            dispatch(0),
            RawEvent(HookId.MARKER_BEGIN, 10, TID, 0, (99, 0)),
        ]
        with pytest.raises(TraceError, match="undefined"):
            convert(tmp_path, events)


class TestOutputInvariants:
    def test_records_in_end_time_order(self, tmp_path):
        records, _ = convert(
            tmp_path,
            [
                thread_info(),
                dispatch(0),
                mpi_begin(100),
                mpi_end(300),
                mpi_begin(350, RECV, args=(0, 0, 0, 0, 0)),
                mpi_end(380, RECV, args=(1, 0, 8, 2)),
                undispatch(400),
            ],
        )
        ends = [r.end for r in records]
        assert ends == sorted(ends)

    def test_clock_pairs_become_records(self, tmp_path):
        from repro.tracing.events import global_clock_event

        records_and_reader = convert(
            tmp_path,
            [
                global_clock_event(5, 0),
                thread_info(),
                dispatch(0),
                undispatch(100),
                global_clock_event(1_000_005, 1_000_000),
            ],
        )
        reader = records_and_reader[1]
        pairs = [
            r for r in reader.intervals() if r.itype == IntervalType.CLOCKPAIR
        ]
        assert [(r.start, r.extra["globalTs"]) for r in pairs] == [
            (5, 0), (1_000_005, 1_000_000),
        ]

    def test_thread_table_built_from_thread_info(self, tmp_path):
        _, reader = convert(
            tmp_path,
            [thread_info(name="the-main"), dispatch(0), undispatch(10)],
        )
        entry = reader.thread_table.lookup(0, 0)
        assert entry.name == "the-main"
        assert entry.system_tid == TID
        assert entry.mpi_task == 0

    def test_conservation_of_on_cpu_time(self, tmp_path):
        """Total piece duration on a CPU equals total dispatched time."""
        events = [
            thread_info(),
            dispatch(0),
            mpi_begin(100),
            undispatch(200),
            dispatch(400, cpu=1),
            mpi_end(450),
            mpi_begin(500, RECV, args=(0, 0, 0, 0, 0)),
            mpi_end(550, RECV, args=(0, 0, 8, 1)),
            undispatch(700, cpu=1),
        ]
        records, _ = convert(tmp_path, events)
        total = sum(r.duration for r in records)
        dispatched = (200 - 0) + (700 - 400)
        assert total == dispatched


class TestOutputNameCollisions:
    """Outputs are named by input stem: ``convert_traces`` used to write
    ``x/node.raw`` and ``y/node.raw`` to one ``node.ute`` (listing it twice)
    and let ``profile.raw`` and the profile overwrite each other."""

    EVENTS = [thread_info(), dispatch(0), undispatch(10)]

    def test_two_inputs_of_one_stem_are_refused(self, tmp_path):
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        a = write_raw(tmp_path / "x", self.EVENTS, name="node.raw")
        b = write_raw(tmp_path / "y", self.EVENTS, node_id=1, name="node.raw")
        out = tmp_path / "out"
        with pytest.raises(TraceError, match="would both be written to .*node.ute"):
            convert_traces([a, b], out)
        assert not out.exists()  # refused before anything was written

    def test_an_input_named_like_the_profile_is_refused(self, tmp_path):
        raw = write_raw(tmp_path, self.EVENTS, name="profile.raw")
        out = tmp_path / "out"
        with pytest.raises(TraceError, match="description profile.*profile.ute"):
            convert_traces([raw], out)
        assert not out.exists()

    def test_the_cli_answers_one_line_and_exit_2(self, tmp_path, capsys):
        from repro.cli import main_convert

        raw = write_raw(tmp_path, self.EVENTS, name="profile.raw")
        assert main_convert([str(raw), "-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ute-convert: error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()
