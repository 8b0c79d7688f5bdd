"""The columnar convert against the per-event state machine.

``convert_one`` matches events, nests states and cuts pieces as array
arithmetic over ``RawTraceReader.columns()``; ``reference_convert_one`` is
the state machine it replaced, kept as the reference.  These tests hold the
two to the same bytes over multi-thread schedules the single-thread
``schedules()`` strategy of ``test_convert_properties`` cannot produce, hold
every condition the columnar pass must prove to the reference's outcome,
and hold ``columns()`` to the record-at-a-time read.
"""

from __future__ import annotations

import runpy
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_profile
from repro.difftool.oracle import run_oracle
from repro.errors import FormatError, TraceError
from repro.tracing.events import RawEvent
from repro.tracing.hooks import (
    MPI_FN_IDS,
    MPI_FN_NAMES,
    HookId,
    hook_for_mpi_begin,
    hook_for_mpi_end,
)
from repro.tracing.rawfile import RawFileHeader, RawTraceReader, RawTraceWriter
from repro.utils import convert as convert_module
from repro.utils.convert import (
    MarkerUnifier,
    convert_one,
    convert_traces,
    reference_convert_one,
)
from tests.test_rawfile import _walked, _window_sizes

PROFILE = standard_profile()
SEND, RECV, WAITALL = (MPI_FN_IDS[n] for n in ("MPI_Send", "MPI_Recv", "MPI_Waitall"))
EXAMPLES = Path(__file__).parent.parent / "examples"

#: Payload words at the edges of every wire field they can land in.
WORDS = (0, 1, 5, 2**31 - 1, 2**31, 2**32 - 1, 2**63 - 1, 2**63, 2**64 - 1)


def write_raw(path, events, node_id=0):
    with RawTraceWriter(path, RawFileHeader(node_id, 4, 0)) as writer:
        for event in events:
            writer.write(event)
    return path


def outcome(convert, raw, out, *, strict=True, frame_bytes=32 * 1024):
    """What one conversion did: its counts, file bytes and marker table (on
    a unifier that already holds a string), or the exception it raised."""
    unifier = MarkerUnifier()
    unifier.unify("held before")
    try:
        with RawTraceReader(raw) as reader:
            counts = convert(reader, out, PROFILE, unifier, strict=strict, frame_bytes=frame_bytes)
    except (TraceError, FormatError, struct.error, IndexError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return counts, out.read_bytes(), unifier.table()


@pytest.fixture()
def no_reference(monkeypatch):
    """Fail the test if the per-event state machine is entered."""
    def entered(*args, **kwargs):
        raise AssertionError("reference_convert_one entered")

    monkeypatch.setattr(convert_module, "reference_convert_one", entered)


# ------------------------------------------------- multi-thread schedules

TIDS = (700, 701, 702)
MARKERS = ((1, "alpha"), (2, "beta"), (3, "alpha"))  # two ids share a string


#: Words that fit an i32 field once read as signed (peer, tag, root).
SIGNED_WORDS = (0, 1, 5, 2**31 - 1, 2**64 - 1, 2**64 - 2**31)


@st.composite
def words(draw, count, narrow=(), tiny=()):
    """``count`` payload words: any u64, but those at ``narrow`` fit an i32
    field and those at ``tiny`` a u8 one — every trace must convert."""
    return tuple(
        draw(
            st.sampled_from(SIGNED_WORDS) if k in narrow
            else st.integers(min_value=0, max_value=255) if k in tiny
            else st.sampled_from(WORDS) | st.integers(min_value=0, max_value=2000)
        )
        for k in range(count)
    )


@st.composite
def traces(draw) -> list[RawEvent]:
    """A well-formed multi-thread trace with everything real ones avoid:
    equal timestamps, dispatch while on a CPU, undispatch while off one,
    pushes while off-CPU, states left open at the end, short and long
    payloads, words past 2**63, clock records tied with state records."""
    t = draw(st.sampled_from((0, 0, 1000)))
    events = [RawEvent(HookId.TRACE_ON, t, 0, 0)]
    for i, tid in enumerate(TIDS):
        events.append(RawEvent(HookId.THREAD_INFO, t, tid, i, (4000, i % 2, i, i * 7), f"t{i}"))
    for local_id, text in MARKERS:
        events.append(RawEvent(HookId.MARKER_DEFINE, t, TIDS[0], 0, (local_id,), text))
    stacks: dict[int, list[tuple[int, int]]] = {tid: [] for tid in TIDS}
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        t += draw(st.sampled_from((0, 0, 1, 1000)))
        tid = draw(st.sampled_from(TIDS))
        cpu = draw(st.integers(min_value=0, max_value=3))
        stack = stacks[tid]
        action = draw(st.sampled_from(
            ("dispatch", "undispatch", "clock", "mpi", "marker", "io", "fault", "pop", "pop")
        ))
        if action == "dispatch":
            events.append(RawEvent(HookId.DISPATCH, t, tid, cpu))
        elif action == "undispatch":
            events.append(RawEvent(HookId.UNDISPATCH, t, tid, cpu))
        elif action == "clock":
            events.append(RawEvent(HookId.GLOBAL_CLOCK, t, 0, 0, draw(words(1))))
        elif action == "pop":
            if not stack:
                continue
            hook, local_id = stack.pop()
            if hook == HookId.MARKER_END:
                text = dict(MARKERS)[local_id]
                same = draw(st.sampled_from([i for i, s in MARKERS if s == text]))
                args = (same, *draw(words(draw(st.sampled_from((0, 1))))))
            elif hook == hook_for_mpi_end(WAITALL):
                args = draw(words(draw(st.sampled_from((0, 1, 3, 6)))))
            elif hook >= 0x200:
                args = draw(words(draw(st.sampled_from((0, 3, 4, 4, 5))), narrow=(0, 1)))
            else:
                args = ()
            events.append(RawEvent(hook, t, tid, cpu, args))
        elif len(stack) < 4:
            if action == "mpi":
                fn = draw(st.integers(min_value=0, max_value=len(MPI_FN_NAMES) - 1))
                args = draw(words(draw(st.sampled_from((0, 1, 2, 4, 5, 5))), narrow=(0, 1)))
                events.append(RawEvent(hook_for_mpi_begin(fn), t, tid, cpu, args))
                stack.append((hook_for_mpi_end(fn), 0))
            elif action == "marker":
                local_id = draw(st.sampled_from([i for i, _ in MARKERS]))
                args = (local_id, *draw(words(draw(st.sampled_from((0, 1, 2))))))
                events.append(RawEvent(HookId.MARKER_BEGIN, t, tid, cpu, args))
                stack.append((HookId.MARKER_END, local_id))
            elif action == "io":
                args = draw(words(draw(st.sampled_from((0, 1, 3))), tiny=(1,)))
                events.append(RawEvent(HookId.IO_BEGIN, t, tid, cpu, args))
                stack.append((HookId.IO_END, 0))
            else:
                args = draw(words(draw(st.sampled_from((0, 1)))))
                events.append(RawEvent(HookId.PAGEFAULT_BEGIN, t, tid, cpu, args))
                stack.append((HookId.PAGEFAULT_END, 0))
    return events


@given(events=traces(), frame_bytes=st.sampled_from((256, 600, 32 * 1024)))
@settings(max_examples=150, deadline=None)
def test_columnar_writes_the_reference_bytes(tmp_path_factory, events, frame_bytes):
    tmp = tmp_path_factory.mktemp("col")
    raw = write_raw(tmp / "t.raw", events, node_id=2)
    with RawTraceReader(raw) as reader:
        # Such a trace is one the columnar pass must take, not hand over.
        assert convert_module._columnar_batch(reader, PROFILE, MarkerUnifier()) is not None
    for strict in (True, False):
        got = outcome(convert_one, raw, tmp / "a.ute", strict=strict, frame_bytes=frame_bytes)
        want = outcome(
            reference_convert_one, raw, tmp / "b.ute", strict=strict, frame_bytes=frame_bytes
        )
        assert got == want
        assert isinstance(got[1], bytes)


# ------------------------------------------------------ the conditions

TID = 500


def info(ts=0, tid=TID, logical=0):
    return RawEvent(HookId.THREAD_INFO, ts, tid, 0, (1000, 0, 0, logical), "main")


def define(local_id=1, text="phase", ts=0):
    return RawEvent(HookId.MARKER_DEFINE, ts, TID, 0, (local_id,), text)


def ev(hook, ts, args=(), tid=TID, cpu=0, text=""):
    return RawEvent(hook, ts, tid, cpu, args, text)


SEND_BEGIN, SEND_END = hook_for_mpi_begin(SEND), hook_for_mpi_end(SEND)
RECV_END = hook_for_mpi_end(RECV)
BASE = [info(), define(), ev(HookId.DISPATCH, 5)]

#: name -> (events, what strict mode must raise — the parent's exception
#: and message — or None where the state machine converts the trace).
BROKEN = {
    "unmatched end": (
        [*BASE, ev(SEND_END, 9)],
        (TraceError, "node 0 tid 500: MPI end for type 1 does not match open state"),
    ),
    "end of another type": (
        [*BASE, ev(SEND_BEGIN, 9, (1, 0, 8, 1, 0)), ev(RECV_END, 12)],
        (TraceError, "node 0 tid 500: MPI end for type 2 does not match open state"),
    ),
    "marker end id mismatch": (
        [*BASE, define(2, "other"), ev(HookId.MARKER_BEGIN, 9, (1, 0)),
         ev(HookId.MARKER_END, 12, (2, 0))],
        (TraceError, "node 0: marker end (local id 2) does not match the innermost open marker"),
    ),
    "begin before its define": (
        [info(), ev(HookId.DISPATCH, 5), ev(HookId.MARKER_BEGIN, 9, (1, 0)), define(ts=10),
         ev(HookId.MARKER_END, 12, (1, 0))],
        (TraceError, "node 0: marker begin for undefined local id 1"),
    ),
    "redefined local id": (
        [*BASE, ev(HookId.MARKER_BEGIN, 9, (1, 0)), define(1, "again", ts=10),
         ev(HookId.MARKER_END, 12, (1, 0))],
        (TraceError, "node 0: marker end (local id 1) does not match the innermost open marker"),
    ),
    "missing THREAD_INFO": ([define(), ev(HookId.DISPATCH, 5), ev(HookId.UNDISPATCH, 9)], None),
    "late THREAD_INFO": ([define(), ev(HookId.DISPATCH, 5), info(6), ev(HookId.UNDISPATCH, 9)], None),
    "duplicate THREAD_INFO": ([*BASE, info(7, logical=3), ev(HookId.UNDISPATCH, 9)], None),
    "backwards per-thread time": (
        [*BASE, ev(SEND_BEGIN, 9, (1, 0, 8, 1, 0)), ev(SEND_END, 7), ev(HookId.UNDISPATCH, 20)],
        None,
    ),
    "unknown hook": ([*BASE, ev(0x99, 9)], (TraceError, "unhandled hook 0x99 in conversion")),
    "text on a state event": (
        [*BASE, ev(SEND_BEGIN, 9, (1, 0, 8, 1, 0), text="stray"), ev(SEND_END, 12)], None,
    ),
    "I/O end with nothing open": (
        [*BASE, ev(HookId.IO_END, 9)],
        (TraceError, "node 0: I/O end does not match an open I/O state"),
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_an_unproven_trace_gets_the_reference_outcome(tmp_path, name):
    events, raises = BROKEN[name]
    raw = write_raw(tmp_path / "t.raw", events)
    unifier = MarkerUnifier()
    unifier.unify("held before")
    with RawTraceReader(raw) as reader:
        assert convert_module._columnar_batch(reader, PROFILE, unifier) is None
    assert unifier.table() == {1: "held before"}  # the failed attempt allocated nothing
    strict = outcome(convert_one, raw, tmp_path / "a.ute")
    assert strict == outcome(reference_convert_one, raw, tmp_path / "b.ute")
    if raises is not None:
        assert strict == raises
    else:
        assert isinstance(strict[1], bytes)
    lenient = outcome(convert_one, raw, tmp_path / "a.ute", strict=False)
    assert lenient == outcome(reference_convert_one, raw, tmp_path / "b.ute", strict=False)
    # Lenient mode writes a file, or refuses with what strict mode raised.
    assert isinstance(lenient[1], bytes) or lenient == strict


def test_a_truncated_final_record_raises_the_readers_error(tmp_path):
    raw = write_raw(tmp_path / "t.raw", [*BASE, ev(SEND_BEGIN, 9, (1, 0, 8, 1, 0))])
    raw.write_bytes(raw.read_bytes()[:-7])
    unifier = MarkerUnifier()
    with RawTraceReader(raw) as reader:
        assert convert_module._columnar_batch(reader, PROFILE, unifier) is None
    assert unifier.table() == {}
    for strict in (True, False):
        got = outcome(convert_one, raw, tmp_path / "a.ute", strict=strict)
        assert got == outcome(reference_convert_one, raw, tmp_path / "b.ute", strict=strict)
        assert got[0] is FormatError and "truncated event at offset" in got[1]


def test_a_value_too_wide_for_its_field_fails_in_the_encoder(tmp_path, no_reference):
    """An out-of-range ``peer`` is no reason to hand the trace over: the
    columns reach ``encode_frame_batch`` unclipped and its per-record
    encoder raises what it always raised."""
    raw = write_raw(
        tmp_path / "t.raw", [*BASE, ev(SEND_BEGIN, 9, (2**40, 0, 8, 1, 0)), ev(SEND_END, 12)]
    )
    got = outcome(convert_one, raw, tmp_path / "a.ute")
    assert got == (struct.error, "'i' format requires -2147483648 <= number <= 2147483647")
    assert got == outcome(reference_convert_one, raw, tmp_path / "b.ute")
    assert not (tmp_path / "a.ute").exists()


# ------------------------------------------- real traces go columnar

def _workload_runs(tmp_path):
    from repro.workloads import run_pingpong, run_sppm, run_synthetic
    from repro.workloads.sppm import SppmConfig
    from repro.workloads.synthetic import SyntheticConfig

    yield run_synthetic(tmp_path / "table1", SyntheticConfig(rounds=12))
    yield run_sppm(tmp_path / "sppm", SppmConfig(iterations=2))
    yield run_pingpong(tmp_path / "pingpong")


def test_workload_traces_never_enter_the_reference(tmp_path, no_reference):
    for run in _workload_runs(tmp_path):
        out = Path(run.raw_paths[0]).parent / "ivl"
        result = convert_traces(run.raw_paths, out)
        assert result.records_written > 0
        assert convert_traces(run.raw_paths, out / "jobs", jobs=2).records_written == (
            result.records_written
        )


@pytest.mark.parametrize("script", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_example_traces_never_enter_the_reference(tmp_path, no_reference, script, capsys):
    argv = sys.argv
    sys.argv = [str(EXAMPLES / script), str(tmp_path / "out")]
    try:
        runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    finally:
        sys.argv = argv
    capsys.readouterr()


# -------------------------------------------------------- convert_parity

def test_convert_parity_bites_on_a_planted_defect(tmp_path, monkeypatch):
    """Two nested markers of zero duration tie in every sort key: only the
    emission order says the inner one is written first."""
    raw = write_raw(tmp_path / "t.raw", [
        info(), define(1, "outer"), define(2, "inner"),
        ev(HookId.MARKER_BEGIN, 5, (1, 0)), ev(HookId.MARKER_BEGIN, 5, (2, 0)),
        ev(HookId.MARKER_END, 5, (2, 0)), ev(HookId.MARKER_END, 5, (1, 0)),
    ])
    report = run_oracle(raw, PROFILE)
    assert "convert_parity" in report.checks and report.ok, report.summary()

    state_rows = convert_module._state_rows

    def without_emission_order(*args):
        rows = state_rows(*args)
        rows["emit"] = np.zeros_like(rows["emit"])
        return rows

    monkeypatch.setattr(convert_module, "_state_rows", without_emission_order)
    report = run_oracle(raw, PROFILE)
    assert [f.check for f in report.findings] == ["convert_parity"], report.summary()
    assert "bytes" in report.findings[0].detail


# -------------------------------------------------------------- columns()

def _fields(columns, reader):
    """``columns()`` as the tuples ``list(reader)`` holds."""
    args = columns.args.tolist()
    spans = zip(columns.arg_start.tolist(), columns.nargs.tolist())
    texts = [
        reader.source.fetch(at, size).decode("utf-8")
        for at, size in zip(columns.text_offset.tolist(), columns.text_len.tolist())
    ]
    return [
        RawEvent(hook, ts, tid, cpu, tuple(args[at : at + count]), text)
        for hook, ts, tid, cpu, (at, count), text in zip(
            columns.hook.tolist(), columns.ts.tolist(), columns.tid.tolist(),
            columns.cpu.tolist(), spans, texts,
        )
    ]


def _columns_read(reader):
    try:
        return _fields(reader.columns(), reader), None
    except (TraceError, FormatError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("name", ["good.raw", "trunc.raw", "midflip.raw"])
def test_columns_is_the_record_at_a_time_read(corpus, monkeypatch, name):
    path = corpus.path(name)
    for window in _window_sizes(corpus.path("good.raw")):
        monkeypatch.setattr(RawTraceReader, "WINDOW_BYTES", window)
        with RawTraceReader(path) as reader:
            events, error = _walked(reader)
            got, raised = _columns_read(reader)
        assert raised == error, window
        assert (error is None) == (name == "good.raw")
        if error is None:
            assert got == events, window


def test_columns_over_payloads_texts_and_windows(tmp_path, monkeypatch):
    events = [
        RawEvent(HookId.MARKER_DEFINE, 3, 9, 1, (7,), "héllo wörld" * 5),
        *(
            RawEvent(hook_for_mpi_begin(i % 5), 10 + i, 40 + i % 3, i % 4, WORDS[: i % 8])
            for i in range(60)
        ),
        RawEvent(HookId.THREAD_INFO, 2**63 + 5, 2**32 - 1, 65535, (1, 2, 3, 4), "x" * 300),
    ]
    path = write_raw(tmp_path / "t.raw", events)
    for window in (4, 23, 64, 100, 301, RawTraceReader.WINDOW_BYTES):
        monkeypatch.setattr(RawTraceReader, "WINDOW_BYTES", window)
        with RawTraceReader(path) as reader:
            columns = reader.columns()
            assert _fields(columns, reader) == events == list(reader)
            assert columns.offset.tolist() == [offset for _, offset, _ in reader.scan()]
            rows = np.arange(len(events))
            for k in range(8):
                assert columns.arg(rows, k).tolist() == [
                    e.args[k] if len(e.args) > k else 0 for e in events
                ]
    with RawTraceReader(path, errors="salvage") as reader:
        with pytest.raises(TraceError, match="strict read"):
            reader.columns()


def test_columns_names_the_record_that_does_not_add_up(tmp_path):
    """A payload count that runs past the record's hookword length is the
    per-record decoder's error, raised for the same record."""
    path = write_raw(tmp_path / "t.raw", [ev(HookId.DISPATCH, 1), ev(SEND_BEGIN, 2, (1, 2, 3))])
    data = bytearray(path.read_bytes())
    second = RawFileHeader.size() + 22
    data[second + 18] = 9  # nargs: 3 -> 9
    path.write_bytes(bytes(data))
    with RawTraceReader(path) as reader:
        events, error = _walked(reader)
        assert len(events) == 1 and error[0] is TraceError
        assert _columns_read(reader) == (None, error)
