"""Property-based tests: the convert utility on randomized (but valid)
event schedules.

Hypothesis generates arbitrary interleavings of dispatch/undispatch, nested
marker and MPI begin/end pairs, and checks the conversion invariants that
must hold for *any* schedule:

* total piece duration equals total dispatched (on-CPU) time;
* pieces never overlap within a thread;
* bebits are well-formed per state (COMPLETE alone, or BEGIN
  [CONTINUATION...] END);
* output is in ascending end-time order;
* piece CPU matches the dispatch in effect.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntervalReader, standard_profile
from repro.core.records import BeBits, IntervalType
from repro.tracing.events import RawEvent
from repro.tracing.hooks import HookId, hook_for_mpi_begin, hook_for_mpi_end
from repro.tracing.rawfile import RawFileHeader, RawTraceWriter
from repro.utils.convert import MarkerUnifier, convert_one
from tests.conftest import max_examples

PROFILE = standard_profile()
TID = 777


@dataclass
class Schedule:
    """A generated valid event schedule plus its ground truth."""

    events: list[RawEvent]
    on_cpu_ns: int
    dispatch_spans: list[tuple[int, int, int]]  # (start, end, cpu)


@st.composite
def schedules(draw) -> Schedule:
    """Generate a valid per-thread schedule.

    A random walk over: dispatch/undispatch toggles, and (while the model
    allows) pushes/pops of MPI or marker states, with strictly increasing
    timestamps.
    """
    events: list[RawEvent] = [
        RawEvent(HookId.THREAD_INFO, 0, TID, 0, (1000, 0, 0, 0), "t"),
        RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (1,), "m1"),
        RawEvent(HookId.MARKER_DEFINE, 0, TID, 0, (2,), "m2"),
    ]
    t = 0
    on_cpu = False
    cpu = 0
    stack: list[tuple[str, int]] = []  # ("mpi", fn) | ("marker", id)
    on_cpu_ns = 0
    spans: list[tuple[int, int, int]] = []
    span_start = 0
    n_steps = draw(st.integers(min_value=1, max_value=40))
    for _ in range(n_steps):
        t += draw(st.integers(min_value=1, max_value=1000))
        choices = ["toggle_cpu"]
        if on_cpu:
            in_mpi = bool(stack) and stack[-1][0] == "mpi"
            if len(stack) < 3 and not in_mpi:
                # MPI calls don't nest, and markers are not created inside
                # MPI calls — the same structural rules real programs obey.
                choices += ["push_mpi", "push_marker"]
            if stack:
                choices += ["pop"]
        action = draw(st.sampled_from(choices))
        if action == "toggle_cpu":
            if on_cpu:
                events.append(RawEvent(HookId.UNDISPATCH, t, TID, cpu))
                on_cpu_ns += t - span_start
                spans.append((span_start, t, cpu))
                on_cpu = False
                cpu = draw(st.integers(min_value=0, max_value=3))
            else:
                events.append(RawEvent(HookId.DISPATCH, t, TID, cpu))
                on_cpu = True
                span_start = t
        elif action == "push_mpi":
            fn = draw(st.integers(min_value=0, max_value=3))
            events.append(
                RawEvent(hook_for_mpi_begin(fn), t, TID, cpu, (1, 0, 64, 1, 0))
            )
            stack.append(("mpi", fn))
        elif action == "push_marker":
            # Markers may not nest the same id; pick one not in use.
            used = {mid for kind, mid in stack if kind == "marker"}
            options = [m for m in (1, 2) if m not in used]
            if not options:
                continue
            mid = draw(st.sampled_from(options))
            events.append(RawEvent(HookId.MARKER_BEGIN, t, TID, cpu, (mid, 0)))
            stack.append(("marker", mid))
        elif action == "pop":
            kind, value = stack.pop()
            if kind == "mpi":
                events.append(RawEvent(hook_for_mpi_end(value), t, TID, cpu))
            else:
                events.append(RawEvent(HookId.MARKER_END, t, TID, cpu, (value, 0)))
    # Close out: pop everything, then undispatch.
    while stack:
        t += 1
        kind, value = stack.pop()
        if kind == "mpi":
            events.append(RawEvent(hook_for_mpi_end(value), t, TID, cpu))
        else:
            events.append(RawEvent(HookId.MARKER_END, t, TID, cpu, (value, 0)))
    if on_cpu:
        t += 1
        events.append(RawEvent(HookId.UNDISPATCH, t, TID, cpu))
        on_cpu_ns += t - span_start
        spans.append((span_start, t, cpu))
    return Schedule(events, on_cpu_ns, spans)


def run_convert(tmp_path, schedule: Schedule):
    from repro.tracing.rawfile import RawTraceReader

    raw = tmp_path / "prop.raw"
    with RawTraceWriter(raw, RawFileHeader(0, 4, 0)) as writer:
        for ev in schedule.events:
            writer.write(ev)
    out = tmp_path / "prop.ute"
    convert_one(RawTraceReader(raw), out, PROFILE, MarkerUnifier())
    reader = IntervalReader(out, PROFILE)
    return [r for r in reader.intervals() if r.itype != IntervalType.CLOCKPAIR]


@given(schedule=schedules())
@settings(max_examples=max_examples(60), deadline=None)
def test_duration_conservation(tmp_path_factory, schedule):
    records = run_convert(tmp_path_factory.mktemp("p"), schedule)
    assert sum(r.duration for r in records) == schedule.on_cpu_ns


@given(schedule=schedules())
@settings(max_examples=max_examples(60), deadline=None)
def test_pieces_never_overlap_within_thread(tmp_path_factory, schedule):
    records = run_convert(tmp_path_factory.mktemp("p"), schedule)
    spans = sorted((r.start, r.end) for r in records if r.duration > 0)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert s2 >= e1, f"overlap: ({s1},{e1}) vs ({s2},{e2})"


@given(schedule=schedules())
@settings(max_examples=max_examples(60), deadline=None)
def test_bebits_wellformed_per_state(tmp_path_factory, schedule):
    records = run_convert(tmp_path_factory.mktemp("p"), schedule)
    open_states: set[tuple] = set()
    for r in records:
        key = (r.itype, r.extra.get("markerId", 0))
        if r.bebits is BeBits.COMPLETE:
            assert key not in open_states
        elif r.bebits is BeBits.BEGIN:
            assert key not in open_states
            open_states.add(key)
        elif r.bebits is BeBits.CONTINUATION:
            assert key in open_states
        elif r.bebits is BeBits.END:
            assert key in open_states
            open_states.remove(key)
    assert not open_states


@given(schedule=schedules())
@settings(max_examples=max_examples(60), deadline=None)
def test_output_end_time_ordered(tmp_path_factory, schedule):
    records = run_convert(tmp_path_factory.mktemp("p"), schedule)
    ends = [r.end for r in records]
    assert ends == sorted(ends)


@given(schedule=schedules())
@settings(max_examples=max_examples(60), deadline=None)
def test_piece_cpu_matches_dispatch(tmp_path_factory, schedule):
    records = run_convert(tmp_path_factory.mktemp("p"), schedule)
    for r in records:
        if r.duration == 0:
            continue
        covering = [
            cpu for (s, e, cpu) in schedule.dispatch_spans
            if s <= r.start and r.end <= e
        ]
        assert covering, f"piece ({r.start},{r.end}) outside any dispatch span"
        assert r.cpu == covering[0]
