"""Every window-filtering path answers boundary cases identically.

Four code paths prune records to a time window — ``ute-dump --window``,
the query engine, ``IntervalReader.intervals_between``, and the stats
record stream — and all of them now route through the single predicate
``repro.core.windows.overlaps_window``.  These tests pin the shared
semantics (closed interval, ``None`` = open side, zero-length records)
across every path over the same boundary-heavy file, and pin the
unification itself so a future fork of the predicate fails loudly.
"""

import pytest

from repro.core import overlaps_window, standard_profile, window_to_ticks
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.reader import IntervalReader
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.query import run_query
from repro.query.model import Query
from repro.utils import dump as dump_mod
from repro.utils.dump import dump_interval
from repro.utils.stats import interval_records

PROFILE = standard_profile()

#: (start, end) of each record, in ticks, on a 1 tick/second file so the
#: seconds-based APIs (dump, stats) see the same numbers as the tick-based
#: ones.  Includes a zero-length record sitting exactly on a boundary.
SPANS = [(0, 10), (10, 10), (10, 20), (20, 30), (35, 40)]

#: (t0, t1) windows and the record indices they must select, everywhere.
WINDOW_CASES = [
    ((None, None), [0, 1, 2, 3, 4]),
    ((10, 10), [0, 1, 2]),        # closed interval: both boundary touches count
    ((None, 9), [0]),             # open left side
    ((11, None), [2, 3, 4]),      # open right side
    ((30, 35), [3, 4]),           # exact-boundary on both edges
    ((31, 34), []),               # gap between records
    ((100, 200), []),             # entirely after the trace
    ((0, 0), [0]),                # zero-length window at the origin
]


def span_file(tmp_path):
    path = tmp_path / "spans.ute"
    table = ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "t0")])
    with IntervalFileWriter(
        path, PROFILE, table, field_mask=MASK_ALL_MERGED,
        frame_bytes=256, ticks_per_sec=1.0,
    ) as writer:
        for start, end in SPANS:
            writer.write(
                IntervalRecord(
                    IntervalType.RUNNING, BeBits.COMPLETE,
                    start, end - start, 0, 0, 0, {},
                )
            )
    return path


def expected_spans(case):
    (t0, t1), indices = case
    return sorted(SPANS[i] for i in indices)


class TestPredicate:
    """The shared predicate itself, on the cases the call sites disagreed
    on historically: boundaries are inclusive and ``None`` opens a side."""

    @pytest.mark.parametrize(
        "start,end,t0,t1,expected",
        [
            (10, 20, 20, 30, True),    # touch at the left edge
            (10, 20, 0, 10, True),     # touch at the right edge
            (10, 20, 21, 30, False),
            (10, 20, 0, 9, False),
            (10, 10, 10, 10, True),    # zero-length record on the boundary
            (10, 10, 0, 9, False),
            (10, 20, None, None, True),
            (10, 20, None, 9, False),
            (10, 20, 21, None, False),
            (10, 20, None, 10, True),
            (10, 20, 20, None, True),
        ],
    )
    def test_cases(self, start, end, t0, t1, expected):
        assert overlaps_window(start, end, t0, t1) is expected

    def test_window_to_ticks_truncates(self):
        assert window_to_ticks((1.5, None), 10.0) == (15, None)
        assert window_to_ticks((None, 1.99), 10.0) == (None, 19)
        assert window_to_ticks(None, 10.0) == (None, None)


class TestUnification:
    """The call sites share one implementation — not four copies of it."""

    def test_query_engine_reexports_core(self):
        import repro.query
        from repro.core import windows as core_windows
        from repro.query import scan

        assert repro.query.window_to_ticks is core_windows.window_to_ticks
        assert scan.window_to_ticks is core_windows.window_to_ticks

    def test_dump_predicate_delegates(self):
        record = IntervalRecord(
            IntervalType.RUNNING, BeBits.COMPLETE, 10, 0, 0, 0, 0, {}
        )
        for t0, t1, expected in [(10, 10, True), (0, 9, False), (11, 20, False)]:
            assert dump_mod._in_window(record, (t0, t1)) is expected
            assert overlaps_window(10, 10, t0, t1) is expected

    def test_frame_overlaps_match_predicate(self, tmp_path):
        from repro.query.trace import open_trace

        with open_trace(span_file(tmp_path), PROFILE) as handle:
            for frame in handle.frames:
                for t0, t1 in [(0, 5), (10, 10), (100, 200), (None, None)]:
                    assert frame.overlaps(t0, t1) is overlaps_window(
                        frame.start_time, frame.end_time, t0, t1
                    )


class TestPathParity:
    """The same window over the same file gives the same records on every
    path.  Expected sets come straight from the shared predicate applied to
    the in-memory spans."""

    @pytest.fixture()
    def path(self, tmp_path):
        return span_file(tmp_path)

    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: str(c[0]))
    def test_reader_intervals_between(self, path, case):
        (t0, t1), _ = case
        reader = IntervalReader(path, PROFILE)
        got = sorted((r.start, r.end) for r in reader.intervals_between(t0, t1))
        reader.close()
        assert got == expected_spans(case)

    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: str(c[0]))
    def test_query_path(self, path, case):
        (t0, t1), _ = case
        result = run_query(path, Query(t0=t0, t1=t1), profile=PROFILE, index=False)
        got = sorted(row[0:2] for row in result.rows)
        assert got == expected_spans(case)

    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: str(c[0]))
    def test_dump_window(self, path, case):
        (t0, t1), _ = case
        # 1 tick/second file: the seconds window equals the ticks window.
        lines = [
            line
            for line in dump_interval(path, PROFILE, window=(t0, t1))
            if not line.startswith("#")
        ]
        assert len(lines) == len(expected_spans(case))

    @pytest.mark.parametrize("case", WINDOW_CASES, ids=lambda c: str(c[0]))
    def test_stats_record_stream(self, path, case):
        (t0, t1), _ = case
        got = sorted(
            (start, end)
            for batch in interval_records([path], PROFILE, window=(t0, t1), index=None)
            for start, end in zip(batch.start.tolist(), batch.end.tolist())
        )
        assert got == expected_spans(case)
