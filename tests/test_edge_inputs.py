"""Degenerate inputs give the same answer — empty, never an exception —
on every read path.

An empty trace, a window that misses the whole trace, or a file with too
few clock pairs to estimate drift are all legal states of the pipeline,
and each read path (reader, query, dump, stats, serve, differ, oracle)
must report "nothing there" rather than raise.  Table-driven so a new
degenerate case lands in every path at once.
"""

import json
import urllib.parse

import pytest

from repro.cli import main_stats
from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.reader import IntervalReader
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.difftool import diff_traces, run_oracle
from repro.query import run_query
from repro.query.model import Query
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.utils.dump import dump_interval, dump_slog
from repro.utils.merge import merge_interval_files
from repro.utils.slog import SlogFile, SlogWriter
from repro.utils.stats import interval_records

PROFILE = standard_profile()


def table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "t0")])


def rec(itype=IntervalType.RUNNING, start=0, dura=100, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, 0, 0, 0, extra)


def make_ivl(path, recs):
    # 1 tick/second: seconds-based windows (dump, stats) equal tick windows.
    with IntervalFileWriter(
        path, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=512,
        ticks_per_sec=1.0,
    ) as writer:
        for r in recs:
            writer.write(r)
    return path


def make_slog(path, recs):
    writer = SlogWriter(
        path, PROFILE, table(), field_mask=MASK_ALL_MERGED,
        time_range=(0, max((r.end for r in recs), default=1) or 1),
        frame_bytes=512, preview_bins=4, ticks_per_sec=1.0,
    )
    for r in sorted(recs, key=lambda r: r.end):
        writer.write(r)
    return writer.close()


#: Degenerate scenarios: name -> (records, query window in ticks).
#: A window of None means "no window"; all scenarios must yield 0 records.
SCENARIOS = {
    "empty-file": ([], None),
    "empty-file-windowed": ([], (0, 100)),
    "window-before-trace": ([rec(start=1000)], (0, 500)),
    "window-after-trace": ([rec(start=1000)], (5000, 9000)),
    "zero-length-window-in-gap": ([rec(start=0), rec(start=1000)], (600, 600)),
}


def scenario(request, tmp_path, factory, suffix):
    recs, window = SCENARIOS[request.param]
    return factory(tmp_path / f"edge{suffix}", recs), window


@pytest.fixture(params=sorted(SCENARIOS), ids=sorted(SCENARIOS))
def ivl_case(request, tmp_path):
    return scenario(request, tmp_path, make_ivl, ".ute")


@pytest.fixture(params=sorted(SCENARIOS), ids=sorted(SCENARIOS))
def slog_case(request, tmp_path):
    return scenario(request, tmp_path, make_slog, ".slog")


class TestIntervalPaths:
    def test_reader(self, ivl_case):
        path, window = ivl_case
        with IntervalReader(path, PROFILE) as reader:
            if window is None:
                assert list(reader.intervals()) == []
            else:
                assert list(reader.intervals_between(*window)) == []

    def test_query(self, ivl_case):
        path, window = ivl_case
        query = Query() if window is None else Query(t0=window[0], t1=window[1])
        result = run_query(path, query, profile=PROFILE, index=False)
        assert result.rows == []

    def test_dump(self, ivl_case):
        path, window = ivl_case
        lines = list(dump_interval(path, PROFILE, window=window))
        assert all(line.startswith("#") for line in lines)

    def test_stats_stream(self, ivl_case):
        path, window = ivl_case
        assert list(interval_records([path], PROFILE, window=window, index=None)) == []

    def test_differ_and_oracle(self, ivl_case):
        path, _ = ivl_case
        assert diff_traces(path, path, profile=PROFILE).identical
        assert run_oracle(path, PROFILE).ok


class TestSlogPaths:
    def test_slog_reader(self, slog_case):
        path, window = slog_case
        slog = SlogFile(path)
        try:
            records = [
                r
                for entry in slog.frames
                for r in slog.read_frame(entry)
                if window is None
                or (not (r.end < window[0] or r.start > window[1]))
            ]
        finally:
            slog.close()
        assert records == []

    def test_query(self, slog_case):
        path, window = slog_case
        query = Query() if window is None else Query(t0=window[0], t1=window[1])
        result = run_query(path, query, profile=PROFILE, index=False)
        assert result.rows == []

    def test_dump(self, slog_case):
        path, window = slog_case
        lines = list(dump_slog(path, window=window))
        assert all(line.startswith("#") for line in lines)

    def test_oracle(self, slog_case):
        path, _ = slog_case
        assert run_oracle(path, PROFILE, serve=False).ok


class TestEmptyStatsAndServe:
    def test_stats_cli_on_empty_file(self, tmp_path, capsys):
        path = make_ivl(tmp_path / "empty.ute", [])
        assert main_stats([str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(t["rows"] == [] for t in doc["tables"].values())

    PROGRAM = 'table name=t x=("type", type) y=("n", dura, count)\n'

    def test_serve_stats_on_empty_slog(self, tmp_path):
        path = make_slog(tmp_path / "empty.slog", [])
        with ServerThread(path, ServerConfig(port=0)) as srv:
            query = urllib.parse.urlencode(
                {"format": "json", "table": self.PROGRAM}
            )
            response = ServeClient(srv.base_url).request("/api/stats?" + query)
            assert response.status == 200
            assert all(t["rows"] == [] for t in response.json()["tables"])

    def test_serve_stats_window_misses_trace(self, tmp_path):
        path = make_slog(tmp_path / "late.slog", [rec(start=1000)])
        with ServerThread(path, ServerConfig(port=0)) as srv:
            query = urllib.parse.urlencode(
                {"format": "json", "table": self.PROGRAM, "window": "5000:9000"}
            )
            response = ServeClient(srv.base_url).request("/api/stats?" + query)
            assert response.status == 200
            assert all(t["rows"] == [] for t in response.json()["tables"])


class TestDegenerateMerge:
    def test_merge_of_empty_inputs(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute", [])
        merged = tmp_path / "m.ute"
        result = merge_interval_files([a], merged, PROFILE)
        assert result.records_out == 0
        with IntervalReader(merged, PROFILE) as reader:
            assert list(reader.intervals()) == []

    def test_piecewise_sync_with_one_clock_pair_falls_back(self, tmp_path):
        # PiecewiseAdjustment needs >= 2 pairs; the merge must degrade to
        # offset-only alignment instead of raising.
        a = make_ivl(
            tmp_path / "a.ute",
            [
                rec(IntervalType.CLOCKPAIR, start=50, dura=0, globalTs=40),
                rec(start=100, dura=100),
            ],
        )
        merged = tmp_path / "m.ute"
        result = merge_interval_files([a], merged, PROFILE, sync_mode="piecewise")
        assert result.records_out == 1
        with IntervalReader(merged, PROFILE) as reader:
            (only,) = list(reader.intervals())
        # Offset-only: shifted by (global - local) = -10, rate untouched.
        assert only.start == 90
        assert only.duration == 100

    def test_piecewise_sync_with_no_clock_pairs_is_identity(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute", [rec(start=100, dura=100)])
        merged = tmp_path / "m.ute"
        merge_interval_files([a], merged, PROFILE, sync_mode="piecewise")
        with IntervalReader(merged, PROFILE) as reader:
            (only,) = list(reader.intervals())
        assert (only.start, only.duration) == (100, 100)
