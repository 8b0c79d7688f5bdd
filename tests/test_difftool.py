"""Tests for the semantic differ (``repro.difftool.differ`` / ``ute-diff``)
and the stats/serve consistency regression it flushed out."""

import dataclasses
import json
import time
import urllib.parse

import pytest

from repro.cli import main_diff, main_stats
from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.difftool import DiffConfig, diff_traces
from repro.errors import FormatError
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.utils.slog import SlogWriter
from repro.workloads import write_big_slog

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)


def rec(itype=IntervalType.RUNNING, start=0, dura=100, node=0, thread=0, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, node, 0, thread, extra)


def records(n=30):
    return [rec(start=i * 200, dura=150, thread=i % 2) for i in range(n)]


def thread_table():
    return ThreadTable(
        [ThreadEntry(t, 100, 5000 + t, 0, t, 0, f"t{t}") for t in range(2)]
    )


def make_ivl(path, recs=None):
    with IntervalFileWriter(
        path, PROFILE, thread_table(), field_mask=MASK_ALL_MERGED, frame_bytes=512
    ) as writer:
        for r in recs if recs is not None else records():
            writer.write(r)
    return path


def make_slog(path, recs=None, *, ticks_per_sec=1e9):
    recs = list(recs if recs is not None else records())
    t1 = max((r.end for r in recs), default=1)
    writer = SlogWriter(
        path, PROFILE, thread_table(), field_mask=MASK_ALL_MERGED,
        time_range=(0, max(t1, 1)), frame_bytes=512, preview_bins=10,
        ticks_per_sec=ticks_per_sec,
    )
    for r in sorted(recs, key=lambda r: r.end):
        writer.write(r)
    return writer.close()


def rewrite_with(path, out, mutate):
    """Copy ``path`` record by record through ``mutate`` into ``out``."""
    from repro.core.reader import IntervalReader

    reader = IntervalReader(path, PROFILE)
    recs = [mutate(i, r) for i, r in enumerate(reader.intervals())]
    table, mask, markers = reader.thread_table, reader.header.field_mask, reader.markers
    reader.close()
    with IntervalFileWriter(
        out, PROFILE, table, field_mask=mask, markers=markers, frame_bytes=512
    ) as writer:
        for r in recs:
            if r is not None:
                writer.write(r)
    return out


class TestDiffer:
    def test_identical_files(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute")
        b = make_ivl(tmp_path / "b.ute")
        report = diff_traces(a, b)
        assert report.identical
        assert report.compared == 30
        assert report.first is None

    def test_one_tick_perturbation_detected(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute")
        b = rewrite_with(
            a, tmp_path / "b.ute",
            lambda i, r: dataclasses.replace(r, start=r.start + 1, duration=r.duration - 1)
            if i == 7 else r,
        )
        report = diff_traces(a, b)
        assert not report.identical
        assert report.first == {"index": 7, "field": "start", "a": 1400, "b": 1401}
        assert report.field_counts == {"start": 1}
        assert report.max_deltas == {"start": 1}
        assert report.divergent_records == 1

    def test_time_slack_absorbs_perturbation(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute")
        b = rewrite_with(
            a, tmp_path / "b.ute",
            lambda i, r: dataclasses.replace(r, start=r.start + 1, duration=r.duration - 1),
        )
        assert not diff_traces(a, b).identical
        assert diff_traces(a, b, DiffConfig(time_slack=1)).identical

    def test_slack_does_not_cover_non_time_fields(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute")
        b = rewrite_with(
            a, tmp_path / "b.ute",
            lambda i, r: dataclasses.replace(r, node=r.node + 1) if i == 3 else r,
        )
        report = diff_traces(a, b, DiffConfig(time_slack=10))
        assert not report.identical
        assert report.first["field"] == "node"

    def test_record_count_mismatch(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute")
        b = rewrite_with(a, tmp_path / "b.ute", lambda i, r: None if i == 29 else r)
        report = diff_traces(a, b)
        assert not report.identical
        assert report.records_a == 30 and report.records_b == 29
        assert report.first["field"] == "__count__"

    def test_ignore_fields(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute", [rec(SEND, dura=10, msgSizeSent=8, seqno=1)])
        b = make_ivl(tmp_path / "b.ute", [rec(SEND, dura=10, msgSizeSent=8, seqno=2)])
        assert not diff_traces(a, b).identical
        assert diff_traces(a, b, DiffConfig(ignore_fields=frozenset({"seqno"}))).identical

    def test_field_missing_on_one_side(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute", [rec(SEND, dura=10, msgSizeSent=8, seqno=1)])
        b = make_ivl(tmp_path / "b.ute", [rec(dura=10)])
        report = diff_traces(a, b)
        assert not report.identical
        assert any(e["b"] == "<missing>" for e in report.examples)
        assert "type" in report.field_counts

    def test_drop_types(self, tmp_path):
        base = records(10)
        a = make_ivl(tmp_path / "a.ute", base)
        b = make_ivl(
            tmp_path / "b.ute",
            sorted(
                base + [rec(IntervalType.CLOCKPAIR, start=500, dura=0, globalTs=1)],
                key=lambda r: r.end,
            ),
        )
        assert not diff_traces(a, b).identical
        config = DiffConfig(drop_types=frozenset({int(IntervalType.CLOCKPAIR)}))
        assert diff_traces(a, b, config).identical

    def test_thread_remap(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute", [rec(thread=0), rec(start=300, thread=1)])
        b = make_ivl(tmp_path / "b.ute", [rec(thread=1), rec(start=300, thread=0)])
        assert not diff_traces(a, b).identical
        config = DiffConfig(thread_map=((0, 1), (1, 0)))
        assert diff_traces(a, b, config).identical

    def test_cross_format_ute_vs_slog(self, tmp_path):
        recs = records()
        a = make_ivl(tmp_path / "a.ute", recs)
        b = make_slog(tmp_path / "b.slog", recs)
        assert diff_traces(a, b, DiffConfig(ignore_pseudo=True)).identical

    def test_raw_vs_interval_rejected(self, tmp_path, corpus):
        a = corpus.path("good.raw")
        b = make_ivl(tmp_path / "b.ute")
        with pytest.raises(FormatError, match="cannot diff"):
            diff_traces(a, b)

    def test_raw_self_diff(self, corpus):
        report = diff_traces(corpus.path("good.raw"), corpus.path("good.raw"))
        assert report.identical
        assert report.kind_a == report.kind_b == "raw"
        assert report.compared > 0

    def test_report_dict_shape(self, tmp_path):
        a = make_ivl(tmp_path / "a.ute")
        doc = diff_traces(a, a).as_dict()
        assert doc["identical"] is True
        assert doc["a"]["records"] == doc["b"]["records"] == 30
        assert doc["config"]["time_slack"] == 0
        assert doc["first_divergence"] is None

    def test_self_diff_rate_floor(self, tmp_path):
        """``ute-diff`` is a routine CI gate only while it stays linear: a
        40 000-record self-diff must run above 2 000 records/s, far below
        interpreter speed but above what a pairing loop gone quadratic
        reaches at this size."""
        path = tmp_path / "big.slog"
        write_big_slog(path, n_nodes=2, threads_per_node=4, n_records=40_000)
        t0 = time.perf_counter()
        report = diff_traces(path, path)
        elapsed = time.perf_counter() - t0
        assert report.identical and report.compared == 40_000
        assert report.compared / elapsed > 2_000, (
            f"{report.compared} records in {elapsed:.2f}s"
        )


class TestDiffCli:
    def test_exit_0_identical(self, tmp_path, capsys):
        a = make_ivl(tmp_path / "a.ute")
        assert main_diff([str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_exit_1_divergent_with_first_divergence(self, tmp_path, capsys):
        a = make_ivl(tmp_path / "a.ute")
        b = rewrite_with(
            a, tmp_path / "b.ute",
            lambda i, r: dataclasses.replace(r, start=r.start + 1, duration=r.duration - 1)
            if i == 0 else r,
        )
        assert main_diff([str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence: record 0 field 'start'" in out

    def test_exit_2_on_missing_input(self, capsys):
        assert main_diff(["nope.ute", "also-nope.ute"]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_2_on_incompatible_kinds(self, tmp_path, corpus, capsys):
        b = make_ivl(tmp_path / "b.ute")
        assert main_diff([str(corpus.path("good.raw")), str(b)]) == 2

    def test_exit_2_on_bad_thread_map(self, tmp_path, capsys):
        a = make_ivl(tmp_path / "a.ute")
        assert main_diff([str(a), str(a), "--map-thread", "zap"]) == 2

    def test_json_report(self, tmp_path, capsys):
        a = make_ivl(tmp_path / "a.ute")
        assert main_diff([str(a), str(a), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["identical"] is True

    def test_cli_slack_and_ignore_flags(self, tmp_path, capsys):
        a = make_ivl(tmp_path / "a.ute", [rec(SEND, start=0, dura=10, msgSizeSent=8, seqno=1)])
        b = make_ivl(tmp_path / "b.ute", [rec(SEND, start=1, dura=9, msgSizeSent=8, seqno=2)])
        assert main_diff([str(a), str(b)]) == 1
        capsys.readouterr()
        assert main_diff(
            [str(a), str(b), "--slack", "1", "--ignore-field", "seqno"]
        ) == 0


class TestStatsServeParity:
    """Regression: ute-stats must use the file's own tick rate and thread
    table, exactly like the serving daemon does (pre-fix it hardcoded 1e9
    and no thread table, so ``task``-based tables silently emptied and
    times were unit-skewed on non-nanosecond files)."""

    PROGRAM = (
        'table name=par x=("task", task) '
        'y=("busy", dura, sum) y=("pieces", dura, count)\n'
    )

    def test_cli_matches_serve_on_microsecond_file(self, tmp_path, capsys):
        path = make_slog(tmp_path / "m.slog", ticks_per_sec=1e6)
        program = tmp_path / "p.stats"
        program.write_text(self.PROGRAM)
        assert main_stats(
            [str(path), "--program", str(program), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        cli_rows = doc["tables"]["par"]["rows"]
        with ServerThread(path, ServerConfig(port=0)) as srv:
            response = ServeClient(srv.base_url).request(
                "/api/stats?format=json&table=" + urllib.parse.quote(self.PROGRAM)
            )
            assert response.status == 200
            served = response.json()["tables"][0]["rows"]
        assert cli_rows  # pre-fix: empty (no thread table -> no task field)
        assert cli_rows == served
        # Durations in seconds at the file's 1e6 tick rate: 15 records per
        # task x 150 ticks = 2250 us, not the 1e9-skewed 2.25e-6.
        busy = {row[0]: row[1] for row in cli_rows}
        assert busy[0] == busy[1] == pytest.approx(15 * 150 / 1e6)

    def test_default_tables_use_file_tick_rate(self, tmp_path, capsys):
        path = make_slog(tmp_path / "d.slog", ticks_per_sec=1e6)
        assert main_stats([str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["tables"]["duration_by_type"]["rows"]
        total = {row[0]: row[2] for row in rows}
        assert total[int(IntervalType.RUNNING)] == pytest.approx(30 * 150 / 1e6)

    def test_mixed_tick_rates_rejected(self, tmp_path, capsys):
        a = make_slog(tmp_path / "a.slog", ticks_per_sec=1e9)
        b = make_slog(tmp_path / "b.slog", ticks_per_sec=1e6)
        assert main_stats([str(a), str(b), "--json"]) == 2
        assert "ticks_per_sec" in capsys.readouterr().err
