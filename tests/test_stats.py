"""Tests for the statistics utility: aggregation, TSV output, pre-defined
tables."""

import pytest

import json
from pathlib import Path

from repro import cli
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.errors import StatsError
from repro.query.columnar import batch_from_records
from repro.utils.statlang import parse_program
from repro.utils.stats import (
    StatsTable,
    generate_tables,
    predefined_program,
    predefined_tables,
    record_env,
)

DATA_DIR = Path(__file__).parent / "data"


def rec(itype=IntervalType.RUNNING, bebits=BeBits.COMPLETE, start=0, dura=100,
        node=0, cpu=0, thread=0, **extra):
    return IntervalRecord(itype, bebits, start, dura, node, cpu, thread, extra)


SEND = IntervalType.for_mpi_fn(0)


class TestRecordEnv:
    def test_times_in_seconds(self):
        env = record_env(rec(start=2_500_000_000, dura=500_000_000), 1e9)
        assert env["start"] == 2.5
        assert env["dura"] == 0.5

    def test_type_and_bebits_synthesized(self):
        env = record_env(rec(itype=SEND, bebits=BeBits.BEGIN), 1e9)
        assert env["type"] == SEND
        assert env["bebits"] == 1

    def test_extra_fields_passed_through(self):
        env = record_env(rec(itype=SEND, msgSizeSent=4096, localStart=10**9), 1e9)
        assert env["msgSizeSent"] == 4096
        assert env["localStart"] == 1.0  # time-valued extra also in seconds


class TestAggregation:
    RECORDS = [
        rec(node=0, dura=100),
        rec(node=0, dura=300),
        rec(node=1, dura=500),
    ]

    def run_one(self, ys):
        program = f'table name=t x=("node", node) {ys}'
        (table,) = generate_tables([batch_from_records(self.RECORDS)], program, ticks_per_sec=1.0)
        return table

    def test_sum(self):
        table = self.run_one('y=("s", dura, sum)')
        assert table.rows == {(0,): (400.0,), (1,): (500.0,)}

    def test_avg(self):
        table = self.run_one('y=("a", dura, avg)')
        assert table.rows[(0,)] == (200.0,)

    def test_count(self):
        table = self.run_one('y=("c", dura, count)')
        assert table.rows == {(0,): (2,), (1,): (1,)}

    def test_min_max(self):
        table = self.run_one('y=("lo", dura, min) y=("hi", dura, max)')
        assert table.rows[(0,)] == (100.0, 300.0)

    def test_condition_filters(self):
        program = 'table name=t condition=(dura > 200) x=("node", node) y=("c", dura, count)'
        (table,) = generate_tables([batch_from_records(self.RECORDS)], program, ticks_per_sec=1.0)
        assert table.rows == {(0,): (1,), (1,): (1,)}

    def test_multiple_tables_one_pass(self):
        program = """
        table name=a x=("node", node) y=("c", dura, count)
        table name=b x=("one", 1) y=("total", dura, sum)
        """
        a, b = generate_tables([batch_from_records(self.RECORDS)], program, ticks_per_sec=1.0)
        assert a.name == "a" and len(a.rows) == 2
        assert b.rows == {(1,): (900.0,)}

    def test_records_missing_fields_skipped(self):
        """A table over msgSizeSent only sees records that carry it."""
        records = [rec(), rec(itype=SEND, msgSizeSent=1024)]
        program = 'table name=t x=("n", node) y=("bytes", msgSizeSent, sum)'
        (table,) = generate_tables([batch_from_records(records)], program, ticks_per_sec=1.0)
        assert table.rows == {(0,): (1024.0,)}

    def test_string_program_parsed(self):
        (table,) = generate_tables(
            [batch_from_records(self.RECORDS)], 'table name=t x=("n", node) y=("c", dura, count)',
            ticks_per_sec=1.0,
        )
        assert isinstance(table, StatsTable)


class TestTsvOutput:
    def test_header_and_rows(self):
        records = [rec(node=1, dura=100), rec(node=0, dura=50)]
        (table,) = generate_tables(
            [batch_from_records(records)], 'table name=t x=("node", node) y=("sum", dura, sum)',
            ticks_per_sec=1.0,
        )
        tsv = table.to_tsv()
        lines = tsv.strip().split("\n")
        assert lines[0] == "node\tsum"
        assert lines[1] == "0\t50"  # sorted by x tuple
        assert lines[2] == "1\t100"

    def test_write_creates_file(self, tmp_path):
        records = [rec()]
        (table,) = generate_tables(
            [batch_from_records(records)], 'table name=t x=("n", node) y=("c", dura, count)',
            ticks_per_sec=1.0,
        )
        path = table.write(tmp_path / "t.tsv")
        assert path.read_text().startswith("n\tc\n")

    def test_column_accessor(self):
        records = [rec(node=0), rec(node=1)]
        (table,) = generate_tables(
            [batch_from_records(records)], 'table name=t x=("n", node) y=("c", dura, count) y=("s", dura, sum)',
            ticks_per_sec=1.0,
        )
        assert table.column("c") == {(0,): 1, (1,): 1}


class TestPredefinedTables:
    def make_records(self):
        return [
            # Running: not interesting.
            rec(start=0, dura=10**9),
            # MPI on two nodes.
            rec(itype=SEND, node=0, start=10**8, dura=10**8, msgSizeSent=4096, seqno=1),
            rec(itype=SEND, node=0, start=5 * 10**8, dura=10**8, msgSizeSent=2048, seqno=2),
            rec(itype=IntervalType.for_mpi_fn(1), node=1, start=2 * 10**8, dura=10**8,
                msgSizeRecv=4096, seqno=1),
            # A split call: begin+end pieces must count once.
            rec(itype=IntervalType.for_mpi_fn(6), node=1, bebits=BeBits.BEGIN,
                start=7 * 10**8, dura=10**7),
            rec(itype=IntervalType.for_mpi_fn(6), node=1, bebits=BeBits.END,
                start=8 * 10**8, dura=10**7),
        ]

    def test_all_four_tables_produced(self):
        tables = predefined_tables([batch_from_records(self.make_records())], total_seconds=1.0)
        assert [t.name for t in tables] == [
            "interesting_by_node_bin",
            "duration_by_type",
            "calls_by_node_type",
            "bytes_by_node",
        ]

    def test_interesting_excludes_running(self):
        tables = predefined_tables([batch_from_records(self.make_records())], total_seconds=1.0)
        binned = tables[0]
        total_interesting = sum(v[0] for v in binned.rows.values())
        assert total_interesting == pytest.approx(0.32)  # MPI only, no Running

    def test_calls_counted_by_bebits(self):
        """Begin + end pieces of one call count as ONE call — the purpose
        of the bebits (section 1.2)."""
        tables = predefined_tables([batch_from_records(self.make_records())], total_seconds=1.0)
        calls = tables[2].column("calls")
        barrier_type = IntervalType.for_mpi_fn(6)
        assert calls[(1, barrier_type)] == 1

    def test_bytes_by_node(self):
        tables = predefined_tables([batch_from_records(self.make_records())], total_seconds=1.0)
        bytes_table = tables[3]
        assert bytes_table.column("bytesSent")[(0,)] == 4096 + 2048
        assert bytes_table.column("messages")[(0,)] == 2

    def test_bad_total_rejected(self):
        with pytest.raises(StatsError):
            predefined_tables([], total_seconds=0)


class TestShortRuns:
    """A run shorter than 100 µs has a total whose ``repr`` takes an
    exponent, which the table language's numbers do not have."""

    @pytest.mark.parametrize("total", [2.2e-05, 1e-07, 1e16, 0.0565, 1.0])
    def test_the_bin_edge_is_the_total(self, total):
        (table, *_) = parse_program(predefined_program(total))
        (_, _), (_, edges) = table.xs
        assert edges.hi.value == total
        assert isinstance(edges.hi.value, float)

    def test_stats_over_a_short_run(self, capsys):
        assert cli.main_stats(["--json", str(DATA_DIR / "good.ute")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] > 0 and doc["tables"]["interesting_by_node_bin"]["rows"]

    def test_report_over_a_short_run(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        assert cli.main_report([str(DATA_DIR / "good.slog"), "-o", str(out)]) == 0
        assert "interesting_by_node_bin" in out.read_text()
