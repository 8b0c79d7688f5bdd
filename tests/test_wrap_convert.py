"""Lenient conversion of wrap-mode (circular buffer) traces, and the
task-aware statistics additions."""

import pytest

from repro.core import IntervalReader, standard_profile
from repro.core.records import IntervalType
from repro.errors import TraceError
from repro.query.columnar import batch_from_records
from repro.tracing import RawTraceReader, TraceOptions
from repro.utils.convert import convert_traces
from repro.utils.validate import validate_interval_file
from repro.workloads import run_pingpong, run_synthetic
from repro.workloads.synthetic import SyntheticConfig

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def wrapped_run(tmp_path_factory):
    """A run traced with a tiny circular buffer: the head of every trace is
    overwritten, so begin events, THREAD_INFOs, and marker defines are lost."""
    tmp = tmp_path_factory.mktemp("wrap")
    run = run_synthetic(
        tmp / "raw",
        SyntheticConfig(rounds=60),
        options=TraceOptions(buffer_bytes=4096, wrap=True),
    )
    # Confirm wrapping actually happened.
    dropped = sum(s.writer.records_dropped for s in run.facility.sessions)
    assert dropped > 0
    return tmp, run


class TestWrapMode:
    def test_strict_conversion_fails(self, wrapped_run):
        tmp, run = wrapped_run
        with pytest.raises(TraceError):
            convert_traces(run.raw_paths, tmp / "strict")

    def test_lenient_conversion_succeeds(self, wrapped_run):
        tmp, run = wrapped_run
        result = convert_traces(run.raw_paths, tmp / "lenient", strict=False)
        assert result.records_written > 0
        for path in result.interval_paths:
            reader = IntervalReader(path, PROFILE)
            records = list(reader.intervals())
            assert records
            ends = [r.end for r in records]
            assert ends == sorted(ends)

    def test_lenient_output_validates(self, wrapped_run):
        tmp, run = wrapped_run
        result = convert_traces(run.raw_paths, tmp / "lv", strict=False)
        for path in result.interval_paths:
            report = validate_interval_file(path, PROFILE)
            assert report.ok, report.summary()

    def test_lost_threads_synthesized(self, wrapped_run):
        tmp, run = wrapped_run
        result = convert_traces(run.raw_paths, tmp / "lt", strict=False)
        synthesized = 0
        for path in result.interval_paths:
            reader = IntervalReader(path, PROFILE)
            synthesized += sum(
                1 for e in reader.thread_table if e.name.startswith("<lost thread")
            )
        # With a 4 KiB buffer every node lost its THREAD_INFOs.
        assert synthesized > 0

    def test_lenient_equals_strict_on_clean_trace(self, tmp_path):
        """Lenient mode must not change anything on an intact trace."""
        run = run_pingpong(tmp_path / "raw")
        a = convert_traces(run.raw_paths, tmp_path / "a", strict=True)
        b = convert_traces(run.raw_paths, tmp_path / "b", strict=False)
        for pa, pb in zip(a.interval_paths, b.interval_paths):
            ra = list(IntervalReader(pa, PROFILE).intervals())
            rb = list(IntervalReader(pb, PROFILE).intervals())
            assert [(r.itype, r.start, r.duration) for r in ra] == [
                (r.itype, r.start, r.duration) for r in rb
            ]


class TestTaskAwareStats:
    @pytest.fixture(scope="class")
    def merged(self, tmp_path_factory):
        from repro.utils.merge import merge_interval_files

        tmp = tmp_path_factory.mktemp("task-stats")
        run = run_synthetic(tmp / "raw", SyntheticConfig(rounds=20))
        conv = convert_traces(run.raw_paths, tmp / "ivl")
        result = merge_interval_files(conv.interval_paths, tmp / "m.ute", PROFILE)
        return IntervalReader(tmp / "m.ute", PROFILE)

    def test_task_field_available(self, merged):
        from repro.utils.stats import generate_tables

        records = list(merged.intervals())
        program = (
            'table name=by_task condition=(task >= 0) '
            'x=("task", task) y=("seconds", dura, sum)'
        )
        (table,) = generate_tables(
            [batch_from_records(records)], program, thread_table=merged.thread_table
        )
        assert set(k[0] for k in table.rows) == {0, 1, 2, 3}

    def test_comm_matrix_predefined(self, merged):
        from repro.utils.stats import predefined_tables

        records = [
            r for r in merged.intervals() if r.itype != IntervalType.CLOCKPAIR
        ]
        total = merged.totals()[2] / 1e9
        tables = predefined_tables(
            [batch_from_records(records)], total_seconds=total,
            thread_table=merged.thread_table,
        )
        matrix = next(t for t in tables if t.name == "comm_matrix")
        # Synthetic pairs ranks (0,1) and (2,3) in both directions.
        assert set(matrix.rows) == {(0, 1), (1, 0), (2, 3), (3, 2)}
        for (src, dst), (bytes_, msgs) in matrix.rows.items():
            assert bytes_ == msgs * 1024

    def test_without_thread_table_no_matrix(self, merged):
        from repro.utils.stats import predefined_tables

        records = [
            r for r in merged.intervals() if r.itype != IntervalType.CLOCKPAIR
        ]
        tables = predefined_tables([batch_from_records(records)], total_seconds=1.0)
        assert all(t.name != "comm_matrix" for t in tables)
