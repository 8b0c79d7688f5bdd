"""Tests for the section 5 extension: disk model, I/O and page-fault
tracing, and their flow through convert/merge/stats/views."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.cluster.disk import Disk, DiskSpec
from repro.cluster.engine import Engine
from repro.core import IntervalReader, standard_profile
from repro.core.records import BeBits, IntervalType
from repro.query.columnar import batch_from_records
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.stats import generate_tables
from repro.workloads import run_ioheavy
from repro.workloads.ioheavy import IoHeavyConfig

PROFILE = standard_profile()


class TestDiskModel:
    def test_service_time_has_seek_plus_transfer(self):
        spec = DiskSpec(seek_ns=1000, bytes_per_ns=1.0)
        assert spec.service_ns(500) == 1500

    def test_single_request_completes_after_service(self):
        eng = Engine()
        disk = Disk(eng, 0, DiskSpec(seek_ns=1000, bytes_per_ns=1.0))
        fut = disk.submit(500)
        eng.run()
        assert fut.done
        assert eng.now == 1500

    def test_requests_serialize_fifo(self):
        eng = Engine()
        disk = Disk(eng, 0, DiskSpec(seek_ns=1000, bytes_per_ns=1.0))
        done = []
        disk.submit(0).add_callback(lambda f: done.append(("a", eng.now)))
        disk.submit(0).add_callback(lambda f: done.append(("b", eng.now)))
        eng.run()
        assert done == [("a", 1000), ("b", 2000)]

    def test_counters(self):
        eng = Engine()
        disk = Disk(eng, 0, DiskSpec(seek_ns=100, bytes_per_ns=1.0))
        disk.submit(900)
        eng.run()
        assert disk.requests == 1
        assert disk.bytes_moved == 900
        assert disk.utilization(eng.now) == pytest.approx(1.0)

    def test_negative_size_rejected(self):
        eng = Engine()
        disk = Disk(eng, 0)
        with pytest.raises(ValueError):
            disk.submit(-1)


@pytest.fixture(scope="module")
def io_pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("io")
    config = IoHeavyConfig(phases=2)
    run = run_ioheavy(tmp / "raw", config)
    conv = convert_traces(run.raw_paths, tmp / "ivl")
    merged = merge_interval_files(
        conv.interval_paths, tmp / "merged.ute", PROFILE, slog_path=tmp / "run.slog"
    )
    return {"run": run, "conv": conv, "merged": merged, "tmp": tmp, "config": config}


class TestIoTracing:
    def test_io_states_converted(self, io_pipeline):
        reader = IntervalReader(io_pipeline["merged"].merged_path, PROFILE)
        io_records = [r for r in reader.intervals() if r.itype == IntervalType.IO]
        assert io_records
        # 4 tasks x (1 read + 2 writes), counting calls via bebits.
        calls = [
            r for r in io_records
            if r.bebits in (BeBits.COMPLETE, BeBits.BEGIN)
        ]
        assert len(calls) == 4 * 3

    def test_io_fields_recorded(self, io_pipeline):
        config = io_pipeline["config"]
        reader = IntervalReader(io_pipeline["merged"].merged_path, PROFILE)
        io_records = [r for r in reader.intervals() if r.itype == IntervalType.IO]
        reads = [r for r in io_records if r.extra["ioWrite"] == 0]
        writes = [r for r in io_records if r.extra["ioWrite"] == 1]
        assert {r.extra["ioBytes"] for r in reads} == {config.read_bytes}
        assert {r.extra["ioBytes"] for r in writes} == {config.write_bytes}

    def test_io_wall_span_includes_disk_service(self, io_pipeline):
        """A 1 MiB write on a 20 MB/s disk holds its I/O state open for
        >= ~57 ms of wall time.  The thread is *blocked* for most of it, so
        the on-CPU piece durations are tiny — the state's wall span (begin
        piece start to end piece end) is what carries the disk time, which
        is exactly why interval pieces + bebits matter."""
        config = io_pipeline["config"]
        reader = IntervalReader(io_pipeline["merged"].merged_path, PROFILE)
        min_service = DiskSpec().service_ns(config.write_bytes)
        spans = []
        on_cpu = []
        open_start: dict[tuple, int] = {}
        for r in reader.intervals():
            if r.itype != IntervalType.IO or r.extra["ioWrite"] != 1:
                continue
            key = (r.node, r.thread)
            if r.bebits is BeBits.COMPLETE:
                spans.append(r.duration)
            elif r.bebits is BeBits.BEGIN:
                open_start[key] = r.start
            elif r.bebits is BeBits.END and key in open_start:
                spans.append(r.end - open_start.pop(key))
            on_cpu.append(r.duration)
        assert spans
        assert all(span >= min_service * 0.95 for span in spans)
        # And the on-CPU time is a small fraction of the span: the call was
        # split into pieces around a long blocked gap.
        assert sum(on_cpu) < 0.2 * sum(spans)

    def test_shared_disk_serializes_io(self, io_pipeline):
        """Two tasks per node: their simultaneous checkpoints queue, so one
        task's write state lasts noticeably longer than a lone write."""
        config = io_pipeline["config"]
        reader = IntervalReader(io_pipeline["merged"].merged_path, PROFILE)
        service = DiskSpec().service_ns(config.write_bytes)
        # Group write-state durations per (node, thread, begin-time cluster).
        durations = []
        open_start: dict[tuple, int] = {}
        for r in reader.intervals():
            if r.itype != IntervalType.IO or r.extra["ioWrite"] != 1:
                continue
            key = (r.node, r.thread)
            if r.bebits is BeBits.COMPLETE:
                durations.append(r.duration)
            elif r.bebits is BeBits.BEGIN:
                open_start[key] = r.start
            elif r.bebits is BeBits.END and key in open_start:
                durations.append(r.end - open_start.pop(key))
        assert durations
        # The queued writer waits ~2x service.
        assert max(durations) > 1.6 * service

    def test_page_faults_converted(self, io_pipeline):
        config = io_pipeline["config"]
        reader = IntervalReader(io_pipeline["merged"].merged_path, PROFILE)
        faults = [
            r for r in reader.intervals() if r.itype == IntervalType.PAGEFAULT
        ]
        calls = [r for r in faults if r.bebits in (BeBits.COMPLETE, BeBits.BEGIN)]
        assert len(calls) == 4 * config.phases * config.page_faults_per_phase

    def test_stats_language_sees_extension_fields(self, io_pipeline):
        reader = IntervalReader(io_pipeline["merged"].merged_path, PROFILE)
        records = list(reader.intervals())
        program = """
        table name=io_by_node
              condition=(ioBytes > 0 and (bebits == 0 or bebits == 1))
              x=("node", node)
              y=("bytes", ioBytes, sum)
              y=("ops", ioBytes, count)
        """
        (table,) = generate_tables([batch_from_records(records)], program)
        assert table.rows
        config = io_pipeline["config"]
        total_bytes = sum(v[0] for v in table.rows.values())
        expected = 4 * (config.read_bytes + config.phases * config.write_bytes)
        assert total_bytes == expected

    def test_views_show_extension_states(self, io_pipeline):
        from repro.viz.jumpshot import Jumpshot

        viewer = Jumpshot(io_pipeline["merged"].slog_path)
        view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")
        assert IntervalType.IO in view.key_names
        assert view.key_names[IntervalType.IO] == "FileIO"
        assert IntervalType.PAGEFAULT in view.key_names
        assert "FileIO" in viewer.view_svg_window(None, None, kind="thread")

    def test_compute_with_faults_zero_faults(self, tmp_path):
        """No faults -> plain compute, no PageFault states."""
        from repro.workloads.ioheavy import IoHeavyConfig

        run = run_ioheavy(
            tmp_path / "raw",
            IoHeavyConfig(phases=1, page_faults_per_phase=0),
        )
        conv = convert_traces(run.raw_paths, tmp_path / "ivl")
        for p in conv.interval_paths:
            reader = IntervalReader(p, PROFILE)
            assert all(
                r.itype != IntervalType.PAGEFAULT for r in reader.intervals()
            )
