"""Integration tests: the full Figure 2 pipeline, end to end, with
cross-layer invariants checked on real traced runs."""

import pytest

from repro.core import IntervalReader, standard_profile
from repro.core.records import BeBits, IntervalType
from repro.query.columnar import batch_from_records
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.slog import SlogFile
from repro.utils.stats import predefined_tables
from repro.viz.arrows import match_arrows
from repro.viz.jumpshot import Jumpshot
from repro.workloads import run_pingpong, run_stencil
from repro.workloads.pingpong import PingPongConfig
from repro.workloads.stencil import StencilConfig

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Trace -> convert -> merge+SLOG on a ping-pong run."""
    tmp = tmp_path_factory.mktemp("pipeline")
    run = run_pingpong(tmp / "raw", PingPongConfig(repeats=4, sizes=(512, 8192)))
    conv = convert_traces(run.raw_paths, tmp / "ivl", frame_bytes=2048)
    merged = merge_interval_files(
        conv.interval_paths, tmp / "merged.ute", PROFILE,
        slog_path=tmp / "run.slog", frame_bytes=2048,
    )
    return {"run": run, "conv": conv, "merged": merged, "tmp": tmp}


class TestPipelineInvariants:
    def test_merged_order_and_cleanliness(self, pipeline):
        reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        records = list(reader.intervals())
        ends = [r.end for r in records]
        assert ends == sorted(ends)
        assert all(r.itype != IntervalType.CLOCKPAIR for r in records)

    def test_every_record_has_thread_entry(self, pipeline):
        reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        for record in reader.intervals():
            entry = reader.thread_table.lookup(record.node, record.thread)
            assert entry.node == record.node

    def test_time_conservation_per_thread(self, pipeline):
        """Per thread, the sum of piece durations in the merged file equals
        the sum in the per-node files (after ratio adjustment, to sub-ppm)."""
        merged_reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        merged_total = {}
        for r in merged_reader.intervals():
            key = (r.node, r.thread)
            merged_total[key] = merged_total.get(key, 0) + r.duration
        for path, adj in zip(
            pipeline["conv"].interval_paths, pipeline["merged"].adjustments
        ):
            reader = IntervalReader(path, PROFILE)
            for r in reader.intervals():
                if r.itype == IntervalType.CLOCKPAIR:
                    continue
                key = (r.node, r.thread)
                merged_total[key] -= adj.adjust(r.end) - adj.adjust(r.start)
        for key, residue in merged_total.items():
            assert abs(residue) <= 4, (key, residue)

    def test_bebits_balance_in_merged_stream(self, pipeline):
        """Per (node, thread, type): BEGIN and END pieces balance, and no
        CONTINUATION appears outside an open state (ignoring zero-duration
        pseudo lead-ins, which are by design repeats)."""
        reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        open_count = {}
        for r in reader.intervals():
            key = (r.node, r.thread, r.itype, r.extra.get("markerId", 0))
            if r.bebits is BeBits.BEGIN:
                assert open_count.get(key, 0) == 0, f"nested same-state begin {key}"
                open_count[key] = 1
            elif r.bebits is BeBits.END:
                assert open_count.get(key, 0) == 1, f"end without begin {key}"
                open_count[key] = 0
            elif r.bebits is BeBits.CONTINUATION and r.duration > 0:
                assert open_count.get(key, 0) == 1, f"orphan continuation {key}"
        assert all(v == 0 for v in open_count.values())

    def test_arrows_match_every_user_message(self, pipeline):
        reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        records = list(reader.intervals())
        arrows = match_arrows(batch_from_records(records))
        # 4 repeats x 2 sizes x 2 directions = 16 messages.
        assert len(arrows) == 16
        for arrow in arrows:
            assert arrow.recv_time >= arrow.send_time
            assert arrow.src_row != arrow.dst_row

    def test_slog_agrees_with_merged_file(self, pipeline):
        reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        slog = SlogFile(pipeline["merged"].slog_path)
        merged_records = list(reader.intervals())
        slog_real = [
            r for r in slog.records()
            if not (r.duration == 0 and r.bebits is BeBits.CONTINUATION)
        ]
        # Compare multisets of (type, start, duration, node, thread).
        sig = lambda rs: sorted(
            (r.itype, r.start, r.duration, r.node, r.thread) for r in rs
        )
        # Merged file contains its own pseudo-intervals too; strip the same way.
        merged_real = [
            r for r in merged_records
            if not (r.duration == 0 and r.bebits is BeBits.CONTINUATION)
        ]
        assert sig(slog_real) == sig(merged_real)

    def test_stats_over_pipeline(self, pipeline):
        reader = IntervalReader(pipeline["merged"].merged_path, PROFILE)
        records = list(reader.intervals())
        total_s = reader.totals()[2] / 1e9
        tables = predefined_tables([batch_from_records(records)], total_seconds=total_s)
        bytes_table = next(t for t in tables if t.name == "bytes_by_node")
        # 4 repeats x (512 + 8192) bytes sent per node.
        expected = 4 * (512 + 8192)
        for (node,), (sent, count) in bytes_table.rows.items():
            assert sent == expected
            assert count == 8

    def test_jumpshot_views_render(self, pipeline):
        viewer = Jumpshot(pipeline["merged"].slog_path)
        for kind in ("thread", "processor", "thread-connected"):
            assert len(viewer.view_svg_window(None, None, kind=kind)) > 500


class TestCliPipeline:
    def test_full_cli_flow(self, tmp_path, capsys, monkeypatch):
        """Drive the whole pipeline through the CLI entry points."""
        from repro import cli

        monkeypatch.chdir(tmp_path)
        assert cli.main_trace(["pingpong", "-o", "raw"]) == 0
        raw = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(raw) == 2

        assert cli.main_convert([*raw, "-o", "ivl"]) == 0
        intervals = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(intervals) == 2

        assert cli.main_slogmerge([*intervals, "-o", "merged.ute", "--slog", "run.slog"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("merged.ute")
        assert out[1].endswith("run.slog")

        assert cli.main_stats(["merged.ute", "-o", "stats", "--svg"]) == 0
        stats_out = capsys.readouterr().out
        assert "interesting_by_node_bin.tsv" in stats_out

        assert cli.main_preview(["run.slog", "-o", "preview.svg"]) == 0
        capsys.readouterr()

        assert cli.main_view(["run.slog", "--kind", "thread", "-o", "view.svg"]) == 0
        capsys.readouterr()
        assert (tmp_path / "view.svg").exists()

        assert cli.main_view(["run.slog", "--ansi"]) == 0
        ansi = capsys.readouterr().out
        assert "Thread-activity view" in ansi

    def test_cli_merge_thread_selection(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.chdir(tmp_path)
        cli.main_trace(["stencil", "-o", "raw"])
        raw = [l for l in capsys.readouterr().out.splitlines() if l]
        cli.main_convert([*raw, "-o", "ivl"])
        intervals = [l for l in capsys.readouterr().out.splitlines() if l]
        assert cli.main_merge([*intervals, "-o", "mpi.ute", "--threads", "mpi"]) == 0
        capsys.readouterr()
        reader = IntervalReader(tmp_path / "mpi.ute", PROFILE)
        assert all(e.thread_type == 0 for e in reader.thread_table)

    def test_cli_view_frame_at(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.chdir(tmp_path)
        cli.main_trace(["flash", "--iterations", "10", "-o", "raw"])
        raw = [l for l in capsys.readouterr().out.splitlines() if l]
        cli.main_convert([*raw, "-o", "ivl"])
        intervals = [l for l in capsys.readouterr().out.splitlines() if l]
        cli.main_slogmerge([*intervals, "-o", "m.ute", "--slog", "r.slog"])
        capsys.readouterr()
        slog = SlogFile(tmp_path / "r.slog")
        mid = slog.time_range[1] / 2 / slog.ticks_per_sec
        assert cli.main_view(["r.slog", "--at", str(mid), "-o", "frame.svg"]) == 0
        assert (tmp_path / "frame.svg").exists()
