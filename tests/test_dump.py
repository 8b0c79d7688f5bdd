"""Tests for the dump utility and the type-activity view."""

import pytest

from repro.core import standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.errors import FormatError
from repro.utils.dump import dump_any, dump_interval, dump_raw, dump_slog, format_record
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.workloads import run_pingpong

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dump")
    run = run_pingpong(tmp / "raw")
    conv = convert_traces(run.raw_paths, tmp / "ivl")
    merged = merge_interval_files(
        conv.interval_paths, tmp / "m.ute", PROFILE, slog_path=tmp / "r.slog"
    )
    return {
        "raw": run.raw_paths[0],
        "interval": conv.interval_paths[0],
        "merged": merged.merged_path,
        "slog": merged.slog_path,
    }


class TestDumpRaw:
    def test_header_and_events(self, artifacts):
        lines = list(dump_raw(artifacts["raw"]))
        assert lines[0].startswith("# raw trace node=0")
        assert any("MPI_Send:begin" in l for l in lines)
        assert any("DISPATCH" in l for l in lines)

    def test_limit(self, artifacts):
        lines = list(dump_raw(artifacts["raw"], limit=5))
        assert len(lines) == 7  # header + 5 + truncation marker
        assert lines[-1].startswith("# ... truncated")


class TestDumpInterval:
    def test_tables_and_records(self, artifacts):
        lines = list(dump_interval(artifacts["interval"], PROFILE))
        text = "\n".join(lines)
        assert "# interval file profile=" in text
        assert "# threads (" in text
        assert "# markers (" in text
        assert "pingpong:size-sweep" in text
        assert "MPI_Recv" in text
        assert "n0 cpu" in text

    def test_profile_names_every_type(self, artifacts):
        """No line falls back to the unnamed 'typeN' form — the profile
        describes everything (the self-defining claim)."""
        lines = list(dump_interval(artifacts["merged"], PROFILE))
        assert not any(" type1 " in l or " type9 " in l for l in lines)


class TestDumpSlog:
    def test_frame_index_listed(self, artifacts):
        lines = list(dump_slog(artifacts["slog"]))
        assert lines[0].startswith("# SLOG frames=")
        assert any(l.startswith("# frame 0:") for l in lines)

    def test_limit(self, artifacts):
        lines = list(dump_slog(artifacts["slog"], limit=3))
        records = [l for l in lines if not l.startswith("#")]
        assert len(records) == 3


class TestDumpAny:
    @pytest.mark.parametrize("kind", ["raw", "interval", "slog"])
    def test_dispatch_by_magic(self, artifacts, kind):
        lines = list(dump_any(artifacts[kind], PROFILE, limit=2))
        assert lines

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"GARBAGE!" * 4)
        with pytest.raises(FormatError, match="unrecognized magic"):
            list(dump_any(path, PROFILE))

    def test_cli(self, artifacts, capsys):
        from repro import cli

        assert cli.main_dump([str(artifacts["interval"]), "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "# interval file" in out


def test_format_record_unknown_type_falls_back():
    record = IntervalRecord(999, BeBits.COMPLETE, 0, 10, 0, 0, 0)
    assert "type999" in format_record(record, PROFILE)


class TestTypeActivityView:
    def test_one_row_per_type(self, artifacts):
        from repro.viz.jumpshot import Jumpshot

        viewer = Jumpshot(artifacts["slog"])
        view = viewer.build_view(viewer.batch(viewer.slog.frames), "type")
        labels = {row.label for row in view.rows}
        assert "MPI_Send" in labels
        assert "MPI_Recv" in labels
        assert "pingpong:size-sweep" in labels
        # Bars are colored by thread.
        all_keys = {b.key for row in view.rows for b in row.bars}
        assert all(k[0] == "thread" for k in all_keys)

    def test_renders(self, artifacts):
        from repro.viz.jumpshot import Jumpshot

        viewer = Jumpshot(artifacts["slog"])
        assert "Type-activity view" in viewer.view_svg_window(None, None, kind="type")
