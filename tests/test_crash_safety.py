"""Crash injection: killed writers must never leave a partial final file.

Every writer commits via write-to-temp + fsync + atomic rename
(core/atomicio.py), so a process dying mid-write — simulated here by
forking and ``os._exit`` with no cleanup — leaves either no output or the
complete, valid output; anything else on disk is a recognizable temp
artifact (``is_temp_artifact``) a sweeper may delete.
"""

import errno
import os

import pytest

from repro.core import IntervalFileWriter, IntervalReader, standard_profile
from repro.core.atomicio import AtomicFile, atomic_write_bytes, is_temp_artifact, temp_path_for
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.utils.merge import merge_interval_files
from repro.utils.slog import SlogFile, SlogWriter
from repro.utils.stats import StatsTable
from repro.viz.interactive import render_interactive_html
from repro.viz.report import HtmlReport
from repro.viz.statviewer import render_table_svg
from repro.viz.views import TimelineBar, TimelineRow, TimelineView

PROFILE = standard_profile()
TABLE = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])


def _record(i: int) -> IntervalRecord:
    return IntervalRecord(
        IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 50, 0, 0, 0
    )


def _run_in_child(fn) -> int:
    """Fork, run ``fn`` in the child (which must ``os._exit``), and return
    the child's exit status."""
    pid = os.fork()
    if pid == 0:
        try:
            fn()
        finally:
            os._exit(1)  # fn is expected to _exit itself; never fall through
    _pid, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _leftovers(directory) -> list:
    return sorted(p.name for p in directory.iterdir())


class TestAtomicFile:
    def test_commit_is_atomic(self, tmp_path):
        target = tmp_path / "out.bin"
        fh = AtomicFile(target)
        fh.write(b"payload")
        assert not target.exists()  # nothing visible before commit
        fh.commit()
        assert target.read_bytes() == b"payload"
        assert _leftovers(tmp_path) == ["out.bin"]  # temp gone

    def test_abort_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.bin"
        fh = AtomicFile(target)
        fh.write(b"partial")
        fh.abort()
        assert _leftovers(tmp_path) == []

    def test_context_manager_aborts_on_exception(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with AtomicFile(target) as fh:
                fh.write(b"partial")
                raise RuntimeError("boom")
        assert _leftovers(tmp_path) == []

    def test_write_after_commit_rejected(self, tmp_path):
        fh = AtomicFile(tmp_path / "out.bin")
        fh.commit()
        with pytest.raises(FormatError):
            fh.write(b"late")

    def test_temp_artifacts_are_recognizable(self, tmp_path):
        temp = temp_path_for(tmp_path / "out.bin")
        assert is_temp_artifact(temp)
        assert not is_temp_artifact(tmp_path / "out.bin")
        assert str(os.getpid()) in temp.name  # no cross-process collisions

    def test_atomic_write_bytes(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"x" * 100)
        assert target.read_bytes() == b"x" * 100
        assert _leftovers(tmp_path) == ["blob.bin"]


def _fail_midway(self, data):
    """``AtomicFile.write`` on a full disk: half the bytes, then ENOSPC."""
    self._require().write(data[: len(data) // 2])
    raise OSError(errno.ENOSPC, "No space left on device")


class TestStatsOutputs:
    """``ute-stats`` publishes its TSV tables and ``--svg`` viewers like
    every other writer: a write that fails midway leaves the previous file
    whole and no temp sibling behind."""

    @pytest.mark.parametrize("write", [
        StatsTable.write,
        lambda table, path: render_table_svg(table, path),
    ], ids=["tsv", "svg"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        table = StatsTable("t", ("n",), ("count",), {(0,): (1,), (1,): (2,)})
        target = tmp_path / "t.out"
        write(table, target)
        before = target.read_bytes()
        table.rows[(2,)] = (5,)
        monkeypatch.setattr(AtomicFile, "write", _fail_midway)
        with pytest.raises(OSError):
            write(table, target)
        assert target.read_bytes() == before
        assert _leftovers(tmp_path) == ["t.out"]


def _report_page(title: str, path) -> None:
    report = HtmlReport(title)
    report.add_text("body")
    report.write(path)


def _interactive_page(title: str, path) -> None:
    view = TimelineView(title, [TimelineRow("t", (0, 0), [TimelineBar(0, 10, "a")])], 0, 10, {"a": "A"})
    render_interactive_html(view, path)


class TestViewerPages:
    """``ute-report``'s HTML and ``ute-view --interactive``'s page publish
    like every other writer: a write that fails midway leaves the previous
    page whole and no temp sibling behind."""

    @pytest.mark.parametrize("write", [_report_page, _interactive_page], ids=["report", "interactive"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        target = tmp_path / "page.html"
        write("first", target)
        before = target.read_bytes()
        monkeypatch.setattr(AtomicFile, "write", _fail_midway)
        with pytest.raises(OSError):
            write("second", target)
        assert target.read_bytes() == before
        assert _leftovers(tmp_path) == ["page.html"]


class TestKilledWriters:
    def test_killed_mid_interval_write(self, tmp_path):
        target = tmp_path / "out.ute"

        def child():
            writer = IntervalFileWriter(
                target, PROFILE, TABLE,
                field_mask=MASK_ALL_PER_NODE, frame_bytes=256,
            )
            for i in range(50):
                writer.write(_record(i))
            os._exit(3)  # die without close()

        assert _run_in_child(child) == 3
        assert not target.exists()
        assert all(is_temp_artifact(tmp_path / n) for n in _leftovers(tmp_path))

    def test_killed_mid_slog_spill(self, tmp_path):
        target = tmp_path / "out.slog"

        def child():
            writer = SlogWriter(
                target, PROFILE, TABLE, field_mask=MASK_ALL_PER_NODE,
                time_range=(0, 10000), frame_bytes=256,
            )
            for i in range(80):
                writer.write(_record(i))  # several frames spilled to disk
            os._exit(3)

        assert _run_in_child(child) == 3
        assert not target.exists()
        assert all(is_temp_artifact(tmp_path / n) for n in _leftovers(tmp_path))

    def test_killed_mid_merge(self, tmp_path):
        inputs = []
        for node in range(2):
            path = tmp_path / f"node{node}.ute"
            table = ThreadTable([ThreadEntry(0, 1, 1, node, 0, 0, "t")])
            with IntervalFileWriter(
                path, PROFILE, table,
                field_mask=MASK_ALL_PER_NODE, frame_bytes=256,
            ) as writer:
                for i in range(40):
                    writer.write(
                        IntervalRecord(
                            IntervalType.RUNNING, BeBits.COMPLETE,
                            i * 100, 50, node, 0, 0,
                        )
                    )
            inputs.append(path)
        merged = tmp_path / "merged.ute"
        before = _leftovers(tmp_path)

        def child():
            calls = {"n": 0}
            original = IntervalFileWriter.add_frame

            def crashing(self, frame):
                calls["n"] += 1
                if calls["n"] == 3:
                    os._exit(3)  # die mid-merge, output half-written
                return original(self, frame)

            IntervalFileWriter.add_frame = crashing
            merge_interval_files(inputs, merged, PROFILE, frame_bytes=256)
            os._exit(0)  # not reached

        assert _run_in_child(child) == 3
        assert not merged.exists()
        leftovers = [n for n in _leftovers(tmp_path) if n not in before]
        assert all(is_temp_artifact(tmp_path / n) for n in leftovers)

        # Stale temps are ignorable: the same merge re-run normally
        # succeeds and produces a valid file (temp names carry the pid,
        # so the dead child's leftovers never collide).
        result = merge_interval_files(inputs, merged, PROFILE)
        assert merged.exists() and result.records_out >= 80
        with IntervalReader(merged, PROFILE) as reader:
            assert sum(1 for _ in reader.intervals()) == result.records_out

    def test_exception_mid_write_cleans_up(self, tmp_path):
        """The no-fork sibling: an exception inside the writer context
        aborts the temp — no final file, no litter."""
        target = tmp_path / "out.ute"
        with pytest.raises(RuntimeError):
            with IntervalFileWriter(
                target, PROFILE, TABLE, field_mask=MASK_ALL_PER_NODE,
            ) as writer:
                writer.write(_record(0))
                raise RuntimeError("boom")
        assert _leftovers(tmp_path) == []

    def test_exception_mid_slog_cleans_up(self, tmp_path):
        target = tmp_path / "out.slog"
        with pytest.raises(RuntimeError):
            with SlogWriter(
                target, PROFILE, TABLE, field_mask=MASK_ALL_PER_NODE,
                time_range=(0, 10000), frame_bytes=256,
            ) as writer:
                for i in range(80):
                    writer.write(_record(i))
                raise RuntimeError("boom")
        assert _leftovers(tmp_path) == []

    def test_successful_close_replaces_atomically(self, tmp_path):
        """A slow reader holding the *old* bytes is unaffected by a
        concurrent rewrite: rename swaps the directory entry only."""
        target = tmp_path / "out.slog"
        for generation in (10, 20):
            writer = SlogWriter(
                target, PROFILE, TABLE, field_mask=MASK_ALL_PER_NODE,
                time_range=(0, 10000), frame_bytes=256,
            )
            for i in range(generation):
                writer.write(_record(i))
            writer.close()
        with SlogFile(target) as slog:
            assert len(slog.records()) == 20
        assert _leftovers(tmp_path) == ["out.slog"]


class TestKilledLiveWriter:
    """A live writer killed mid-append: the epoch pins what readers see.

    The live protocol's crash window is between ``flush_data`` (durable
    appended bytes) and ``publish`` (the epoch naming them).  A writer
    dying inside that window leaves a torn tail in ``data`` that no epoch
    references — a strict reader must see the previous epoch byte-for-
    byte, and a salvaging reader must find nothing to repair."""

    def test_killed_between_flush_and_publish(self, tmp_path):
        from repro.live import LiveReader
        from repro.live.container import data_path, live_dir_for, read_manifest

        target = tmp_path / "run.slog"

        def child():
            from repro.live import LiveSlogWriter

            writer = LiveSlogWriter(
                target, PROFILE, TABLE, field_mask=MASK_ALL_PER_NODE,
                frame_bytes=256,
            )
            for i in range(20):
                writer.write(_record(i))
            writer.publish(seal=True)  # epoch 1: 20 records visible
            for i in range(20, 40):
                writer.write(_record(i))
            writer.seal_frame()
            writer.flush_data()  # durable bytes the epoch never names
            os._exit(3)

        assert _run_in_child(child) == 3
        live_dir = live_dir_for(target)
        manifest = read_manifest(live_dir)
        assert manifest.seq == 1 and not manifest.finalized
        # The torn tail is really on disk — and really invisible.
        assert data_path(live_dir).stat().st_size > manifest.data_size

        strict = LiveReader(target)
        records = [r for e in strict.frames for r in strict.read_frame(e)]
        assert [
            (r.start, r.duration) for r in records
        ] == [(i * 100, 50) for i in range(20)]
        strict.close()

        salvage = LiveReader(target, errors="salvage")
        seen = [r for e in salvage.frames for r in salvage.read_frame(e)]
        assert seen == records  # zero loss, zero repair
        salvage.close()

    def test_killed_before_first_publish_of_data(self, tmp_path):
        """Dying before any frame is published leaves epoch 0: a valid,
        empty live trace — not an error, not a partial file."""
        from repro.live import LiveReader
        from repro.live.container import live_dir_for, read_manifest

        target = tmp_path / "run.slog"

        def child():
            from repro.live import LiveSlogWriter

            writer = LiveSlogWriter(
                target, PROFILE, TABLE, field_mask=MASK_ALL_PER_NODE,
                frame_bytes=256,
            )
            for i in range(10):
                writer.write(_record(i))
            writer.seal_frame()
            writer.flush_data()
            os._exit(3)

        assert _run_in_child(child) == 3
        assert read_manifest(live_dir_for(target)).seq == 0
        assert not target.exists()
        with LiveReader(target) as reader:
            assert reader.frames == []
