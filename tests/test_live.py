"""Tests for the live-trace subsystem (``repro.live``).

Covers the container protocol (epoch manifests, atomic republish,
extension rule), the live writers (sealed frames, torn-tail invisibility,
final assembly), the readers (monotonic refresh, protocol-violation
detection, follow loop with exactly-once delivery), the per-epoch
incremental index, and the replay driver.  The crash-shaped cases (a
writer killed between flush and publish) live in ``test_crash_safety.py``.
"""

import errno
import os
import shutil
import statistics
import threading
import time

import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.reader import IntervalReader
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.errors import FormatError
from repro.live import (
    FollowReader,
    LiveIntervalWriter,
    LiveReader,
    LiveSlogWriter,
    has_live_container,
    live_dir_for,
    read_manifest,
    replay_live,
)
from repro.live.container import (
    EpochManifest,
    data_path,
    epoch_path,
    index_path,
    meta_path,
    write_manifest,
)
from repro.query.indexfile import load_fresh_index, load_index
from repro.utils.slog import SlogFile

PROFILE = standard_profile()


def table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])


def running(start, dura):
    return IntervalRecord(
        IntervalType.RUNNING, BeBits.COMPLETE, start, dura, 0, 0, 0
    )


def live_writer(path, **kw):
    kw.setdefault("field_mask", MASK_ALL_MERGED)
    kw.setdefault("frame_bytes", 256)
    return LiveSlogWriter(path, PROFILE, table(), **kw)


def norm(records):
    """What ``records`` look like after one encode/decode round trip
    (the merged field mask materializes defaulted extra fields)."""
    out = []
    for r in records:
        blob = r.encode(PROFILE, MASK_ALL_MERGED)
        out.append(IntervalRecord.decode(blob, 0, PROFILE, MASK_ALL_MERGED)[0])
    return out


def nonpseudo_records(path):
    """The finished SLOG file's record stream minus pseudo continuations."""
    with SlogFile(path) as slog:
        out = []
        for entry in slog.frames:
            out.extend(slog.read_frame(entry)[entry.n_pseudo :])
        return out


class TestContainer:
    def test_manifest_roundtrip(self, tmp_path):
        import numpy as np

        from repro.utils.slog import SlogFrameEntry

        manifest = EpochManifest(
            seq=7, meta_size=100, data_size=64, flavor=0, finalized=True,
            time_range=(0, 1024), preview_bins=4,
            preview={1: np.array([1.0, 2.0, 0.0, 0.5])},
            frames=(SlogFrameEntry(0, 50, 0, 64, 3, 1),),
        )
        live_dir = tmp_path / "c.slog.live"
        live_dir.mkdir()
        write_manifest(live_dir, manifest)
        back = read_manifest(live_dir)
        assert back.seq == 7 and back.finalized
        assert back.frames == manifest.frames
        assert back.time_range == (0, 1024)
        assert list(back.preview) == [1]
        assert back.preview[1].tolist() == [1.0, 2.0, 0.0, 0.5]
        assert back.absolute_frames()[0].offset == 100

    def test_corrupt_epoch_rejected(self, tmp_path):
        live_dir = tmp_path / "c.slog.live"
        live_dir.mkdir()
        manifest = EpochManifest(
            seq=0, meta_size=0, data_size=0, flavor=0, finalized=False,
            time_range=(0, 1), preview_bins=4, preview={}, frames=(),
        )
        write_manifest(live_dir, manifest)
        blob = bytearray(epoch_path(live_dir).read_bytes())
        blob[12] ^= 0xFF
        epoch_path(live_dir).write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_manifest(live_dir)

    def test_extends_rule(self, tmp_path):
        from repro.utils.slog import SlogFrameEntry

        f0 = SlogFrameEntry(0, 10, 0, 32, 2, 0)
        f1 = SlogFrameEntry(10, 20, 32, 32, 2, 0)

        def epoch(seq, data_size, frames, meta_size=100):
            return EpochManifest(
                seq=seq, meta_size=meta_size, data_size=data_size, flavor=0,
                finalized=False, time_range=(0, 1), preview_bins=4,
                preview={}, frames=frames,
            )

        base = epoch(1, 32, (f0,))
        assert epoch(2, 64, (f0, f1)).extends(base)
        assert epoch(1, 32, (f0,)).extends(base)  # same epoch re-read
        assert not epoch(0, 32, (f0,)).extends(base)  # seq regression
        assert not epoch(2, 16, ()).extends(base)  # shrank
        assert not epoch(2, 64, (f1, f0)).extends(base)  # prefix diverges
        assert not epoch(2, 64, (f0, f1), meta_size=99).extends(base)


class TestLiveSlogWriter:
    def test_refuses_existing_targets(self, tmp_path):
        path = tmp_path / "run.slog"
        path.write_bytes(b"x")
        with pytest.raises(FormatError):
            live_writer(path)
        path.unlink()
        writer = live_writer(path)
        with pytest.raises(FormatError):
            live_writer(path)  # container already exists
        writer.abort()

    def test_out_of_order_rejected(self, tmp_path):
        writer = live_writer(tmp_path / "run.slog")
        writer.write(running(100, 50))
        with pytest.raises(FormatError):
            writer.write(running(0, 10))
        writer.abort()

    def test_epoch_zero_allows_early_attach(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        assert has_live_container(path)
        with LiveReader(path) as reader:
            assert reader.seq == 0
            assert reader.frames == []
            assert not reader.finalized
        writer.abort()
        assert not has_live_container(path)

    def test_published_frames_visible_torn_tail_invisible(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        for i in range(10):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        reader = LiveReader(path)
        published = [r for e in reader.frames for r in reader.read_frame(e)]
        assert len(published) == 10

        # Seal + fsync more frames but never publish: durable bytes that
        # no reader — strict or salvaging — may observe.
        for i in range(10, 20):
            writer.write(running(i * 10, 5))
        writer.seal_frame()
        writer.flush_data()
        published_size = read_manifest(writer.live_dir).data_size
        assert data_path(writer.live_dir).stat().st_size > published_size
        assert not reader.refresh()
        fresh = LiveReader(path, errors="salvage")
        seen = [r for e in fresh.frames for r in fresh.read_frame(e)]
        assert seen == published
        fresh.close()
        reader.close()
        writer.abort()

    def test_refresh_is_monotonic(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        reader = LiveReader(path)
        total = 0
        for batch in range(3):
            for i in range(8):
                writer.write(running((batch * 8 + i) * 10, 5))
            seq = writer.publish(seal=True)
            before = list(reader.frames)
            assert reader.refresh()
            assert reader.seq == seq
            assert reader.frames[: len(before)] == before
            records = [r for e in reader.frames for r in reader.read_frame(e)]
            nonpseudo = [
                r for r in records
                if not (r.bebits is BeBits.CONTINUATION and r.duration == 0)
            ]
            total = len(nonpseudo)
            assert total == (batch + 1) * 8
        assert not reader.refresh()  # nothing new
        reader.close()
        writer.abort()

    def test_close_assembles_final_file(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        records = [running(i * 10, 5) for i in range(30)]
        for r in records:
            writer.write(r)
            if r.start % 100 == 0:
                writer.publish(seal=True)
        final = writer.close()
        assert final == path
        assert path.exists()
        assert not live_dir_for(path).exists()
        assert nonpseudo_records(path) == norm(records)
        # The assembled sidecar index is fresh for the final bytes.
        index, reason = load_fresh_index(path)
        assert reason == "fresh"
        assert len(index.frames) == len(SlogFile(path).frames)

    def test_close_builds_the_final_index_once(self, tmp_path, monkeypatch):
        """The final epoch's index *is* the finished file's (offsets
        rebased): close snapshots once, and the rebased sidecar is what a
        rebuild of the assembled file writes."""
        from repro.live import writer as writer_module
        from repro.query import build_index, index_path_for, open_trace

        path = tmp_path / "run.slog"
        writer = live_writer(path)
        for i in range(60):
            writer.write(running(i * 10, 5))
        snapshots = []
        snapshot = writer_module._IncrementalIndex.snapshot
        monkeypatch.setattr(
            writer_module._IncrementalIndex, "snapshot",
            lambda self: snapshots.append(1) or snapshot(self),
        )
        writer.close()
        assert len(snapshots) == 1
        with open_trace(path, PROFILE) as handle:
            assert index_path_for(path).read_bytes() == build_index(handle).encode()

    @pytest.mark.parametrize("bins", [1, 2, 5, 13, 50])
    def test_preview_conserves_duration_for_any_bin_count(self, tmp_path, bins):
        """Folding the doubling horizon used to need an even bin count: 13
        bins raised on the first fold, 1 bin zeroed the only counter."""
        from repro.utils.slog import SlogWriter

        records = [running(i * 7, 1 + i % 5) for i in range(120)]
        path = tmp_path / "run.slog"
        with live_writer(path, preview_bins=bins) as writer:
            for r in records:
                writer.write(r)
        with SlogFile(path) as live:
            horizon = live.time_range
            live_total = sum(arr.sum() for arr in live.preview.values())
            assert live.preview_bins == bins
        with SlogWriter(
            tmp_path / "batch.slog", PROFILE, table(), field_mask=MASK_ALL_MERGED,
            time_range=horizon, preview_bins=bins,
        ) as batch:
            for r in records:
                batch.write(r)
        with SlogFile(tmp_path / "batch.slog") as batch:
            batch_total = sum(arr.sum() for arr in batch.preview.values())
        assert live_total == pytest.approx(sum(r.duration for r in records))
        assert live_total == pytest.approx(batch_total)

    def test_context_manager_aborts_on_error(self, tmp_path):
        path = tmp_path / "run.slog"
        with pytest.raises(RuntimeError):
            with live_writer(path) as writer:
                writer.write(running(0, 5))
                raise RuntimeError("boom")
        assert not path.exists()
        assert not live_dir_for(path).exists()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts open fds through /proc"
    )
    def test_a_failed_constructor_leaves_no_handle_and_no_container(
        self, tmp_path, monkeypatch
    ):
        """Epoch 0 is published inside the constructor; when that fails
        (a full disk here) the caller has no writer to abort, so the
        constructor closes the ``data`` handle and drops the container
        itself — and the same path can be retried."""
        path = tmp_path / "run.slog"

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        fds = len(os.listdir("/proc/self/fd"))
        with monkeypatch.context() as patch:
            patch.setattr("repro.live.writer.write_manifest", disk_full)
            with pytest.raises(OSError, match="No space left") as failure:
                live_writer(path)
        # Held while the error is (its traceback keeps the half-built
        # writer alive): the handle must be closed, not left to the GC.
        assert len(os.listdir("/proc/self/fd")) == fds
        del failure
        assert not live_dir_for(path).exists()
        writer = live_writer(path)
        writer.write(running(0, 5))
        assert writer.close() == path
        assert [r.start for r in nonpseudo_records(path)] == [0]

    @pytest.mark.parametrize("flavor", ["slog", "interval"])
    def test_a_failed_assembly_can_be_retried_or_aborted(
        self, tmp_path, monkeypatch, flavor
    ):
        """A ``close()`` whose assembly fails (a full disk here) leaves the
        writer open: a second ``close()`` assembles again from the final
        epoch already published — without publishing another — and
        ``abort()`` instead drops the container, so the path can go live
        again."""
        from repro.core import writer as core_writer
        from repro.live import writer as live_module

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        target = (live_module, "assemble_slog") if flavor == "slog" else (
            core_writer.IntervalFileWriter, "add_frame"
        )
        make = live_writer if flavor == "slog" else (
            lambda p: LiveIntervalWriter(
                p, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=256
            )
        )
        for retry in (True, False):
            path = tmp_path / f"run-{retry}.{flavor}"
            writer = make(path)
            for i in range(40):
                writer.write(running(i * 10, 5))
            with monkeypatch.context() as patch:
                patch.setattr(*target, disk_full)
                with pytest.raises(OSError, match="No space left"):
                    writer.close()
            assert not path.exists() and live_dir_for(path).exists()
            manifest = read_manifest(live_dir_for(path))
            assert manifest.finalized
            if retry:
                assert writer.close() == path
                assert writer.epochs_published == manifest.seq + 1
                assert not live_dir_for(path).exists()
                if flavor == "slog":
                    assert len(nonpseudo_records(path)) == 40
                else:
                    with IntervalReader(path, PROFILE) as reader:
                        assert len(list(reader.intervals())) == 40
            else:
                writer.abort()
                assert not path.exists() and not live_dir_for(path).exists()
                make(path).abort()


class TestLiveReader:
    def test_epoch_regression_is_protocol_violation(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        for i in range(10):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        reader = LiveReader(path)
        # Republish an older epoch (seq goes backwards): corrupt writer.
        old = EpochManifest(
            seq=0, meta_size=reader.manifest.meta_size, data_size=0,
            flavor=0, finalized=False, time_range=(0, 1),
            preview_bins=reader.manifest.preview_bins, preview={}, frames=(),
        )
        write_manifest(writer.live_dir, old)
        with pytest.raises(FormatError, match="protocol violation"):
            reader.refresh()
        reader.close()
        writer.abort()

    def test_divergent_frames_rejected(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        for i in range(10):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        reader = LiveReader(path)
        current = read_manifest(writer.live_dir)
        from repro.utils.slog import SlogFrameEntry

        first = current.frames[0]
        mutated = SlogFrameEntry(
            first.start_time, first.end_time, first.offset, first.size,
            first.n_records + 1, first.n_pseudo,
        )
        forged = EpochManifest(
            seq=current.seq + 1, meta_size=current.meta_size,
            data_size=current.data_size, flavor=current.flavor,
            finalized=False, time_range=current.time_range,
            preview_bins=current.preview_bins, preview=current.preview,
            frames=(mutated,) + current.frames[1:],
        )
        write_manifest(writer.live_dir, forged)
        with pytest.raises(FormatError, match="protocol violation"):
            reader.refresh()
        reader.close()
        writer.abort()

    def test_vanished_container_keeps_view_readable(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        for i in range(10):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        reader = LiveReader(path)
        frames = list(reader.frames)
        shutil.rmtree(writer.live_dir)
        assert not reader.container_exists()
        assert not reader.refresh()  # view pinned, no error
        # The open fd keeps every published byte readable.
        records = [r for e in frames for r in reader.read_frame(e)]
        assert len(records) == 10
        reader.close()
        writer._closed = True  # container already gone; skip abort cleanup


class TestLiveIndex:
    def test_index_tracks_each_epoch(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        live_dir = writer.live_dir
        for batch in range(3):
            for i in range(8):
                writer.write(running((batch * 8 + i) * 10, 5))
            writer.publish(seal=True)
            manifest = read_manifest(live_dir)
            index = load_index(index_path(live_dir))
            assert index.source_size == manifest.meta_size + manifest.data_size
            assert len(index.frames) == manifest.n_frames
            # The index hashes exactly the published virtual file.
            import hashlib

            virtual = meta_path(live_dir).read_bytes() + data_path(
                live_dir
            ).read_bytes()[: manifest.data_size]
            assert index.source_sha256 == hashlib.sha256(virtual).digest()
        writer.abort()

    def test_index_totals_match_records(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        for i in range(20):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        index = load_index(index_path(writer.live_dir))
        reader = LiveReader(path)
        records = [r for e in reader.frames for r in reader.read_frame(e)]
        assert index.summary()["records"] == len(records)
        assert sum(f.n_records for f in index.frames) == len(records)
        reader.close()
        writer.abort()


    def test_every_snapshot_equals_a_post_hoc_rebuild(self, tmp_path):
        """The incremental index is not an approximation: each epoch's
        aggregates are the ones a fresh builder computes from the published
        records, and the final sidecar is ``build_index`` of the finished
        file, byte for byte."""
        from repro.query import build_index, index_path_for, open_trace
        from repro.query.columnar import batch_from_records
        from repro.query.utilization import UtilizationBuilder

        path = tmp_path / "run.slog"
        writer = live_writer(path)
        t = 0
        for batch in range(4):
            for i in range(30):
                # Growing durations: the grid's shift rises across epochs.
                dura = 5 + (batch * 30 + i) * 7
                writer.write(running(t, dura))
                t += dura + 3
            writer.publish(seal=True)
            index = load_index(index_path(writer.live_dir))
            reader = LiveReader(path)
            rebuilt = UtilizationBuilder()
            for entry in reader.frames:
                rebuilt.add_batch(batch_from_records(reader.read_frame(entry)))
            reader.close()
            assert index.utilization.encode() == rebuilt.build().encode()
        final = writer.close()
        with open_trace(final, PROFILE) as handle:
            assert index_path_for(final).read_bytes() == build_index(handle).encode()

    def test_a_lifecycle_never_reaches_the_lexsort_fallback(self, tmp_path):
        """Every epoch's aggregates — and every coarser level folded from
        the final sidecar — group on one packed key: the lexsort kept for
        keys past 62 bits is not called once."""
        from unittest import mock

        import numpy as np

        from repro.query import index_path_for

        path = tmp_path / "run.slog"
        with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
            writer = live_writer(path)
            end = 10_000
            for epoch in range(4):
                for i in range(60):
                    # 32 thread lanes on 4 nodes, two states, durations
                    # growing by epoch so the grid's shift rises.
                    dura = 40 + (i % 9) * 200 * (epoch + 1)
                    writer.write(IntervalRecord(
                        IntervalType.RUNNING if i % 5 else IntervalType.IO,
                        BeBits.COMPLETE, end - dura, dura, i % 4, i % 3, i % 32 // 4,
                    ))
                    end += 150
                writer.publish(seal=True)
            writer.close()
            util = load_index(index_path_for(path)).utilization
            for table in (util.thread, util.cpu):
                assert all(len(table.levels[li].bins) for li in range(util.n_levels))
        assert util.n_levels > 3 and len(util.thread.keys) == 32
        assert lexsort.call_count == 0

    def test_a_publish_after_the_first_data_epoch_sorts_only_its_epoch(self, tmp_path):
        """Once rows are held, a publish merges its epoch into them: no sort
        and no segmented sum sees an array as long as the rows already held
        (a re-sort of everything would hand ``argsort`` all of them).  The
        first epoch's long record fixes the shift, so none of the later
        epochs moves every row onto a coarser grid."""
        from unittest import mock

        import numpy as np

        from repro.query import build_index, index_path_for, open_trace

        path = tmp_path / "run.slog"
        writer = live_writer(path)
        end = 10_000

        def published():
            return load_index(index_path(writer.live_dir)).utilization

        def epoch(n: int, longest: int) -> None:
            nonlocal end
            for i in range(n):
                dura = longest if i == 0 else 40 + (i % 9) * 100
                writer.write(IntervalRecord(
                    IntervalType.RUNNING if i % 5 else IntervalType.IO,
                    BeBits.COMPLETE, end - dura, dura, i % 4, i % 3, i % 32 // 4,
                ))
                end += 150
            writer.publish(seal=True)

        epoch(200, 5_000)
        shift = published().base_shift
        with mock.patch("numpy.argsort", wraps=np.argsort) as argsort, \
                mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort, \
                mock.patch("numpy.add", wraps=np.add) as add:
            for _ in range(5):
                util = published()
                held = min(len(table.levels[0].states) for table in (util.thread, util.cpu))
                for call in (argsort, lexsort, add.reduceat):
                    call.reset_mock()
                epoch(40, 1_000)
                lengths = [len(c.args[0]) for c in argsort.call_args_list]
                lengths += [len(c.args[0][0]) for c in lexsort.call_args_list]
                lengths += [len(c.args[0]) for c in add.reduceat.call_args_list]
                assert argsort.call_count and max(lengths) < held
        assert published().base_shift == shift
        final = writer.close()
        with open_trace(final, PROFILE) as handle:
            assert index_path_for(final).read_bytes() == build_index(handle).encode()


class TestFollowReader:
    def test_follow_across_epochs_exactly_once(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        follower = FollowReader(path, poll_interval=0.0)
        assert follower.live
        got = []
        seqs = []
        for batch in range(4):
            for i in range(6):
                writer.write(running((batch * 6 + i) * 10, 5))
            writer.publish(seal=True)
            event = follower.poll()
            assert event is not None and event.kind == "epoch"
            seqs.append(event.seq)
            got.extend(event.records[event.n_pseudo :])
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert follower.poll() is None  # nothing new
        final = writer.close()
        # Container gone, file exists: the follower switches over and
        # finishes without dropping or repeating a record.
        tail = []
        while True:
            event = follower.poll()
            assert event is not None
            if event.kind == "final":
                break
            tail.extend(event.records[event.n_pseudo :])
        got.extend(tail)
        assert got == nonpseudo_records(final)
        assert follower.poll() is None
        follower.close()

    def test_follow_sees_final_epoch(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        follower = FollowReader(path, poll_interval=0.0)
        for i in range(10):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True, final=True)
        event = follower.poll()
        assert event.kind == "epoch" and event.n_new_frames >= 1
        event = follower.poll()
        assert event.kind == "final"
        assert follower.poll() is None
        follower.close()
        writer.abort()

    def test_follow_finished_file(self, tmp_path):
        path = tmp_path / "run.slog"
        with live_writer(path) as writer:
            for i in range(12):
                writer.write(running(i * 10, 5))
        follower = FollowReader(path)
        assert not follower.live
        events = list(follower.events())
        assert [e.kind for e in events] == ["epoch", "final"]
        total = sum(len(e.records) for e in events)
        assert total - sum(e.n_pseudo for e in events) == 12
        follower.close()

    def test_follow_interval_flavor_switchover(self, tmp_path):
        path = tmp_path / "run.ute"
        writer = LiveIntervalWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=256,
        )
        follower = FollowReader(path, poll_interval=0.0)
        records = [running(i * 10, 5) for i in range(20)]
        got = []
        for r in records[:10]:
            writer.write(r)
        writer.publish(seal=True)
        event = follower.poll()
        got.extend(event.records[event.n_pseudo :])
        for r in records[10:]:
            writer.write(r)
        writer.close()
        while True:
            event = follower.poll()
            if event.kind == "final":
                break
            got.extend(event.records[event.n_pseudo :])
        assert got == norm(records)
        follower.close()

    def test_connect_timeout(self, tmp_path):
        with pytest.raises(FormatError, match="neither a live container"):
            FollowReader(tmp_path / "absent.slog", connect_timeout=0.0)

    def test_events_timeout_returns(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path)
        follower = FollowReader(path, poll_interval=0.0)
        assert list(follower.events(timeout=0.0)) == []
        follower.close()
        writer.abort()

    def test_concurrent_writers_and_followers(self, tmp_path):
        """Two writers publish six epochs each while two followers per
        writer poll, every one on its own thread: each follower gets every
        record exactly once, in order, ending on ``"final"``, and sees a
        publish within a p50 of 150 ms and a p95 of 600 ms."""
        n_epochs, followers_per_writer = 6, 2
        paths = [tmp_path / f"run-{i}.slog" for i in range(2)]
        writers = [live_writer(path, frame_bytes=512) for path in paths]
        lock = threading.Lock()
        go = threading.Event()
        published = {}  # (file name, seq) -> publish time
        arrivals = []  # (file name, seq, arrival time)
        delivered = {}  # follower -> (epoch seqs, non-pseudo records, saw final)

        def write(writer, path):
            try:
                go.wait(timeout=30.0)
                t = 0
                for _ in range(n_epochs):
                    for _ in range(25):
                        writer.write(running(t, 40))
                        t += 100
                    seq = writer.publish(seal=True)
                    with lock:
                        published[path.name, seq] = time.monotonic()
                    time.sleep(0.05)
            finally:
                writer.close()

        def follow(path, key):
            seqs, records, final = [], [], False
            with FollowReader(path, poll_interval=0.01, connect_timeout=10.0) as follower:
                for event in follower.events(timeout=30.0):
                    now = time.monotonic()
                    if event.kind == "final":
                        final = True
                    else:
                        seqs.append(event.seq)
                        with lock:
                            arrivals.append((path.name, event.seq, now))
                    records.extend(event.records[event.n_pseudo :])
            with lock:
                delivered[key] = (seqs, records, final)

        threads = [
            threading.Thread(target=write, args=(w, p), daemon=True)
            for w, p in zip(writers, paths)
        ] + [
            threading.Thread(target=follow, args=(p, (p.name, j)), daemon=True)
            for p in paths for j in range(followers_per_writer)
        ]
        for t in threads:
            t.start()
        go.set()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive(), "a writer or follower hung"

        assert len(delivered) == len(paths) * followers_per_writer
        for (name, j), (seqs, records, final) in delivered.items():
            assert final, f"{name}#{j} never saw the final event"
            assert seqs == sorted(set(seqs)), f"{name}#{j}: {seqs}"
            assert records == nonpseudo_records(tmp_path / name), f"{name}#{j}"
        samples = sorted(
            arrived - published[name, seq]
            for name, seq, arrived in arrivals
            if (name, seq) in published  # the last epoch may fold into "final"
        )
        assert len(samples) >= len(delivered) * (n_epochs - 2), samples
        p50 = statistics.median(samples)
        p95 = samples[int(0.95 * (len(samples) - 1))]
        assert p50 <= 0.150, f"follow p50 {p50 * 1e3:.1f} ms over the 150 ms budget"
        assert p95 <= 0.600, f"follow p95 {p95 * 1e3:.1f} ms over the 600 ms budget"


class TestLiveIntervalWriter:
    def test_assembles_interval_file(self, tmp_path):
        path = tmp_path / "run.ute"
        writer = LiveIntervalWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=256,
        )
        records = [running(i * 10, 5) for i in range(25)]
        for i, r in enumerate(records):
            writer.write(r)
            if i % 10 == 9:
                writer.publish(seal=True)
        final = writer.close()
        assert not live_dir_for(path).exists()
        from repro.core.reader import IntervalReader

        with IntervalReader(final, PROFILE) as reader:
            assert list(reader.intervals()) == norm(records)


class TestBatchParity:
    def test_live_and_batch_slog_are_divergence_free(self, tmp_path):
        """The tentpole guarantee: a trace streamed through the live
        writer assembles into the same record stream as the batch SLOG
        build, modulo pseudo-interval continuations (epoch publishes seal
        frames at different points, so the injection sites differ — the
        ``ute-diff --ignore-pseudo`` contract)."""
        from repro.utils.slog import slog_from_interval_file

        send = IntervalType.for_mpi_fn(0)
        records = [IntervalRecord(send, BeBits.BEGIN, 0, 0, 0, 0, 0)]
        for i in range(40):
            records.append(running(i * 10 + 1, 5))
        records.append(IntervalRecord(send, BeBits.END, 401, 0, 0, 0, 0))
        merged = tmp_path / "merged.ute"
        writer = IntervalFileWriter(
            merged, PROFILE, table(), field_mask=MASK_ALL_MERGED,
            frame_bytes=1024,
        )
        for r in records:
            writer.write(r)
        writer.close()

        batch = slog_from_interval_file(
            merged, PROFILE, tmp_path / "batch.slog", frame_bytes=256,
        )
        live = replay_live(
            merged, tmp_path / "live.slog", profile=PROFILE,
            duration_s=0.5, publish_interval_s=0.05, frame_bytes=256,
            sleeper=lambda s: None,
        )
        with SlogFile(batch) as b, SlogFile(live) as v:
            batch_pseudo = sum(e.n_pseudo for e in b.frames)
            live_pseudo = sum(e.n_pseudo for e in v.frames)
            live_continuations = [
                r for e in v.frames for r in v.read_frame(e)[: e.n_pseudo]
            ]
        assert batch_pseudo > 0 and live_pseudo > 0  # the open MPI_Send
        assert all(
            r.itype == send and r.bebits is BeBits.CONTINUATION
            for r in live_continuations
        )
        assert nonpseudo_records(live) == nonpseudo_records(batch)


class TestReplayLive:
    def _merged(self, tmp_path, n=40):
        merged = tmp_path / "merged.ute"
        writer = IntervalFileWriter(
            merged, PROFILE, table(), field_mask=MASK_ALL_MERGED,
            frame_bytes=512,
        )
        records = [running(i * 10, 5) for i in range(n)]
        for r in records:
            writer.write(r)
        writer.close()
        return merged, records

    def test_replay_slog(self, tmp_path):
        merged, records = self._merged(tmp_path)
        out = tmp_path / "run.slog"
        sleeps = []
        final = replay_live(
            merged, out, profile=PROFILE, duration_s=1.0,
            publish_interval_s=0.1, frame_bytes=256,
            sleeper=sleeps.append,
        )
        assert final == out and out.exists()
        assert not live_dir_for(out).exists()
        assert nonpseudo_records(out) == norm(records)
        assert sleeps  # the driver paced itself against the wall clock

    def test_replay_interval(self, tmp_path):
        merged, records = self._merged(tmp_path)
        out = tmp_path / "run.ute"
        replay_live(
            merged, out, profile=PROFILE, duration_s=0.2,
            publish_interval_s=0.1, flavor="interval",
            sleeper=lambda s: None,
        )
        from repro.core.reader import IntervalReader

        with IntervalReader(out, PROFILE) as reader:
            assert list(reader.intervals()) == norm(records)

    def test_replay_bad_flavor(self, tmp_path):
        merged, _ = self._merged(tmp_path, n=4)
        with pytest.raises(FormatError, match="unknown live flavor"):
            replay_live(merged, tmp_path / "x.slog", flavor="csv",
                        sleeper=lambda s: None)
