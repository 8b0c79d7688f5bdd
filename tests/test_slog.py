"""Tests for the SLOG format: frames, time index, preview counters,
pseudo-interval accounting, and self-containedness."""

import numpy as np
import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.utils.slog import SlogFile, SlogWriter, slog_from_interval_file

PROFILE = standard_profile()


def table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])


def running(start, dura, bebits=BeBits.COMPLETE):
    return IntervalRecord(IntervalType.RUNNING, bebits, start, dura, 0, 0, 0)


def make_slog(path, records, *, time_range=None, frame_bytes=512, bins=10, **kw):
    t1 = max((r.end for r in records), default=1)
    writer = SlogWriter(
        path, PROFILE, table(), field_mask=MASK_ALL_MERGED,
        time_range=time_range or (0, max(t1, 1)), preview_bins=bins,
        frame_bytes=frame_bytes, **kw,
    )
    for rec in sorted(records, key=lambda r: r.end):
        writer.write(rec)
    return writer.close()


class TestRoundTrip:
    def test_records_roundtrip(self, tmp_path):
        records = [running(i * 10, 5) for i in range(100)]
        path = make_slog(tmp_path / "a.slog", records)
        slog = SlogFile(path)
        back = slog.records()
        assert [(r.start, r.duration) for r in back] == [(i * 10, 5) for i in range(100)]

    def test_self_contained_profile(self, tmp_path):
        """A SLOG file needs no external profile: the embedded one decodes
        the records."""
        path = make_slog(tmp_path / "b.slog", [running(0, 10)])
        slog = SlogFile(path)
        assert slog.profile.version_id == PROFILE.version_id
        assert slog.profile.record_name(IntervalType.RUNNING) == "Running"

    def test_metadata_roundtrip(self, tmp_path):
        path = tmp_path / "c.slog"
        writer = SlogWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED,
            markers={3: "Loop"}, node_cpus={0: 8}, time_range=(0, 100),
        )
        writer.write(running(0, 10))
        writer.close()
        slog = SlogFile(path)
        assert slog.markers == {3: "Loop"}
        assert slog.node_cpus == {0: 8}
        assert len(slog.thread_table) == 1

    def test_not_a_slog_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a slog file")
        with pytest.raises(FormatError, match="not a SLOG"):
            SlogFile(path)


class TestFrameIndex:
    def test_find_frame_by_time(self, tmp_path):
        records = [running(i * 10, 5) for i in range(300)]
        path = make_slog(tmp_path / "d.slog", records, frame_bytes=512)
        slog = SlogFile(path)
        assert len(slog.frames) > 3
        frame = slog.find_frame(1502)
        assert frame is not None
        assert frame.contains_time(1502)
        recs = slog.read_frame(frame)
        assert any(r.start <= 1502 <= r.end for r in recs)

    def test_find_frame_out_of_range(self, tmp_path):
        path = make_slog(tmp_path / "e.slog", [running(0, 10)])
        assert SlogFile(path).find_frame(10**9) is None

    def test_frame_record_counts_match(self, tmp_path):
        records = [running(i * 10, 5) for i in range(200)]
        path = make_slog(tmp_path / "f.slog", records, frame_bytes=512)
        slog = SlogFile(path)
        assert sum(f.n_records for f in slog.frames) == 200


class TestPreview:
    def test_uniform_activity_spreads_evenly(self, tmp_path):
        # One solid Running bar across the whole range.
        records = [running(0, 1000)]
        path = make_slog(tmp_path / "g.slog", records, time_range=(0, 1000), bins=10)
        slog = SlogFile(path)
        counters = slog.preview[IntervalType.RUNNING]
        assert counters.shape == (10,)
        np.testing.assert_allclose(counters, 100.0)

    def test_proportional_allocation_across_bin_edges(self, tmp_path):
        # A record spanning [50, 250) with bins of 100 -> 50/100/100 split.
        records = [running(50, 200)]
        path = make_slog(tmp_path / "h.slog", records, time_range=(0, 1000), bins=10)
        counters = SlogFile(path).preview[IntervalType.RUNNING]
        np.testing.assert_allclose(counters[:4], [50, 100, 50, 0])

    def test_total_preview_equals_total_duration(self, tmp_path):
        records = [running(i * 37, 21) for i in range(50)]
        path = make_slog(tmp_path / "i.slog", records, bins=13)
        slog = SlogFile(path)
        total = sum(arr.sum() for arr in slog.preview.values())
        assert total == pytest.approx(sum(r.duration for r in records))

    def test_pseudo_records_not_counted_in_preview(self, tmp_path):
        path = tmp_path / "j.slog"
        writer = SlogWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED,
            time_range=(0, 100), preview_bins=5,
        )
        writer.write(
            IntervalRecord(IntervalType.MARKER, BeBits.CONTINUATION, 0, 0, 0, 0, 0,
                           {"markerId": 1}),
            pseudo=True,
        )
        writer.write(running(0, 50))
        writer.close()
        slog = SlogFile(path)
        assert IntervalType.MARKER not in slog.preview
        assert slog.frames[0].n_pseudo == 1

    def test_pseudo_behind_a_real_record_is_an_ordinary_record(self, tmp_path):
        """n_pseudo is the leading run readers slice off; a later pseudo is
        stored uncounted and (zero duration) adds no preview time."""
        path = tmp_path / "j2.slog"
        writer = SlogWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED,
            time_range=(0, 100), preview_bins=5,
        )
        writer.write(running(0, 50))
        writer.write(
            IntervalRecord(IntervalType.MARKER, BeBits.CONTINUATION, 50, 0, 0, 0, 0,
                           {"markerId": 1}),
            pseudo=True,
        )
        writer.close()
        slog = SlogFile(path)
        assert (slog.frames[0].n_records, slog.frames[0].n_pseudo) == (2, 0)
        assert slog.read_frame(slog.frames[0])[1].is_pseudo
        assert slog.preview[IntervalType.MARKER].sum() == 0

    def test_preview_matrix_in_seconds(self, tmp_path):
        records = [running(0, 10**9)]  # one second
        path = make_slog(tmp_path / "k.slog", records, time_range=(0, 10**9), bins=4)
        itypes, matrix = SlogFile(path).preview_matrix()
        assert itypes == [IntervalType.RUNNING]
        assert matrix.sum() == pytest.approx(1.0)


class TestValidation:
    def test_bad_time_range_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="time range"):
            SlogWriter(
                tmp_path / "x.slog", PROFILE, table(),
                field_mask=MASK_ALL_MERGED, time_range=(10, 10),
            )

    def test_write_after_close_rejected(self, tmp_path):
        writer = SlogWriter(
            tmp_path / "y.slog", PROFILE, table(),
            field_mask=MASK_ALL_MERGED, time_range=(0, 10),
        )
        writer.close()
        with pytest.raises(FormatError):
            writer.write(running(0, 1))

    def test_out_of_order_record_rejected(self, tmp_path):
        """The SLOG writer used to be the one writer that accepted a record
        ending before its predecessor."""
        path = tmp_path / "o.slog"
        writer = SlogWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED, time_range=(0, 600)
        )
        writer.write(running(500, 10))
        with pytest.raises(FormatError, match="end-time order: 10 after 510"):
            writer.write(running(0, 10))
        writer.abort()
        assert not path.exists()


def test_slog_from_interval_file(tmp_path):
    """The standalone converter produces an equivalent SLOG."""
    from repro.core import IntervalFileWriter
    from repro.core.fields import MASK_ALL_PER_NODE

    ivl = tmp_path / "m.ute"
    with IntervalFileWriter(
        ivl, PROFILE, table(), field_mask=MASK_ALL_PER_NODE, node_cpus={0: 4}
    ) as writer:
        for i in range(50):
            writer.write(running(i * 10, 5))
    slog_path = slog_from_interval_file(ivl, PROFILE, tmp_path / "m.slog")
    slog = SlogFile(slog_path)
    assert len(slog.records()) == 50
    assert slog.node_cpus == {0: 4}
