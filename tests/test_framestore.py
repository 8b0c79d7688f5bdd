"""The one frame store behind IntervalReader, SlogFile and LiveReader.

What is pinned here: one cached form per frame (the batch; a record read
materialises fresh objects from it), one LRU order whichever way a frame
is read, the byte accounting a repository budget aggregates (``size`` once
per frame), the governor protocol (called once per miss, never for a
resident batch, never with the store lock held), strict-LRU shrinking,
thread safety, and the two declared degradations this store made reachable
on every path — records whose time range does not fit int64, and ``extra``
key order.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import IntervalFileWriter
from repro.core.bytesource import MmapSource
from repro.core.fields import MASK_ALL_MERGED, MASK_CORE
from repro.core.framestore import decode_frame_records
from repro.core.reader import IntervalReader
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.difftool.oracle import _decode_mismatch, run_oracle
from repro.errors import FormatError
from repro.query import open_trace
from repro.utils.slog import SlogFile

from tests.conftest import DATA_DIR
from tests.test_query import PROFILE, _records, make_ivl, thread_table
from tests.test_serve import make_slog, message_records

RUNNING = IntervalType.RUNNING
MASK = MASK_ALL_MERGED


@pytest.fixture()
def slog(tmp_path):
    """A SLOG reader over several small frames (cache of 4)."""
    path = make_slog(tmp_path / "s.slog", message_records())
    with SlogFile(path, cache_frames=4) as reader:
        assert len(reader.frames) >= 6
        yield reader


def make_reader(kind: str, tmp_path, records, **kwargs):
    if kind == "interval":
        return IntervalReader(make_ivl(tmp_path / "f.ute", records), PROFILE, **kwargs)
    return SlogFile(make_slog(tmp_path / "f.slog", records), **kwargs)


class RecordingGovernor:
    """Logs every call; optionally runs a hook inside ``reserve``."""

    def __init__(self, on_reserve=None) -> None:
        self.calls: list[tuple[str, int]] = []
        self.on_reserve = on_reserve

    def reserve(self, nbytes: int) -> None:
        self.calls.append(("reserve", nbytes))
        if self.on_reserve is not None:
            self.on_reserve()

    def commit(self, nbytes: int) -> None:
        self.calls.append(("commit", nbytes))


# ------------------------------------------------------------------ LRU order


class TestOneLru:
    def test_batch_read_refreshes_the_entry_a_record_read_hits(self, slog):
        frames = slog.frames
        slog.read_frame_batch(frames[0])
        for frame in frames[1:4]:
            slog.read_frame_batch(frame)
        slog.read_frame_batch(frames[0])  # refresh: frames[1] is now oldest
        slog.read_frame_batch(frames[4])  # evicts frames[1], not frames[0]
        before = slog.stats()
        records = slog.read_frame(frames[0])  # same entry: no decode
        after = slog.stats()
        assert (after["misses"], after["hits"]) == (before["misses"], before["hits"] + 1)
        assert after["bytes_fetched"] == before["bytes_fetched"]
        assert records == slog.reference_frame(frames[0])
        slog.read_frame(frames[1])
        assert slog.stats()["misses"] == after["misses"] + 2  # reference + evicted

    def test_record_read_refreshes_the_entry_a_batch_read_hits(self, slog):
        frames = slog.frames
        for frame in frames[:4]:
            slog.read_frame(frame)
        slog.read_frame(frames[0])
        slog.read_frame(frames[4])  # evicts frames[1]
        misses = slog.stats()["misses"]
        batch = slog.read_frame_batch(frames[0])
        assert slog.stats()["misses"] == misses
        assert batch is slog.read_frame_batch(frames[0])  # the cached form itself
        slog.read_frame_batch(frames[1])
        assert slog.stats()["misses"] == misses + 1

    def test_one_entry_per_frame_whatever_the_forms(self, slog):
        frame = slog.frames[0]
        slog.read_frame_batch(frame)
        slog.read_frame(frame)
        assert slog.cached_frames() == 1
        assert slog.stats()["misses"] == 1

    def test_record_reads_hand_out_fresh_objects(self, slog):
        """Mutating a returned record leaves the next read unchanged."""
        frame = slog.frames[0]
        first = slog.read_frame(frame)
        want = slog.reference_frame(frame)
        assert first == want
        first[0].start += 1
        first[0].extra["mutated"] = 1
        first.pop()
        second = slog.read_frame(frame)
        assert second == want
        assert all(a is not b for a, b in zip(first, second))

    def test_capacity_zero_never_retains(self, tmp_path):
        path = make_slog(tmp_path / "z.slog", message_records())
        governor = RecordingGovernor()
        with SlogFile(path, cache_frames=0) as reader:
            reader.governor = governor
            frame = reader.frames[0]
            assert reader.read_frame(frame) == reader.read_frame(frame)
            reader.read_frame_batch(frame)
            stats = reader.stats()
            assert (stats["hits"], stats["misses"], stats["evictions"]) == (0, 3, 0)
            assert stats["resident_bytes"] == 0 and reader.cached_frames() == 0
        assert governor.calls == []  # nothing is ever admitted


# ------------------------------------------------------- bytes and the budget


class TestAccounting:
    def test_resident_bytes_is_size_once_per_frame(self, slog):
        a, b, c = slog.frames[:3]
        slog.read_frame_batch(a)
        assert slog.resident_bytes() == a.size
        slog.read_frame(a)  # the same entry: nothing added
        assert slog.resident_bytes() == a.size
        slog.read_frame(b)  # a record miss caches the batch, charged once
        slog.read_frame_batch(c)
        assert slog.resident_bytes() == a.size + b.size + c.size
        assert slog.stats()["resident_bytes"] == slog.resident_bytes()

    def test_shrink_evicts_strictly_least_recently_used(self, slog):
        a, b, c = slog.frames[:3]
        slog.read_frame(a)
        slog.read_frame_batch(b)
        slog.read_frame_batch(c)
        slog.read_frame(a)  # a is now the most recent
        dropped = slog.shrink_cache(a.size + c.size)
        assert dropped == 1 and slog.stats()["evictions"] == 1
        assert slog.resident_bytes() == a.size + c.size
        misses = slog.stats()["misses"]
        slog.read_frame(a), slog.read_frame_batch(c)  # both survived
        assert slog.stats()["misses"] == misses
        slog.read_frame_batch(b)  # b was the LRU entry
        assert slog.stats()["misses"] == misses + 1
        assert slog.shrink_cache(0) == 3 and slog.resident_bytes() == 0

    def test_capacity_eviction_counts_one_per_frame(self, slog):
        for frame in slog.frames[:6]:
            slog.read_frame(frame)
        stats = slog.stats()
        assert stats["evictions"] == 2 and slog.cached_frames() == 4
        assert stats["resident_bytes"] == sum(f.size for f in slog.frames[2:6])

    @pytest.mark.parametrize("kind", ["interval", "slog"])
    def test_both_reader_kinds_share_stats_keys_and_honour_a_governor(
        self, tmp_path, kind
    ):
        governor = RecordingGovernor()
        with make_reader(kind, tmp_path, _records(120)) as reader:
            assert set(reader.stats()) == {
                "hits", "misses", "evictions", "resident_bytes", "fetch_count",
                "bytes_fetched", "bytes_skipped", "records_dropped",
                "frames_quarantined",
            }
            reader.governor = governor
            frame = reader.frame_entries()[0]
            reader.read_frame_batch(frame)
            assert governor.calls == [("reserve", frame.size), ("commit", frame.size)]
            assert reader.stats()["resident_bytes"] == frame.size


class TestGovernor:
    def test_called_once_per_miss_and_never_for_a_resident_form(self, slog):
        governor = RecordingGovernor()
        slog.governor = governor
        a, b = slog.frames[:2]
        slog.read_frame_batch(a)
        assert governor.calls == [("reserve", a.size), ("commit", a.size)]
        slog.read_frame_batch(a)
        assert len(governor.calls) == 2  # hit: not consulted
        slog.read_frame(b)  # a record miss: one call pair for the batch
        assert governor.calls[2:] == [("reserve", b.size), ("commit", b.size)]
        slog.read_frame(b), slog.read_frame_batch(b)
        assert len(governor.calls) == 4
        # Records from a resident batch add no bytes: a hit, no governor.
        hits = slog.stats()["hits"]
        slog.read_frame(a)
        assert len(governor.calls) == 4
        assert slog.stats()["hits"] == hits + 1 and slog.stats()["misses"] == 2

    def test_commit_follows_a_failed_decode(self, tmp_path, corpus):
        governor = RecordingGovernor()
        with SlogFile(corpus.path("flip-frame.slog")) as reader:
            reader.governor = governor
            bad = next(
                f for f in reader.frames if not _decodes(reader, f)
            )
            assert governor.calls[-2:] == [("reserve", bad.size), ("commit", bad.size)]
            assert reader.resident_bytes() == sum(
                f.size for f in reader.frames if f is not bad and _cached(reader, f)
            )

    def test_reserve_may_shrink_the_same_store(self, slog):
        """The governor runs without the store lock: a reserve that evicts
        from the very store that called it must not deadlock."""
        governor = RecordingGovernor(on_reserve=lambda: slog.shrink_cache(0))
        slog.governor = governor
        done = threading.Event()

        def walk():
            for frame in slog.frames:
                slog.read_frame(frame)
            done.set()

        worker = threading.Thread(target=walk, daemon=True)
        worker.start()
        worker.join(timeout=20)
        assert done.is_set(), "reserve() deadlocked against the store lock"
        last = slog.frames[-1]
        assert slog.resident_bytes() == last.size  # only the newest survives


def _decodes(reader, frame) -> bool:
    try:
        reader.read_frame_batch(frame)
    except FormatError:
        return False
    return True


def _cached(reader, frame) -> bool:
    misses = reader.stats()["misses"]
    reader.read_frame_batch(frame)
    return reader.stats()["misses"] == misses


# ------------------------------------------------------------------- threads


def test_eight_thread_hammer(tmp_path):
    """More threads than cores over one small store, a shortened switch
    interval: every lookup returns the frame's records, and every lookup is
    counted exactly once as a hit or a miss."""
    path = make_slog(tmp_path / "h.slog", message_records())
    rounds, n_threads = 40, 8
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SlogFile(path, cache_frames=3) as reader:
            frames = reader.frames
            want = [reader.reference_frame(f) for f in frames]
            base = reader.stats()["misses"]
            failures: list[str] = []

            def hammer(seed: int) -> None:
                for i in range(rounds):
                    k = (seed * 7 + i * 3) % len(frames)
                    if (seed + i) % 2:
                        got = reader.read_frame(frames[k])
                    else:
                        got = reader.read_frame_batch(frames[k]).to_records()
                    if got != want[k]:
                        failures.append(f"thread {seed} round {i} frame {k}")

            threads = [
                threading.Thread(target=hammer, args=(s,), daemon=True)
                for s in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            stats = reader.stats()
            assert stats["hits"] + stats["misses"] - base == rounds * n_threads
            assert reader.cached_frames() <= 3
    finally:
        sys.setswitchinterval(old_interval)


# ---------------------------------------------------------------------- live


def test_live_refresh_keeps_earlier_entries_valid(tmp_path):
    from repro.core.threadtable import ThreadEntry, ThreadTable
    from repro.live import LiveReader, LiveSlogWriter

    path = tmp_path / "run.slog"
    table = ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])
    records = sorted(message_records(), key=lambda r: r.end)
    writer = LiveSlogWriter(
        path, PROFILE, table, field_mask=MASK, frame_bytes=512,
        node_cpus={0: 2},
    )
    try:
        for record in records[:60]:
            writer.write(record)
        writer.publish()
        with LiveReader(path) as reader:
            early = list(reader.frames)
            assert early
            held = {f.offset: reader.read_frame(f) for f in early}
            batches = {f.offset: reader.read_frame_batch(f) for f in early}
            for record in records[60:]:
                writer.write(record)
            writer.publish()
            assert reader.refresh()
            assert reader.frames[: len(early)] == early  # the view only grew
            assert len(reader.frames) > len(early)
            misses = reader.stats()["misses"]
            for frame in early:
                assert reader.read_frame(frame) == held[frame.offset]
                assert reader.read_frame_batch(frame) is batches[frame.offset]
            assert reader.stats()["misses"] == misses  # all served from the store
            new = reader.frames[len(early)]
            assert reader.read_frame(new) == reader.reference_frame(new)
    finally:
        writer.abort()


# ------------------------------------------------ records that overflow int64


OVERFLOWING = [
    IntervalRecord(RUNNING, BeBits.COMPLETE, 100, 50, 0, 0, 0, {}),
    IntervalRecord(RUNNING, BeBits.COMPLETE, 2**63 + 5, 0, 0, 0, 0, {}),
]


@pytest.mark.parametrize("kind", ["interval", "slog"])
class TestInt64Overflow:
    """A u64 start past 2**63 used to read back exact through ``read_frame``
    but wrapped negative through ``read_frame_batch``, and crashed salvage
    batches with a bare OverflowError."""

    def test_strict_refuses_the_frame_naming_its_offset(self, tmp_path, kind):
        with make_reader(kind, tmp_path, OVERFLOWING) as reader:
            (frame,) = reader.frame_entries()
            for read in (reader.read_frame, reader.read_frame_batch,
                         reader.reference_frame):
                with pytest.raises(FormatError, match=f"offset {frame.offset} .*int64"):
                    read(frame)
            assert reader.resident_bytes() == 0

    def test_salvage_drops_the_record_and_says_so(self, tmp_path, kind):
        with make_reader(kind, tmp_path, OVERFLOWING, errors="salvage") as reader:
            (frame,) = reader.frame_entries()
            batch = reader.read_frame_batch(frame)
            assert batch.start.tolist() == [100] and batch.end.tolist() == [150]
            assert [(r.start, r.end) for r in reader.read_frame(frame)] == [(100, 150)]
            assert reader.salvage.records_dropped == 1
            assert reader.stats()["records_dropped"] == 1
            assert reader.salvage.frames_quarantined == 0


class TestFailedDecodeReleasesTheMap:
    """A decode that raises leaves no array over the caller's mmap view, so
    the reader closes and unmaps while the traceback is still alive (an
    export outliving the raise made ``close`` fail with ``BufferError:
    cannot close exported pointers exist``)."""

    @staticmethod
    def write(path, failure: str):
        if failure == "mask":  # a file whose mask strips the core fields
            with IntervalFileWriter(
                path, PROFILE, thread_table(), field_mask=MASK_ALL_MERGED & ~MASK_CORE,
            ) as writer:
                for record in _records(8):
                    writer.write(record)
            return
        make_ivl(path, OVERFLOWING if failure == "overflow" else _records())
        if failure == "walk":  # the first record's body cannot hold a type word
            with IntervalReader(path, PROFILE) as reader:
                offset = reader.frame_entries()[0].offset
            data = bytearray(path.read_bytes())
            data[offset] = 2
            path.write_bytes(bytes(data))

    @pytest.mark.parametrize("failure", ["walk", "mask", "overflow"])
    def test_close_unmaps_after_a_failed_decode(self, tmp_path, failure):
        path = tmp_path / "f.ute"
        self.write(path, failure)
        reader = IntervalReader(path, PROFILE)
        assert isinstance(reader.source, MmapSource)
        frame = reader.frame_entries()[0]
        with pytest.raises(FormatError) as excinfo:
            reader.read_frame_batch(frame)
        reader.close()
        assert reader.source._map is None
        assert excinfo.traceback  # held across close()


# ------------------------------------------------------------ extra key order


class TestExtraKeyOrder:
    def test_store_records_keep_the_profile_field_order(self):
        """golden.ute holds types whose fields interleave with names first
        seen on other types; dict-equal is not enough for anything that
        serialises ``extra`` in dict order."""
        reordered = 0
        with open_trace(DATA_DIR / "interop" / "golden.ute", PROFILE) as handle:
            for frame in handle.frames:
                want = handle.reference_frame(frame.ordinal)
                got = handle.read_frame(frame.ordinal)
                via_batch = handle.read_frame_batch(frame.ordinal).to_records()
                assert got == want and via_batch == want
                assert [list(r.extra) for r in got] == [list(r.extra) for r in want]
                assert [list(r.extra) for r in via_batch] == [list(r.extra) for r in want]
                seen: dict[str, None] = {}
                for r in want:
                    first_seen = [k for k in dict.fromkeys([*seen, *r.extra]) if k in r.extra]
                    reordered += first_seen != list(r.extra)
                    seen.update(dict.fromkeys(r.extra))
        assert reordered  # the fixture really exercises the case

    def test_decode_parity_flags_a_reordered_extra(self):
        blob = b"".join(r.encode(PROFILE, MASK) for r in _records(10))
        want = decode_frame_records(blob, PROFILE, MASK)
        from repro.query.columnar import decode_frame_batch

        batch = decode_frame_batch(blob, PROFILE, MASK)
        assert _decode_mismatch(want, batch.to_records(), batch) is None
        got = batch.to_records()
        keyed = next(i for i, r in enumerate(got) if len(r.extra) > 1)
        got[keyed].extra = dict(reversed(got[keyed].extra.items()))
        assert got == want  # dict-equal: invisible to ==
        assert "extra key order" in _decode_mismatch(want, got, batch)
        assert "reference decoded" in _decode_mismatch(want, got[:-1], batch)

    def test_decode_parity_catches_a_layout_that_encodes_another_width(self):
        """The re-encode half of the check: one extra field's width flipped
        in a copied layout is named at the first record it touches."""
        import dataclasses

        from repro.core.layout import RecordLayout, layout_for
        from repro.core.profilefmt import Profile
        from repro.difftool.oracle import _reencode_mismatch
        from repro.query.columnar import decode_frame_batch

        records = _records(10)
        stored = b"".join(r.encode(PROFILE, MASK) for r in records)
        batch = decode_frame_batch(stored, PROFILE, MASK)
        assert _reencode_mismatch(stored, batch, PROFILE, MASK) is None

        keyed = next(i for i, r in enumerate(records) if "markerId" in r.extra)
        itype = records[keyed].itype
        # Its own layout cache: the constructor never returns a shared instance.
        tampered = Profile(PROFILE.record_names, PROFILE.field_names, PROFILE.specs)
        specs = [
            dataclasses.replace(fs, elem_len=2) if tampered.field_name(fs) == "markerId" else fs
            for fs in tampered.fields_for(itype, MASK)
        ]
        tampered._layouts[itype, MASK] = RecordLayout(specs, tampered.field_names)
        assert layout_for(tampered, itype, MASK).size == layout_for(PROFILE, itype, MASK).size - 2
        problem = _reencode_mismatch(stored, batch, tampered, MASK)
        assert problem is not None and problem.startswith(f"record {keyed}: re-encoded as ")

    @pytest.mark.parametrize("name", ["good.ute", "good.slog", "interop/golden.ute"])
    def test_oracle_runs_decode_parity_with_zero_findings(self, name):
        report = run_oracle(DATA_DIR / name, PROFILE, serve=False)
        assert "decode_parity" in report.checks
        assert report.ok, report.summary()
