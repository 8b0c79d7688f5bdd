"""The frame builder: the one place a frame is cut, ordered and led.

Property tests compare :class:`~repro.core.framebuilder.FrameBuilder`,
fed any chunking of a stream into batches, against a brute-force recount
(reference decoder over the concatenated blobs, open states replayed from
the start of the stream for every frame); the rest pins the order check,
the pseudo row mask, the writers' buffered hand-over, the
one-encode-per-record contract of the merge's SLOG tee, and which rows
still meet the per-record encoder (vector/char rows only).
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntervalFileWriter, standard_profile
from repro.core.fields import MASK_ALL_MERGED, MASK_ALL_PER_NODE
from repro.core.framebuilder import WRITE_BATCH_ROWS, FrameBuilder
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.live import LiveIntervalWriter, LiveSlogWriter, live_dir_for
from repro.query import columnar
from repro.query.columnar import batch_from_records
from repro.tracing.hooks import MPI_FN_IDS
from repro.utils.merge import merge_interval_files
from repro.utils.slog import SlogFile, SlogWriter
from tests.conftest import max_examples

PROFILE = standard_profile()
MASK = MASK_ALL_MERGED
SEND = IntervalType.for_mpi_fn(0)


def decode_all(blob):
    """Every record of ``blob`` through the reference decoder."""
    out, pos = [], 0
    while pos < len(blob):
        record, pos = IntervalRecord.decode(blob, pos, PROFILE, MASK)
        out.append(record)
    return out


def norm(records):
    return decode_all(b"".join(r.encode(PROFILE, MASK) for r in records))


def records_of(frame):
    """A sealed frame's records, pseudo-records included."""
    return frame.batch.to_records()


def real_of(frame):
    """A sealed frame's non-pseudo records."""
    return [r for r, real in zip(frame.batch.to_records(), frame.real.tolist()) if real]


def open_states(records):
    """Brute force: the states a stream leaves open, in first-opened
    order, keyed like the validator keys bebits balance."""
    opened = {}
    for r in records:
        marker = r.extra.get("markerId", 0) if r.itype == IntervalType.MARKER else 0
        key = (r.node, r.thread, r.itype, marker)
        if r.bebits is BeBits.BEGIN:
            opened[key] = r
        elif r.bebits is BeBits.END:
            opened.pop(key, None)
    return list(opened.values())


@st.composite
def streams(draw):
    """An end-ordered stream over three lanes: complete Running pieces and
    BEGIN/END pieces of MPI and marker states."""
    n = draw(st.integers(min_value=1, max_value=120))
    records = []
    for _ in range(n):
        node = draw(st.integers(0, 1))
        thread = draw(st.integers(0, 1)) if node == 0 else 0
        start = draw(st.integers(0, 50_000))
        dura = draw(st.integers(0, 2_000))
        kind = draw(st.integers(0, 4))
        if kind == 0:
            rec = IntervalRecord(SEND, BeBits.BEGIN, start, dura, node, 0, thread)
        elif kind == 1:
            rec = IntervalRecord(SEND, BeBits.END, start, dura, node, 0, thread)
        elif kind == 2:
            bebits = draw(st.sampled_from([BeBits.BEGIN, BeBits.END]))
            marker = draw(st.integers(1, 2))
            rec = IntervalRecord(
                IntervalType.MARKER, bebits, start, dura, node, 0, thread,
                {"markerId": marker},
            )
        else:
            rec = IntervalRecord(
                IntervalType.RUNNING, BeBits.COMPLETE, start, dura, node, 0, thread
            )
        records.append(rec)
    records.sort(key=lambda r: r.end)
    return records


def split(items, cuts):
    """``items`` split at the positions ``cuts``; ``None``: one item each."""
    if cuts is None:
        cuts = range(len(items))
    bounds = sorted({min(c, len(items)) for c in cuts} | {0, len(items)})
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=max_examples(150), deadline=None)
@given(
    streams(), st.integers(min_value=256, max_value=2048), st.booleans(),
    st.one_of(st.none(), st.lists(st.integers(0, 120), max_size=6)),
)
def test_frames_equal_a_brute_force_recount(records, frame_bytes, continuations, cuts):
    builder = FrameBuilder(PROFILE, MASK, frame_bytes, continuations=continuations)
    frames = list(builder.batch_frames(batch_from_records(c) for c in split(records, cuts)))
    assert builder.n_records == 0 and builder.seal() is None

    # The concatenated blobs decode to the input plus the pseudo-records.
    decoded = decode_all(b"".join(f.blob for f in frames))
    assert decoded == norm([r for f in frames for r in records_of(f)])
    assert norm([r for f in frames for r in real_of(f)]) == norm(records)

    seen = []  # real records of earlier frames
    for i, frame in enumerate(frames):
        in_frame = decode_all(frame.blob)
        assert frame.n_records == len(in_frame) == frame.batch.n
        assert frame.start_time == min(r.start for r in in_frame)
        assert frame.end_time == max(r.end for r in in_frame)
        # Each frame after the first starts with exactly one continuation
        # per state open at the previous frame's end.
        lead = sorted(
            open_states(seen) if continuations and i else [],
            key=lambda r: (r.node, r.thread, r.itype),
        )
        assert frame.n_pseudo == len(lead)
        for pseudo, state in zip(in_frame, lead):
            assert pseudo.bebits is BeBits.CONTINUATION and pseudo.duration == 0
            assert pseudo.start == frames[i - 1].end_time
            assert (pseudo.itype, pseudo.node, pseudo.thread) == (
                state.itype, state.node, state.thread,
            )
            assert pseudo.extra.get("markerId") == norm([state])[0].extra.get("markerId")
        assert norm(real_of(frame)) == in_frame[len(lead):]
        # Cut at the first record that reaches frame_bytes — a lead is
        # never cut, so a frame may be just its lead plus one record.
        if i < len(frames) - 1:
            assert len(frame.blob) >= frame_bytes
            last = len(records_of(frame)[-1].encode(PROFILE, MASK))
            assert len(frame.blob) - last < frame_bytes or len(in_frame) == len(lead) + 1
        seen.extend(real_of(frame))


def test_a_lead_after_times_past_int64_is_stamped_exactly():
    """A record the per-record encoder takes (a start past int64 fits the
    u64 wire field) moves the watermark past int64; the next lead carries
    that end time exactly."""
    builder = FrameBuilder(PROFILE, MASK, 256, continuations=True)
    begin = IntervalRecord(SEND, BeBits.BEGIN, 1, 1, 0, 0, 0, {"peer": 3})
    records = [begin] + [running((1 << 63) + 10 * i, 5) for i in range(20)]
    frames = list(builder.batch_frames(batch_from_records([r]) for r in records))
    assert len(frames) > 2
    for before, frame in zip(frames, frames[1:]):
        lead = IntervalRecord(SEND, BeBits.CONTINUATION, before.end_time, 0, 0, 0, 0, {"peer": 3})
        assert before.end_time >= 1 << 63 and frame.n_pseudo == 1
        assert frame.blob.startswith(lead.encode(PROFILE, MASK))


def running(start, dura):
    return IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, start, dura, 0, 0, 0)


def table():
    return ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])


def test_out_of_order_write_raises_at_once_and_leaves_the_watermark(tmp_path):
    good = [running(0, 10), running(5, 20)]
    with SlogWriter(tmp_path / "o.slog", PROFILE, table(), field_mask=MASK) as writer:
        for r in good:
            writer.write(r)
        with pytest.raises(FormatError, match="end-time order: 24 after 25"):
            writer.write(running(4, 20))
        assert writer.records_written == 2
        writer.write(running(30, 1))  # the watermark did not move either
        for i in range(WRITE_BATCH_ROWS):  # nor does it after a hand-over
            writer.write(running(31 + i, 0))
        with pytest.raises(FormatError, match=f"end-time order: 30 after {30 + WRITE_BATCH_ROWS}"):
            writer.write(running(30, 0))
        assert writer.records_written == 3 + WRITE_BATCH_ROWS
    with SlogFile(tmp_path / "o.slog") as slog:
        assert slog.records()[:3] == norm(good + [running(30, 1)])


def pseudo_frames(rows, cuts):
    """The one frame sealed from ``rows`` — ``(record, pseudo)`` pairs —
    fed in batches split at ``cuts``: (n_records, n_pseudo, real, records)."""
    builder = FrameBuilder(PROFILE, MASK, 256, continuations=True)
    for part in split(rows, cuts):
        records, flags = zip(*part)
        assert builder.add_batch(batch_from_records(list(records)), np.array(flags)) == []
    frame = builder.seal()
    return frame.n_records, frame.n_pseudo, frame.real.tolist(), frame.batch.to_records()


def test_explicit_pseudo_is_counted_but_neither_led_nor_tracked():
    begin = IntervalRecord(SEND, BeBits.BEGIN, 0, 1, 0, 0, 0)
    cont = IntervalRecord(SEND, BeBits.CONTINUATION, 1, 0, 0, 0, 0)
    # n_pseudo is the leading run readers slice off as [:n_pseudo]: a
    # pseudo-record behind a real one is stored, not counted.
    for cuts in (None, [], [1]):
        n, n_pseudo, real, records = pseudo_frames([(begin, False), (cont, True)], cuts)
        assert (n, n_pseudo, real, records) == (2, 0, [True, True], [begin, cont])
    # A caller's pseudo-record opening a frame is counted and does not
    # trigger the lead (the BEGIN above is still open); the next real
    # record finds the frame non-empty.
    later = IntervalRecord(SEND, BeBits.CONTINUATION, 2, 0, 0, 0, 0)
    builder = FrameBuilder(PROFILE, MASK, 256, continuations=True)
    builder.add_batch(batch_from_records([begin]))
    builder.seal()
    builder.add_batch(batch_from_records([cont, cont]), np.array([True, True]))
    builder.add_batch(batch_from_records([running(1, 1), later]), np.array([False, True]))
    frame = builder.seal()
    assert (frame.n_records, frame.n_pseudo) == (4, 2)
    assert frame.real.tolist() == [False, False, True, True]
    # Not tracked: a pseudo BEGIN opens no state, so the next frame has no lead.
    builder.add_batch(
        batch_from_records([IntervalRecord(SEND, BeBits.BEGIN, 3, 0, 1, 0, 0)]), np.array([True])
    )
    builder.seal()
    builder.add_batch(batch_from_records([running(3, 1)]))
    assert builder.seal().n_pseudo == 1  # the lead of the real BEGIN only


@pytest.mark.parametrize("kind", ["interval", "slog", "live-slog", "live-interval"])
@pytest.mark.parametrize("written", [1, WRITE_BATCH_ROWS + 1])
def test_a_record_that_cannot_be_encoded_leaves_no_file_behind(tmp_path, kind, written):
    """Written last inside the ``with`` block, the record fails to encode
    only at close: the writer aborts, leaving neither the final name nor
    a temp sibling (nor a live container)."""
    make = {
        "interval": IntervalFileWriter, "slog": SlogWriter,
        "live-slog": LiveSlogWriter, "live-interval": LiveIntervalWriter,
    }[kind]
    path = tmp_path / "o.x"
    bad = IntervalRecord(
        SEND, BeBits.COMPLETE, written, 1, 0, 0, 0, {"msgSizeSent": 1 << 70}
    )
    with pytest.raises((OverflowError, struct.error)):
        with make(path, PROFILE, table(), field_mask=MASK, frame_bytes=512) as writer:
            for i in range(written - 1):
                writer.write(running(i, 1))
            writer.write(bad)
    assert sorted(tmp_path.iterdir()) == []
    assert not live_dir_for(path).exists()


def test_a_closed_live_writer_refuses_every_call(tmp_path):
    for make in (LiveSlogWriter, LiveIntervalWriter):
        path = tmp_path / f"o.{make.flavor}"
        writer = make(path, PROFILE, table(), field_mask=MASK)
        writer.write(running(0, 1))
        writer.close()
        for call in (
            writer.publish, writer.flush_data, writer.seal_frame,
            lambda: writer.write(running(1, 1)),
        ):
            with pytest.raises(FormatError, match="writer already closed"):
                call()


def test_frame_size_floor():
    with pytest.raises(FormatError, match="frame size too small"):
        FrameBuilder(PROFILE, MASK, 255, continuations=False)


def test_merge_with_slog_tee_encodes_each_written_record_once(tmp_path, monkeypatch):
    inputs = []
    for node in range(2):
        path = tmp_path / f"n{node}.ute"
        table = ThreadTable([ThreadEntry(0, 1, 1, node, 0, 0, "t")])
        with IntervalFileWriter(
            path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=512
        ) as writer:
            writer.write(IntervalRecord(SEND, BeBits.BEGIN, 0, 5, node, 0, 0))
            for i in range(60):
                writer.write(
                    IntervalRecord(
                        IntervalType.RUNNING, BeBits.COMPLETE, 10 + i * 100, 50, node, 0, 0
                    )
                )
        inputs.append(path)

    # One encode per written record, every row through the batch encoder —
    # the continuation leads too — and none record by record.
    calls = count_encodes(monkeypatch)
    result = merge_interval_files(
        inputs, tmp_path / "m.ute", PROFILE, slog_path=tmp_path / "m.slog",
        frame_bytes=512,
    )
    assert result.pseudo_records > 0
    assert calls == {"records": 0, "rows": result.records_out + result.pseudo_records}


WAITALL = IntervalType.for_mpi_fn(MPI_FN_IDS["MPI_Waitall"])


@pytest.mark.parametrize("make", [SlogWriter, LiveSlogWriter])
def test_written_records_encode_as_columns_but_vectors(tmp_path, monkeypatch, make):
    """Records fed through ``write`` — states open across hand-overs, so
    the live writer's leads take rows of several batches — reach the
    per-record encoder only where a type has a vector field (the
    Waitall's ``seqnos``)."""
    records = []
    for i in range(3 * WRITE_BATCH_ROWS):
        t, node = 10 * i, i % 2
        kind = i % 5
        if kind == 0:
            bebits = BeBits.BEGIN if i % 10 == 0 else BeBits.END
            records.append(IntervalRecord(
                SEND, bebits, t, 5, node, 0, 0, {"peer": 1 - node, "tag": 7, "msgSizeSent": i},
            ))
        elif kind == 1:
            bebits = BeBits.BEGIN if i % 4 == 1 else BeBits.END
            records.append(IntervalRecord(
                IntervalType.MARKER, bebits, t, 5, node, 0, 0, {"markerId": 1 + i % 3},
            ))
        elif kind == 2:
            records.append(IntervalRecord(
                WAITALL, BeBits.COMPLETE, t, 5, node, 0, 0, {"seqnos": [i, i + 1]},
            ))
        else:
            records.append(IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, t, 5, node, 0, 0))
    tables = ThreadTable([ThreadEntry(n, 1, 1, n, 0, 0, "t") for n in range(2)])
    calls = count_encodes(monkeypatch)
    with make(tmp_path / "o.slog", PROFILE, tables, field_mask=MASK, frame_bytes=512) as writer:
        for record in records:
            writer.write(record)
    assert calls["records"] == sum(r.itype == WAITALL for r in records)
    with SlogFile(tmp_path / "o.slog") as slog:
        if make is LiveSlogWriter:
            assert sum(f.n_pseudo for f in slog.frames) > 0  # it wrote leads
        assert [r for r in slog.records() if not r.is_pseudo] == norm(records)


def count_encodes(monkeypatch):
    """Count per-record encodes, and the rows the batch encoder takes."""
    calls = {"records": 0, "rows": 0}
    encode_record = IntervalRecord.encode
    encode_batch = columnar.encode_frame_batch

    def counting_record(self, profile, mask):
        calls["records"] += 1
        return encode_record(self, profile, mask)

    def counting_batch(batch, profile, mask):
        calls["rows"] += batch.n
        return encode_batch(batch, profile, mask)

    monkeypatch.setattr(IntervalRecord, "encode", counting_record)
    monkeypatch.setattr(columnar, "encode_frame_batch", counting_batch)
    return calls
