"""The batch-native write path against the record-at-a-time one.

Every output convert and slogmerge now reach by columns — encoded records,
cut frames, merge order, adjusted ticks, preview counters — is pinned equal
to what the per-record route produces: the per-field encoder
(:meth:`IntervalRecord.encode_fields`), one-row batches through
:meth:`FrameBuilder.add_batch`, ``heapq.merge``, the scalar ``adjust`` and
:meth:`PreviewBins.add`.
"""

import heapq
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocksync.adjust import ClockAdjustment, PiecewiseAdjustment
from repro.clocksync.ratio import ClockPair
from repro.core import IntervalFileWriter, IntervalReader, standard_profile
from repro.core.fields import (
    ATTRS, MASK_ALL_MERGED, MASK_ALL_PER_NODE, DataType, FieldSpec,
)
from repro.core.framebuilder import FrameBuilder
from repro.core.layout import layout_for
from repro.core.profilefmt import Profile, RecordSpec
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.live.writer import _DoublingPreview
from repro.query.columnar import (
    batch_from_records, concat_batches, decode_frame_batch,
    encode_frame_batch,
)
from repro.tracing.hooks import MPI_FN_IDS
from repro.utils.merge import merge_interval_files
from repro.utils.slog import PreviewBins
from tests.conftest import max_examples
from tests.test_framebuilder import streams

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)
MASKS = (MASK_ALL_PER_NODE, MASK_ALL_MERGED)
CORE = ("rectype", "start", "dura", "node", "cpu", "thread")


def reference(records, profile, mask):
    """The per-field encoder's bytes for each record."""
    return [r.encode_fields(profile, mask) for r in records]


# --------------------------------------------------------------- (a) encoding


def _field_values(fs):
    if fs.dtype == DataType.FLOAT:
        return st.floats(allow_nan=False, width=8 * fs.elem_len)
    bits = 8 * fs.elem_len
    lo, hi = (-(1 << bits - 1), (1 << bits - 1) - 1) if fs.dtype == DataType.INT else (
        0, (1 << bits) - 1
    )
    scalar = st.one_of(st.sampled_from([lo, hi, 0]), st.integers(lo, hi))
    if fs.vector:  # seqnos: 0, 1 or many
        return st.one_of(st.just([]), st.lists(scalar, min_size=1, max_size=1),
                         st.lists(scalar, min_size=2, max_size=20))
    return scalar


@st.composite
def record_of(draw, profile, itype):
    """A record of ``itype`` with in-range values, each extra field present
    or left to its default."""
    extra = {}
    for fs in profile.fields_for(itype, MASK_ALL_MERGED):
        name = profile.field_name(fs)
        if name not in CORE and draw(st.booleans()):
            extra[name] = draw(_field_values(fs))
    start = draw(st.one_of(st.sampled_from([0, (1 << 62)]), st.integers(0, 1 << 62)))
    dura = draw(st.integers(0, (1 << 62) - 1))
    u16 = st.one_of(st.sampled_from([0, 0xFFFF]), st.integers(0, 0xFFFF))
    return IntervalRecord(
        itype, draw(st.sampled_from(list(BeBits))), start, dura,
        draw(u16), draw(u16), draw(u16), extra,
    )


@st.composite
def record_streams(draw, profile=PROFILE):
    types = draw(st.lists(st.sampled_from(profile.record_types()), min_size=1, max_size=40))
    return [draw(record_of(profile, t)) for t in types]


@pytest.mark.parametrize("mask", MASKS)
def test_every_standard_type_round_trips(mask):
    """One record of every type: all three encoders agree, and the
    decoder's batch encodes back to the bytes it came from."""
    records = [
        IntervalRecord(t, BeBits.COMPLETE, 10 * i, 5, 1, 2, 3, {})
        for i, t in enumerate(PROFILE.record_types())
    ]
    want = reference(records, PROFILE, mask)
    assert [r.encode(PROFILE, mask) for r in records] == want
    blob, sizes = encode_frame_batch(
        decode_frame_batch(b"".join(want), PROFILE, mask), PROFILE, mask
    )
    assert blob == b"".join(want) and sizes.tolist() == [len(b) for b in want]


@settings(max_examples=max_examples(120), deadline=None)
@given(record_streams(), st.sampled_from(MASKS), st.randoms(use_true_random=False))
def test_encoders_agree_on_every_route(records, mask, rng):
    want = reference(records, PROFILE, mask)
    blob = b"".join(want)
    # One record at a time through the compiled layout.
    assert [r.encode(PROFILE, mask) for r in records] == want
    # A batch over record objects.
    assert encode_frame_batch(batch_from_records(records), PROFILE, mask)[0] == blob
    # The decoder's batch: the columnar encoder is its inverse.
    batch = decode_frame_batch(blob, PROFILE, mask)
    again, sizes = encode_frame_batch(batch, PROFILE, mask)
    assert again == blob
    assert sizes.tolist() == [len(b) for b in want]
    # Rows reordered, split and rejoined still encode as their records do.
    order = list(range(len(records)))
    rng.shuffle(order)
    assert encode_frame_batch(batch.take(np.array(order)), PROFILE, mask)[0] == b"".join(
        want[i] for i in order
    )
    cut = rng.randrange(len(records) + 1)
    parts = [batch.rows(0, cut), batch.rows(cut, batch.n)]
    assert encode_frame_batch(concat_batches(parts), PROFILE, mask)[0] == blob
    mixed = [batch_from_records(parts[0].to_records()), parts[1]]
    assert encode_frame_batch(concat_batches(mixed), PROFILE, mask)[0] == blob
    assert concat_batches(mixed).to_records() == batch.to_records()


@settings(max_examples=max_examples(60), deadline=None)
@given(record_streams(), st.sampled_from(MASKS))
def test_rows_encode_as_their_records_do(records, mask):
    """The reference convert's route: records in emission order -> one
    batch, sorted the way convert sorts -> bytes."""
    batch = batch_from_records(records)
    assert encode_frame_batch(batch, PROFILE, mask)[0] == b"".join(
        reference(records, PROFILE, mask)
    )
    # Sorted, the rows still carry their own extras.
    order = np.lexsort((batch.itype, batch.thread, batch.start, batch.end))
    assert encode_frame_batch(batch.take(order), PROFILE, mask)[0] == b"".join(
        reference([records[i] for i in order.tolist()], PROFILE, mask)
    )


def _padded_profile(body_len: int) -> Profile:
    """A one-type profile whose fixed record body is ``body_len`` bytes."""
    names = ["rectype", "start", "dura", "node", "cpu", "thread"]
    fields = [
        FieldSpec(0, DataType.UINT, 4), FieldSpec(1, DataType.UINT, 8),
        FieldSpec(2, DataType.UINT, 8), FieldSpec(3, DataType.UINT, 2),
        FieldSpec(4, DataType.UINT, 2), FieldSpec(5, DataType.UINT, 2),
    ]
    left = body_len - 26
    while left:
        width = 8 if left >= 8 else 1
        names.append(f"pad{len(names)}")
        fields.append(FieldSpec(len(names) - 1, DataType.UINT, width, attr=ATTRS["msg"]))
        left -= width
    return Profile(["Padded"], names, {7: RecordSpec(7, 0, tuple(fields))})


@pytest.mark.parametrize("body_len", [254, 255, 256])
def test_length_escape_boundary(body_len):
    profile = _padded_profile(body_len)
    mask = MASK_ALL_PER_NODE
    assert layout_for(profile, 7, mask).size == body_len
    records = [
        IntervalRecord(7, BeBits.COMPLETE, i, 1, 0, 0, 0, {"pad6": i, "pad7": 2**64 - 1 - i})
        for i in range(5)
    ]
    want = reference(records, profile, mask)
    assert len(want[0]) == body_len + (1 if body_len < 256 else 3)
    assert [r.encode(profile, mask) for r in records] == want
    batch = decode_frame_batch(b"".join(want), profile, mask)
    assert batch.to_records() == [
        IntervalRecord.decode(b, 0, profile, mask)[0] for b in want
    ]
    assert encode_frame_batch(batch, profile, mask)[0] == b"".join(want)


def _mixed_profile() -> Profile:
    """Three small fixed types, a fixed type whose body needs the length
    escape, and a type with a vector field."""
    core = [
        FieldSpec(0, DataType.UINT, 4), FieldSpec(1, DataType.UINT, 8),
        FieldSpec(2, DataType.UINT, 8), FieldSpec(3, DataType.UINT, 2),
        FieldSpec(4, DataType.UINT, 2), FieldSpec(5, DataType.UINT, 2),
    ]
    msg = ATTRS["msg"]
    pads = [FieldSpec(9 + i, DataType.UINT, 8, attr=msg) for i in range(35)]
    specs = {
        1: (),
        2: (FieldSpec(6, DataType.UINT, 8, attr=msg),),
        3: (FieldSpec(6, DataType.UINT, 4, attr=msg), FieldSpec(7, DataType.INT, 2, attr=msg)),
        4: tuple(pads),
        5: (FieldSpec(8, DataType.UINT, 4, attr=msg, vector=True, counter_len=2),),
    }
    names = ["rectype", "start", "dura", "node", "cpu", "thread", "a", "b", "seqnos"]
    return Profile(
        ["Core", "OneExtra", "TwoExtras", "Wide", "Vector"],
        names + [f"p{i}" for i in range(len(pads))],
        {t: RecordSpec(t, t - 1, (*core, *extra)) for t, extra in specs.items()},
    )


def test_one_frame_of_mixed_types_encodes_as_its_records_do():
    """The scatter writes each fixed type's items where the per-record
    encoder puts them, beside escaped and vector records in one frame."""
    profile, mask = _mixed_profile(), MASK_ALL_PER_NODE
    extras = {
        1: lambda i: {}, 2: lambda i: {"a": 2**64 - 1 - i},
        3: lambda i: {"a": i, "b": -i}, 4: lambda i: {f"p{k}": i * k for k in range(35)},
        5: lambda i: {"seqnos": list(range(i % 4))},
    }
    types = [1, 2, 5, 3, 4, 1, 4, 5, 2, 3, 3, 1, 4, 2]
    records = [
        IntervalRecord(t, BeBits.COMPLETE, 10 * i, 5, i % 3, 1, i, extras[t](i))
        for i, t in enumerate(types)
    ]
    want = [r.encode(profile, mask) for r in records]
    assert len(want[4]) == 3 + layout_for(profile, 4, mask).size > 258  # escaped
    blob = b"".join(want)
    batch = decode_frame_batch(blob, profile, mask)
    assert batch.to_records() == records
    again, sizes = encode_frame_batch(batch, profile, mask)
    assert again == blob and sizes.tolist() == [len(b) for b in want]
    order = np.argsort(batch.itype, kind="stable")
    assert encode_frame_batch(batch.take(order), profile, mask)[0] == b"".join(
        want[i] for i in order.tolist()
    )


OUT_OF_RANGE = [
    ("node", 1 << 16), ("cpu", -1), ("thread", 1 << 16), ("start", -1),
    ("dura", -5), ("peer", 1 << 31), ("tag", -(1 << 31) - 1),
    ("msgSizeSent", 1 << 64), ("seqno", -1), ("localStart", 1 << 64),
]


@pytest.mark.parametrize("name,value", OUT_OF_RANGE)
def test_a_value_its_field_cannot_hold_is_an_error_never_a_wrap(name, value):
    send = IntervalType.for_mpi_fn(0)
    core = dict(start=5, dura=5, node=1, cpu=1, thread=1)
    extra = {"peer": 1, "tag": 2, "msgSizeSent": 3, "seqno": 4, "localStart": 5}
    (core if name in core else extra)[name] = value
    record = IntervalRecord(send, BeBits.COMPLETE, core["start"], core["dura"], core["node"],
                            core["cpu"], core["thread"], extra)
    good = IntervalRecord(send, BeBits.COMPLETE, 1, 1, 1, 1, 1, {})
    with pytest.raises((struct.error, OverflowError)) as per_field:
        record.encode_fields(PROFILE, MASK_ALL_MERGED)
    with pytest.raises(type(per_field.value)):
        record.encode(PROFILE, MASK_ALL_MERGED)
    for records in ([good, record, good], [record]):
        with pytest.raises(type(per_field.value)):
            encode_frame_batch(batch_from_records(records), PROFILE, MASK_ALL_MERGED)


WAITALL = IntervalType.for_mpi_fn(MPI_FN_IDS["MPI_Waitall"])


@st.composite
def _extra_value(draw, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "bool":
        return draw(st.booleans())
    if kind == "float":
        return draw(st.floats(-1e6, 1e6))
    if kind == "u64":
        return draw(st.integers(1 << 63, (1 << 64) - 1))
    return draw(st.integers(0, 1000))


@st.composite
def mixed_records(draw):
    """Records of four types with extras that do not sit as one group per
    type: each record takes its type's fields in order, in reverse (one
    type under two key sets) or with one missing, the vector ``seqnos``
    on the Waitall, and now and then a bool, a float, a u64 past int64 or
    a time outside int64 — each list draws which of those it may hold."""
    value_kinds = ["int"] * 6 + sorted(draw(st.sets(st.sampled_from(["bool", "float", "u64"]))))
    time_kinds = ["int"] * 4 + sorted(
        draw(st.sets(st.sampled_from(["past int64", "sum past int64", "negative"])))
    )
    records = []
    for _ in range(draw(st.integers(1, 24))):
        itype = draw(st.sampled_from([IntervalType.RUNNING, SEND, IntervalType.MARKER, WAITALL]))
        names = [
            PROFILE.field_name(fs) for fs in PROFILE.fields_for(itype, MASK_ALL_MERGED)
            if PROFILE.field_name(fs) not in CORE
        ]
        keys = draw(st.sampled_from(["in order", "reversed", "one missing"]))
        if keys == "reversed":
            names.reverse()
        elif keys == "one missing" and names:
            names.pop(draw(st.integers(0, len(names) - 1)))
        extra = {
            name: draw(st.lists(st.integers(0, 1 << 32), max_size=3)) if name == "seqnos"
            else draw(_extra_value(value_kinds))
            for name in names
        }
        start, dura = draw(st.integers(0, 10**6)), draw(st.integers(0, 1000))
        times = draw(st.sampled_from(time_kinds))
        if times == "past int64":
            start += 1 << 63
        elif times == "sum past int64":
            start, dura = (1 << 63) - 1 - dura // 2, dura + 1
        elif times == "negative":
            start = -1 - start
        records.append(IntervalRecord(
            itype, draw(st.sampled_from(list(BeBits))), start, dura,
            draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3)), extra,
        ))
    return records


def keyed(records):
    """Records with each extra's key order and value types, which record
    equality alone does not see."""
    return [(r, [(k, type(v)) for k, v in r.extra.items()]) for r in records]


def encodes_as_its_records(batch, records, mask):
    """The batch encodes to the records' bytes, or fails as the first
    record that cannot be encoded does."""
    try:
        want = b"".join(r.encode(PROFILE, mask) for r in records)
    except Exception as error:  # whatever the per-record encoder raises
        with pytest.raises(type(error)) as got:
            encode_frame_batch(batch, PROFILE, mask)
        assert str(got.value) == str(error)
    else:
        blob, sizes = encode_frame_batch(batch, PROFILE, mask)
        assert blob == want
        assert sizes.tolist() == [len(r.encode(PROFILE, mask)) for r in records]


@settings(max_examples=max_examples(200), deadline=None)
@given(mixed_records(), st.sampled_from(MASKS), st.data())
def test_a_batch_of_records_is_columns_that_give_them_back(records, mask, data):
    batch = batch_from_records(records)
    encodes_as_its_records(batch, records, mask)
    assert keyed(batch.to_records()) == keyed(records)
    # Joined to a decoded part (when the tail reads back), then cut and
    # reordered, the rows still give back and encode as their records.
    cut = data.draw(st.integers(0, len(records)), label="cut")
    head, tail = records[:cut], records[cut:]
    part = batch_from_records(tail)
    try:
        part = decode_frame_batch(
            b"".join(r.encode(PROFILE, mask) for r in tail), PROFILE, mask
        )
        tail = part.to_records()
    except (struct.error, OverflowError, TypeError):
        pass  # the tail stays record-built
    whole = concat_batches([batch_from_records(head), part])
    expect = head + tail
    assert keyed(whole.to_records()) == keyed(expect)
    encodes_as_its_records(whole, expect, mask)
    lo = data.draw(st.integers(0, len(expect)), label="lo")
    hi = data.draw(st.integers(lo, len(expect)), label="hi")
    assert keyed(whole.rows(lo, hi).to_records()) == keyed(expect[lo:hi])
    encodes_as_its_records(whole.rows(lo, hi), expect[lo:hi], mask)
    order = data.draw(st.permutations(range(len(expect))), label="order")
    taken = whole.take(np.array(order, dtype=np.intp))
    assert keyed(taken.to_records()) == keyed([expect[i] for i in order])
    encodes_as_its_records(taken, [expect[i] for i in order], mask)


# ----------------------------------------------------------- (b) frame cuts


def as_batch(records, mask=MASK_ALL_MERGED):
    """The records as the decoder's (column-backed) batch."""
    return decode_frame_batch(
        b"".join(r.encode(PROFILE, mask) for r in records), PROFILE, mask
    )


def summary(frame):
    return (
        frame.blob, frame.n_records, frame.n_pseudo, frame.start_time, frame.end_time,
        frame.batch.to_records(), frame.real.tolist(),
    )


def by_batches(chunks, frame_bytes, continuations):
    builder = FrameBuilder(PROFILE, MASK_ALL_MERGED, frame_bytes, continuations=continuations)
    return [summary(f) for f in builder.batch_frames(as_batch(c) for c in chunks if c)]


def normalised(records):
    """Records as they read back (defaults filled), for comparing batches."""
    return as_batch(records).to_records()


def by_rows(records, frame_bytes, continuations):
    """The frames cut from one-row batches."""
    return by_batches([[r] for r in records], frame_bytes, continuations)


@settings(max_examples=max_examples(150), deadline=None)
@given(
    streams(), st.sampled_from([256, 2048, 32 * 1024]), st.booleans(),
    st.lists(st.integers(0, 120), max_size=6),
)
def test_add_batch_cuts_the_frames_a_loop_of_add_cuts(records, frame_bytes, leads, cuts):
    records = normalised(records)
    bounds = sorted({min(c, len(records)) for c in cuts} | {0, len(records)})
    chunks = [records[a:b] for a, b in zip(bounds, bounds[1:])]
    assert by_batches(chunks, frame_bytes, leads) == by_rows(records, frame_bytes, leads)


def _many_open_states():
    """16 states opened and left open, then enough Running pieces for
    several 256-byte frames: every lead (~1 KB) is larger than a frame."""
    send = IntervalType.for_mpi_fn(0)
    records = [
        IntervalRecord(send, BeBits.BEGIN, i, 1, 0, 0, i, {"peer": i}) for i in range(16)
    ]
    records += [
        IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, 100 + 10 * i, 5, 0, 0, 0)
        for i in range(40)
    ]
    return normalised(records)


def test_a_lead_larger_than_a_frame_stays_whole_either_way():
    records = _many_open_states()
    want = by_rows(records, 256, True)
    assert max(f[2] for f in want) == 16 and min(f[1] - f[2] for f in want[1:]) == 1
    assert by_batches([records], 256, True) == want
    assert by_batches([records[:20], records[20:]], 256, True) == want


def test_a_chunk_boundary_on_a_cut_changes_nothing():
    records = _many_open_states()
    want = by_rows(records, 512, True)
    # Chunks that end exactly where a frame is sealed.
    bounds, seen = [0], 0
    for frame in want:
        seen += frame[1] - frame[2]
        bounds.append(seen)
    chunks = [records[a:b] for a, b in zip(bounds, bounds[1:])]
    assert by_batches(chunks, 512, True) == want


def test_an_out_of_order_row_raises_and_leaves_the_frame_untouched():
    def running(start, dura):
        return IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, start, dura, 0, 0, 0)

    good = normalised([running(0, 10), running(5, 20)])
    builder = FrameBuilder(PROFILE, MASK_ALL_MERGED, 4096, continuations=True)
    assert builder.add_batch(as_batch(good)) == []
    with pytest.raises(FormatError, match="end-time order: 24 after 25"):
        builder.add_batch(as_batch([running(4, 20)]))
    with pytest.raises(FormatError, match="end-time order: 26 after 40"):
        builder.add_batch(as_batch([running(30, 10), running(6, 20)]))
    assert builder.n_records == 2
    builder.add_batch(as_batch([running(30, 1)]))  # the watermark did not move either
    frame = builder.seal()
    assert frame.batch.to_records() == good + normalised([running(30, 1)])


# ---------------------------------------------------------- (c) merge order


@st.composite
def tied_inputs(draw):
    """Per input file, the end-time steps of its records: mostly zero, so
    ends repeat in long runs within and across files; very unequal counts."""
    n_files = draw(st.integers(2, 4))
    steps = st.sampled_from([0, 0, 0, 0, 1, 3])
    return [
        draw(st.lists(steps, min_size=1, max_size=draw(st.sampled_from([3, 30, 250]))))
        for _ in range(n_files)
    ]


@settings(max_examples=max_examples(25), deadline=None)
@given(tied_inputs())
def test_chunked_merge_order_is_heapq_merge_order(tmp_path_factory, inputs):
    tmp_path = tmp_path_factory.mktemp("tied")
    paths, keyed = [], []
    for node, steps in enumerate(inputs):
        end, records = 1000, []
        for i, step in enumerate(steps):
            end += step
            records.append(
                IntervalRecord(
                    IntervalType.RUNNING, BeBits.COMPLETE, end - 1 - i % 3, 1 + i % 3,
                    node, 0, 0,
                )
            )
        path = tmp_path / f"n{node}.ute"
        table = ThreadTable([ThreadEntry(node, 1, 100 + node, node, 0, 0, "t")])
        with IntervalFileWriter(
            path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=256
        ) as writer:
            for record in records:
                writer.write(record)
        paths.append(path)
        # No clock pairs: the adjustment is the identity.
        keyed.append(
            [((r.end, node, i), (r.node, r.start, r.end)) for i, r in enumerate(records)]
        )
    merge_interval_files(paths, tmp_path / "m.ute", PROFILE, frame_bytes=256)
    with IntervalReader(tmp_path / "m.ute", PROFILE) as reader:
        got = [(r.node, r.extra["localStart"], r.end) for r in reader.intervals()]
    assert got == [row for _, row in heapq.merge(*keyed)]


# --------------------------------------------------------------- (d) adjust

TICKS = st.one_of(st.integers(0, 1 << 40), st.integers(1 << 53, 1 << 61))


@settings(max_examples=max_examples(200), deadline=None)
@given(
    st.integers(0, 1 << 40), st.integers(0, 1 << 40),
    st.floats(min_value=0.9, max_value=1.1), st.lists(TICKS, min_size=1, max_size=50),
)
def test_linear_adjust_array_is_the_scalar_adjust(origin_global, origin_local, ratio, ticks):
    adjustment = ClockAdjustment(origin_global, origin_local, ratio)
    got = adjustment.adjust_array(np.array(ticks, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [adjustment.adjust(t) for t in ticks]


@settings(max_examples=max_examples(200), deadline=None)
@given(
    st.lists(st.tuples(st.integers(1000, 1 << 30), st.floats(-2000.0, 2000.0)),
             min_size=2, max_size=8),
    st.lists(TICKS, min_size=1, max_size=50),
)
def test_piecewise_adjust_array_is_the_scalar_adjust(steps, ticks):
    pairs, global_ts, local_ts = [], 1 << 20, 1 << 30
    for local_step, drift_ppm in steps:
        global_ts += max(1, round(local_step * (1 + drift_ppm * 1e-6)))
        local_ts += local_step
        pairs.append(ClockPair(global_ts, local_ts))
    adjustment = PiecewiseAdjustment(pairs)
    # Before the first pair, on and between pairs, and past the last one.
    ticks = ticks + [0, pairs[0].local_ts, pairs[1].local_ts - 1, pairs[-1].local_ts + 12345]
    got = adjustment.adjust_array(np.array(ticks, dtype=np.int64))
    assert got.tolist() == [adjustment.adjust(t) for t in ticks]


# -------------------------------------------------------------- (e) preview


@st.composite
def preview_rows(draw):
    n = draw(st.integers(1, 80))
    itype = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    start = draw(st.lists(st.integers(0, 120_000), min_size=n, max_size=n))
    dura = draw(st.lists(st.sampled_from([0, 1, 7, 999, 40_000]), min_size=n, max_size=n))
    return itype, start, [s + d for s, d in zip(start, dura)]


def _record(itype, start, end):
    return IntervalRecord(itype, BeBits.COMPLETE, start, end - start, 0, 0, 0)


@settings(max_examples=max_examples(150), deadline=None)
@given(preview_rows(), st.integers(1, 60), st.integers(0, 500), st.integers(1, 100_000))
def test_preview_columns_sum_to_the_per_record_floats(rows, bins, t0, span):
    one, many = PreviewBins(bins, t0, t0 + span), PreviewBins(bins, t0, t0 + span)
    for row in zip(*rows):
        one.add(_record(*row))
    many.add_columns(*(np.array(column, dtype=np.int64) for column in rows))
    assert one.counters.keys() == many.counters.keys()
    for itype, counters in one.counters.items():
        assert (counters == many.counters[itype]).all()  # ==, not approx


@settings(max_examples=max_examples(150), deadline=None)
@given(preview_rows(), st.integers(1, 60))
def test_doubling_preview_folds_between_the_same_rows(rows, bins):
    order = np.argsort(np.array(rows[2]), kind="stable")  # a frame's rows: by end
    columns = [np.array(column, dtype=np.int64)[order] for column in rows]
    one, many = _DoublingPreview(bins), _DoublingPreview(bins)
    for row in zip(*(column.tolist() for column in columns)):
        one.add(_record(*row))
    many.add_columns(*columns)
    assert one.t1 == many.t1 and one.counters.keys() == many.counters.keys()
    for itype, counters in one.counters.items():
        assert (counters == many.counters[itype]).all()


def test_preview_past_2_to_the_53_takes_the_record_loop():
    one, many = PreviewBins(7, 0, (1 << 60) + 3), PreviewBins(7, 0, (1 << 60) + 3)
    rows = [(1, (1 << 59) + i, (1 << 59) + 3 * i + (1 << 57)) for i in range(20)]
    for row in rows:
        one.add(_record(*row))
    many.add_columns(*(np.array(column, dtype=np.int64) for column in zip(*rows)))
    assert (one.counters[1] == many.counters[1]).all()
