"""The record-length escape boundary (core/records.py).

A record body under 256 bytes gets a 1-byte length prefix; a zero first
byte escapes to a 2-byte length.  These tests pin the edge exactly — body
lengths 253..257, i.e. total encoded records of 254/255/256 bytes and the
first escaped sizes — at the unit level, through an interval-file round
trip, and through the full write → convert → merge → read pipeline (where
MPI_Waitall's variable-length seqnos vector crosses the boundary).
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import IntervalFileWriter, IntervalReader
from repro.core.fields import ATTRS, DataType, FieldSpec, MASK_CORE
from repro.core.profilefmt import Profile, RecordSpec, standard_profile
from repro.core.records import (
    BeBits,
    IntervalRecord,
    IntervalType,
    decode_length,
    encode_length,
    skip_record,
)
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.query.columnar import _scan_record_frames
from repro.tracing.events import RawEvent, global_clock_event
from repro.tracing.hooks import HookId, MPI_FN_IDS, hook_for_mpi_begin, hook_for_mpi_end
from repro.tracing.rawfile import RawFileHeader, RawTraceWriter
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from tests.conftest import SOURCE_KINDS, byte_source, max_examples

#: Fixed body bytes of the test profile's record: the six common fields
#: (4 + 8 + 8 + 2 + 2 + 2) plus the label vector's 2-byte counter.
_FIXED_BODY = 28


def boundary_profile() -> Profile:
    """A profile whose single record type carries a char-vector ``label``,
    making the encoded body length tunable byte-by-byte."""
    names = ["rectype", "start", "dura", "node", "cpu", "thread", "label"]
    f = names.index
    u64 = dict(dtype=DataType.UINT, elem_len=8)
    u16 = dict(dtype=DataType.UINT, elem_len=2)
    u32 = dict(dtype=DataType.UINT, elem_len=4)
    fields = (
        FieldSpec(f("rectype"), **u32),
        FieldSpec(f("start"), **u64),
        FieldSpec(f("dura"), **u64),
        FieldSpec(f("node"), **u16),
        FieldSpec(f("cpu"), **u16),
        FieldSpec(f("thread"), **u16),
        FieldSpec(f("label"), dtype=DataType.CHAR, elem_len=1, vector=True, counter_len=2),
    )
    return Profile(["Padded"], names, {0: RecordSpec(0, 0, fields)})


class TestLengthPrefixUnit:
    @pytest.mark.parametrize("body_len", [1, 253, 254, 255])
    def test_short_form(self, body_len):
        prefix = encode_length(body_len)
        assert len(prefix) == 1
        decoded, body_offset = decode_length(prefix + b"x" * body_len, 0)
        assert (decoded, body_offset) == (body_len, 1)

    @pytest.mark.parametrize("body_len", [0, 256, 257, 0xFFFF])
    def test_escaped_form(self, body_len):
        prefix = encode_length(body_len)
        assert len(prefix) == 3
        assert prefix[0] == 0
        decoded, body_offset = decode_length(prefix + b"x" * body_len, 0)
        assert (decoded, body_offset) == (body_len, 3)

    @pytest.mark.parametrize("body_len", [253, 254, 255, 256, 257])
    def test_skip_record_lands_on_next(self, body_len):
        blob = encode_length(body_len) + b"x" * body_len + b"\x05"
        next_offset = skip_record(blob, 0)
        assert blob[next_offset] == 5


def reference_walk(blob: bytes) -> list[int]:
    """A plain ``skip_record`` loop: every record's offset, or the record
    decoder's error for the first record that does not fit the frame."""
    offsets = []
    pos = 0
    while pos < len(blob):
        try:
            body_len, _ = decode_length(blob, pos)
        except struct.error:  # an escape without its two length bytes
            raise FormatError(f"truncated interval record at offset {pos}") from None
        nxt = skip_record(blob, pos)
        if body_len < 4 or nxt > len(blob):
            raise FormatError(f"truncated interval record at offset {pos}")
        offsets.append(pos)
        pos = nxt
    return offsets


def _framed(body_len: int, escaped: bool) -> bytes:
    """One record of ``body_len`` filler bytes; ``escaped`` forces the
    three-byte prefix on a body the one-byte form could carry."""
    if escaped or not 0 < body_len < 256:
        return b"\x00" + body_len.to_bytes(2, "little") + b"\xab" * body_len
    return bytes((body_len,)) + b"\xab" * body_len


_records = st.lists(
    st.builds(
        _framed,
        st.one_of(
            st.integers(0, 3), st.integers(4, 40), st.just(255), st.integers(256, 300),
        ),
        st.booleans(),
    ),
    max_size=6,
).map(b"".join)
_tails = st.one_of(
    st.just(b""),
    st.just(b"\x00"),  # an escape cut 2 bytes before the end
    st.binary(min_size=1, max_size=1).map(b"\x00".__add__),  # ... and 1 byte before
    st.integers(4, 255).map(lambda k: bytes((k,)) + b"\xab" * (k // 2)),  # an overrun
    st.binary(max_size=8),
)


@settings(max_examples=max_examples(300), deadline=None)
@given(blob=st.one_of(st.builds(bytes.__add__, _records, _tails), st.binary(max_size=600)))
@example(blob=_framed(255, False) + _framed(256, False) + _framed(4, True))
@example(blob=_framed(10, False) + b"\x00")
@example(blob=_framed(10, False) + b"\x00\x05")
@example(blob=_framed(3, False))
@example(blob=_framed(0, True))
@example(blob=_framed(10, False) + b"\x20" + b"\xab" * 8)
def test_walk_matches_a_skip_record_loop(blob):
    """The columnar walk finds the reference loop's record offsets, or
    raises its error naming the same offset."""
    try:
        expected = reference_walk(blob)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _scan_record_frames(blob)
        assert str(got.value) == str(exc)
        return
    prefixes, bodies, lengths = _scan_record_frames(blob)
    assert prefixes == expected
    assert list(zip(lengths.tolist(), bodies.tolist())) == [
        decode_length(blob, pos) for pos in expected
    ]


class TestRecordBoundary:
    """Whole encoded records of exactly 254/255/256 bytes (and the first
    escaped sizes) survive encode/decode and the interval-file round trip."""

    # body 253 -> record 254; 254 -> 255; 255 -> 256 (the last short form);
    # 256 -> 259 and 257 -> 260 (escaped).
    BODIES = [253, 254, 255, 256, 257]

    @staticmethod
    def _record(body_len: int, seq: int) -> IntervalRecord:
        label = chr(ord("a") + seq % 26) * (body_len - _FIXED_BODY)
        return IntervalRecord(
            0, BeBits.COMPLETE, seq * 1000, 500, 0, 0, 0, {"label": label}
        )

    @pytest.mark.parametrize("body_len", BODIES)
    def test_encode_decode_roundtrip(self, body_len):
        profile = boundary_profile()
        record = self._record(body_len, 0)
        blob = record.encode(profile, MASK_CORE)
        expected_prefix = 1 if body_len < 256 else 3
        assert len(blob) == expected_prefix + body_len
        decoded, consumed = IntervalRecord.decode(blob, 0, profile, MASK_CORE)
        assert consumed == len(blob)
        assert decoded == record

    @pytest.mark.parametrize("mode", SOURCE_KINDS)
    def test_interval_file_roundtrip(self, tmp_path, mode):
        profile = boundary_profile()
        records = [self._record(body, i) for i, body in enumerate(self.BODIES)]
        path = tmp_path / "boundary.ute"
        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
        with IntervalFileWriter(
            path, profile, table, field_mask=MASK_CORE, frame_bytes=256
        ) as writer:
            for record in records:
                writer.write(record)
        with IntervalReader(path, profile, source=byte_source(mode, path)) as reader:
            assert list(reader.intervals()) == records


class TestWaitallPipelineBoundary:
    """Full pipeline: Waitall seqnos vectors sized to cross the escape edge
    survive write → convert → merge → read intact."""

    # Per-node Waitall body is 51 + 8n bytes: n in 24..28 spans the 1-byte /
    # escaped prefix boundary (243..275 bytes).
    SIZES = list(range(24, 29))

    def _write_node(self, tmp_path):
        waitall = MPI_FN_IDS["MPI_Waitall"]
        path = tmp_path / "node0.raw"
        with RawTraceWriter(path, RawFileHeader(0, 2, 0)) as writer:
            writer.write(global_clock_event(0, 0))
            writer.write(RawEvent(HookId.THREAD_INFO, 0, 500, 0, (1000, 0, 0, 0), "main"))
            writer.write(RawEvent(HookId.DISPATCH, 5, 500, 0))
            t = 10
            for n in self.SIZES:
                writer.write(RawEvent(hook_for_mpi_begin(waitall), t, 500, 0, (0,)))
                seqnos = tuple(range(1, n + 1))
                writer.write(RawEvent(hook_for_mpi_end(waitall), t + 50, 500, 0, seqnos))
                t += 100
        return path

    def test_seqnos_vectors_cross_boundary_intact(self, tmp_path):
        raw = self._write_node(tmp_path)
        result = convert_traces([raw], tmp_path / "ivl")
        profile = standard_profile()
        waitall_type = IntervalType.for_mpi_fn(MPI_FN_IDS["MPI_Waitall"])

        with IntervalReader(result.interval_paths[0], profile) as reader:
            vectors = [
                r.extra["seqnos"] for r in reader.intervals()
                if r.itype == waitall_type
            ]
        assert vectors == [list(range(1, n + 1)) for n in self.SIZES]

        merged = tmp_path / "merged.ute"
        merge_interval_files(result.interval_paths, merged, profile)
        with IntervalReader(merged, profile) as reader:
            merged_vectors = [
                r.extra["seqnos"] for r in reader.intervals()
                if r.itype == waitall_type
            ]
        assert merged_vectors == vectors
