"""Tests for interval record encoding: bebits, length prefixes, masks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import MASK_ALL_MERGED, MASK_ALL_PER_NODE, MASK_CORE
from repro.core.profilefmt import standard_profile
from repro.core.records import (
    BeBits,
    IntervalRecord,
    IntervalType,
    decode_length,
    encode_length,
    pack_type_word,
    skip_record,
    unpack_type_word,
)
from repro.errors import FormatError
from repro.tracing.hooks import MPI_FN_IDS
from tests.conftest import max_examples

PROFILE = standard_profile()


def send_record(**overrides):
    base = dict(
        itype=IntervalType.for_mpi_fn(MPI_FN_IDS["MPI_Send"]),
        bebits=BeBits.COMPLETE,
        start=1000,
        duration=250,
        node=2,
        cpu=1,
        thread=3,
        extra={"peer": 5, "tag": 9, "msgSizeSent": 4096, "seqno": 77, "addr": 0xDEAD},
    )
    base.update(overrides)
    return IntervalRecord(**base)


class TestTypeWord:
    @pytest.mark.parametrize("bebits", list(BeBits))
    def test_roundtrip_all_bebits(self, bebits):
        word = pack_type_word(42, bebits)
        assert unpack_type_word(word) == (42, bebits)

    def test_bebits_values_match_paper_variants(self):
        # complete, begin, continuation, end — four variants.
        assert {b.name for b in BeBits} == {"COMPLETE", "BEGIN", "CONTINUATION", "END"}


class TestLengthPrefix:
    def test_short_record_one_byte(self):
        assert encode_length(100) == bytes([100])
        assert decode_length(bytes([100]) + b"x" * 100, 0) == (100, 1)

    def test_long_record_escapes_to_two_bytes(self):
        blob = encode_length(300)
        assert blob[0] == 0
        assert decode_length(blob, 0) == (300, 3)

    def test_boundary_255(self):
        assert encode_length(255) == bytes([255])

    def test_boundary_256(self):
        assert encode_length(256)[0] == 0

    def test_oversized_rejected(self):
        with pytest.raises(FormatError):
            encode_length(70000)

    @given(st.integers(min_value=1, max_value=65535))
    @settings(max_examples=max_examples(200))
    def test_roundtrip_property(self, n):
        blob = encode_length(n)
        length, offset = decode_length(blob, 0)
        assert length == n
        assert offset == len(blob)


class TestRecordEncoding:
    def test_roundtrip_per_node_mask(self):
        rec = send_record()
        blob = rec.encode(PROFILE, MASK_ALL_PER_NODE)
        decoded, consumed = IntervalRecord.decode(blob, 0, PROFILE, MASK_ALL_PER_NODE)
        assert consumed == len(blob)
        assert decoded.itype == rec.itype
        assert decoded.bebits == rec.bebits
        assert (decoded.start, decoded.duration) == (1000, 250)
        assert (decoded.node, decoded.cpu, decoded.thread) == (2, 1, 3)
        assert decoded.extra["msgSizeSent"] == 4096
        assert decoded.extra["seqno"] == 77

    def test_core_mask_drops_extras(self):
        rec = send_record()
        blob = rec.encode(PROFILE, MASK_CORE)
        decoded, _ = IntervalRecord.decode(blob, 0, PROFILE, MASK_CORE)
        assert decoded.extra == {}
        assert len(blob) < len(rec.encode(PROFILE, MASK_ALL_PER_NODE))

    def test_merged_mask_adds_local_start(self):
        rec = send_record(extra={"peer": 5, "tag": 9, "msgSizeSent": 1, "seqno": 1,
                                 "addr": 0, "localStart": 999})
        blob = rec.encode(PROFILE, MASK_ALL_MERGED)
        decoded, _ = IntervalRecord.decode(blob, 0, PROFILE, MASK_ALL_MERGED)
        assert decoded.extra["localStart"] == 999

    def test_mask_mismatch_detected(self):
        """Decoding with the wrong mask must fail loudly, not misparse."""
        rec = send_record()
        blob = rec.encode(PROFILE, MASK_ALL_PER_NODE)
        with pytest.raises(FormatError, match="length mismatch"):
            IntervalRecord.decode(blob, 0, PROFILE, MASK_CORE)

    def test_missing_extra_fields_default_to_zero(self):
        rec = send_record(extra={})
        blob = rec.encode(PROFILE, MASK_ALL_PER_NODE)
        decoded, _ = IntervalRecord.decode(blob, 0, PROFILE, MASK_ALL_PER_NODE)
        assert decoded.extra["msgSizeSent"] == 0
        assert decoded.extra["peer"] == 0

    def test_running_record_minimal(self):
        rec = IntervalRecord(IntervalType.RUNNING, BeBits.BEGIN, 0, 10, 0, 0, 0)
        blob = rec.encode(PROFILE, MASK_ALL_PER_NODE)
        decoded, _ = IntervalRecord.decode(blob, 0, PROFILE, MASK_ALL_PER_NODE)
        assert decoded.bebits is BeBits.BEGIN
        assert decoded.itype == IntervalType.RUNNING

    def test_skip_record_without_decoding(self):
        rec = send_record()
        blob = rec.encode(PROFILE, MASK_ALL_PER_NODE) + b"TRAILER"
        assert blob[skip_record(blob, 0):] == b"TRAILER"

    @given(
        itype=st.sampled_from(PROFILE.record_types()),
        bebits=st.sampled_from(list(BeBits)),
        start=st.integers(min_value=0, max_value=2**62),
        duration=st.integers(min_value=0, max_value=2**32),
        node=st.integers(min_value=0, max_value=65535),
        cpu=st.integers(min_value=0, max_value=255),
        thread=st.integers(min_value=0, max_value=511),
    )
    @settings(max_examples=max_examples(200))
    def test_roundtrip_property_all_types(self, itype, bebits, start, duration, node, cpu, thread):
        rec = IntervalRecord(itype, bebits, start, duration, node, cpu, thread)
        for mask in (MASK_CORE, MASK_ALL_PER_NODE, MASK_ALL_MERGED):
            decoded, _ = IntervalRecord.decode(rec.encode(PROFILE, mask), 0, PROFILE, mask)
            assert (decoded.itype, decoded.bebits) == (itype, bebits)
            assert (decoded.start, decoded.duration) == (start, duration)
            assert (decoded.node, decoded.cpu, decoded.thread) == (node, cpu, thread)


class TestRecordAccessors:
    def test_end_property(self):
        assert send_record().end == 1250

    def test_get_common_and_extra(self):
        rec = send_record()
        assert rec.get("start") == 1000
        assert rec.get("dura") == 250
        assert rec.get("node") == 2
        assert rec.get("cpu") == 1
        assert rec.get("thread") == 3
        assert rec.get("peer") == 5
        assert rec.get("rectype") == pack_type_word(rec.itype, rec.bebits)

    def test_get_unknown_field_raises(self):
        with pytest.raises(FormatError, match="no field"):
            send_record().get("bogus")

    def test_has(self):
        rec = send_record()
        assert rec.has("start") and rec.has("peer") and rec.has("rectype")
        assert not rec.has("bogus")
