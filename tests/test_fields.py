"""Tests for field description words and value packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import ATTRS, DataType, FieldSpec, MASK_ALL_MERGED, MASK_CORE
from repro.errors import FormatError
from tests.conftest import max_examples


class TestDescriptionWord:
    def test_roundtrip_scalar(self):
        fs = FieldSpec(name_index=7, dtype=DataType.UINT, elem_len=8, attr=2)
        assert FieldSpec.decode_word(fs.encode_word()) == fs

    def test_roundtrip_vector(self):
        fs = FieldSpec(
            name_index=4095,
            dtype=DataType.CHAR,
            elem_len=1,
            attr=63,
            vector=True,
            counter_len=2,
        )
        assert FieldSpec.decode_word(fs.encode_word()) == fs

    @given(
        name_index=st.integers(0, 4095),
        dtype=st.sampled_from([DataType.UINT, DataType.INT]),
        elem_len=st.sampled_from([1, 2, 4, 8]),
        attr=st.integers(0, 63),
        counter_len=st.integers(1, 4),
        vector=st.booleans(),
    )
    @settings(max_examples=max_examples(200))
    def test_roundtrip_property(self, name_index, dtype, elem_len, attr, counter_len, vector):
        fs = FieldSpec(
            name_index=name_index,
            dtype=dtype,
            elem_len=elem_len,
            attr=attr,
            vector=vector,
            counter_len=counter_len if vector else 0,
        )
        assert FieldSpec.decode_word(fs.encode_word()) == fs

    def test_invalid_name_index_rejected(self):
        with pytest.raises(FormatError):
            FieldSpec(name_index=4096, dtype=DataType.UINT, elem_len=8)

    def test_invalid_float_size_rejected(self):
        with pytest.raises(FormatError):
            FieldSpec(name_index=0, dtype=DataType.FLOAT, elem_len=2)

    def test_vector_without_counter_rejected(self):
        with pytest.raises(FormatError):
            FieldSpec(name_index=0, dtype=DataType.UINT, elem_len=8, vector=True)

    def test_scalar_with_counter_rejected(self):
        with pytest.raises(FormatError):
            FieldSpec(name_index=0, dtype=DataType.UINT, elem_len=8, counter_len=2)


class TestValuePacking:
    def test_uint_roundtrip(self):
        fs = FieldSpec(name_index=0, dtype=DataType.UINT, elem_len=8)
        blob = fs.pack_value(2**60)
        value, consumed = fs.unpack_value(blob, 0)
        assert value == 2**60
        assert consumed == 8

    def test_signed_roundtrip(self):
        fs = FieldSpec(name_index=0, dtype=DataType.INT, elem_len=4)
        value, _ = fs.unpack_value(fs.pack_value(-1), 0)
        assert value == -1

    def test_float_roundtrip(self):
        fs = FieldSpec(name_index=0, dtype=DataType.FLOAT, elem_len=8)
        value, _ = fs.unpack_value(fs.pack_value(3.25), 0)
        assert value == 3.25

    def test_string_vector_roundtrip(self):
        fs = FieldSpec(
            name_index=0, dtype=DataType.CHAR, elem_len=1, vector=True, counter_len=2
        )
        value, _ = fs.unpack_value(fs.pack_value("Initial Phase"), 0)
        assert value == "Initial Phase"

    def test_numeric_vector_roundtrip(self):
        fs = FieldSpec(
            name_index=0, dtype=DataType.UINT, elem_len=4, vector=True, counter_len=1
        )
        value, _ = fs.unpack_value(fs.pack_value([1, 2, 3]), 0)
        assert value == [1, 2, 3]

    def test_vector_overflowing_counter_rejected(self):
        fs = FieldSpec(
            name_index=0, dtype=DataType.UINT, elem_len=1, vector=True, counter_len=1
        )
        with pytest.raises(FormatError, match="too long"):
            fs.pack_value([1] * 300)

    def test_truncated_vector_rejected(self):
        fs = FieldSpec(
            name_index=0, dtype=DataType.UINT, elem_len=4, vector=True, counter_len=1
        )
        blob = fs.pack_value([1, 2, 3])
        with pytest.raises(FormatError, match="truncated"):
            fs.unpack_value(blob[:-2], 0)

    @given(st.text(max_size=100))
    @settings(max_examples=max_examples(100))
    def test_string_roundtrip_property(self, text):
        fs = FieldSpec(
            name_index=0, dtype=DataType.CHAR, elem_len=1, vector=True, counter_len=2
        )
        value, _ = fs.unpack_value(fs.pack_value(text), 0)
        assert value == text


class TestSelectionMask:
    def test_core_always_present(self):
        fs = FieldSpec(name_index=0, dtype=DataType.UINT, elem_len=8, attr=ATTRS["core"])
        assert fs.present_in(MASK_CORE)
        assert fs.present_in(MASK_ALL_MERGED)

    def test_local_only_in_merged(self):
        fs = FieldSpec(name_index=0, dtype=DataType.UINT, elem_len=8, attr=ATTRS["local"])
        assert not fs.present_in(MASK_CORE)
        assert fs.present_in(MASK_ALL_MERGED)
