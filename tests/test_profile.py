"""Tests for the description profile file."""

import struct
import zlib
from unittest import mock

import pytest

from repro.core.fields import ATTRS, DataType, FieldSpec, MASK_ALL_MERGED, MASK_ALL_PER_NODE, MASK_CORE
from repro.core.profilefmt import MAGIC, Profile, RecordSpec, standard_profile
from repro.core.records import IntervalType
from repro.errors import FormatError, ProfileMismatchError
from repro.tracing.hooks import MPI_FN_NAMES
from tests.conftest import DATA_DIR


def small_profile():
    fields = ["rectype", "start", "dura", "node", "cpu", "thread", "x"]
    specs = {
        0: RecordSpec(
            0,
            0,
            tuple(
                FieldSpec(i, dtype=DataType.UINT, elem_len=8 if i < 3 else 2)
                for i in range(6)
            ),
        )
    }
    return Profile(["Running"], fields, specs)


class TestRecordSpec:
    def test_roundtrip(self):
        spec = RecordSpec(
            5,
            2,
            (
                FieldSpec(0, dtype=DataType.UINT, elem_len=4),
                FieldSpec(1, dtype=DataType.INT, elem_len=8, attr=3),
            ),
        )
        decoded, consumed = RecordSpec.decode(spec.encode(), 0)
        assert decoded == spec
        assert consumed == len(spec.encode())

    def test_structure_matches_figure_3(self):
        """Figure 3: 4-byte type, 1-byte field count, 2-byte name index,
        1-byte reserved, then 4 bytes per field."""
        spec = RecordSpec(7, 1, (FieldSpec(0, dtype=DataType.UINT, elem_len=4),))
        blob = spec.encode()
        assert len(blob) == 4 + 1 + 2 + 1 + 4


class TestProfileFile:
    def test_write_read_roundtrip(self, tmp_path):
        prof = small_profile()
        path = prof.write(tmp_path / "p.ute")
        back = Profile.read(path)
        assert back.version_id == prof.version_id
        assert back.record_names == prof.record_names
        assert back.field_names == prof.field_names
        assert back.specs == prof.specs

    def test_version_id_stable_across_instances(self):
        assert small_profile().version_id == small_profile().version_id

    def test_version_id_changes_with_content(self):
        a = small_profile()
        fields = ["rectype", "start", "dura", "node", "cpu", "thread", "y"]
        b = Profile(["Running"], fields, a.specs)
        assert a.version_id != b.version_id

    def test_corrupted_file_rejected(self, tmp_path):
        prof = small_profile()
        path = prof.write(tmp_path / "p.ute")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum"):
            Profile.read(path)

    def test_not_a_profile_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world, not a profile")
        with pytest.raises(FormatError, match="not a profile"):
            Profile.read(path)

    def test_check_version_mismatch(self):
        prof = small_profile()
        with pytest.raises(ProfileMismatchError):
            prof.check_version(prof.version_id + 1)

    def test_unknown_field_name_rejected(self):
        with pytest.raises(FormatError, match="unknown field"):
            small_profile().field_index("nonexistent")

    def test_unknown_record_type_rejected(self):
        with pytest.raises(FormatError, match="no record type"):
            small_profile().spec_for(42)


def framed(body: bytes) -> bytes:
    """A profile file around ``body`` with its CRC recomputed: damage the
    checksum cannot see."""
    return MAGIC + struct.pack("<I", zlib.crc32(body)) + body


class TestMalformedBody:
    """A body whose CRC matches its damage is refused with a FormatError
    that names the source, never a low-level exception."""

    STANDARD_BODY = standard_profile().to_bytes()[12:]

    @pytest.mark.parametrize("cut", [0, 1, 3, 50, 500, -1])
    def test_truncated_body(self, cut):
        with pytest.raises(FormatError, match="^bad.prof: "):
            Profile.from_bytes(framed(self.STANDARD_BODY[:cut]), "bad.prof")

    def test_truncated_header(self):
        with pytest.raises(FormatError, match="truncated profile header"):
            Profile.from_bytes(MAGIC + b"\x00\x01")

    def test_bad_utf8_name(self):
        body = bytearray(small_profile().to_bytes()[12:])
        body[4] = 0xFF  # first byte of "Running"
        with pytest.raises(FormatError, match="malformed profile body"):
            Profile.from_bytes(framed(bytes(body)))

    def test_trailing_bytes(self):
        with pytest.raises(FormatError, match="3 trailing bytes"):
            Profile.from_bytes(framed(self.STANDARD_BODY + b"xyz"))

    def test_non_canonical_encoding(self):
        prof = small_profile()
        body = bytearray(prof.to_bytes()[12:])
        spec_at = len(body) - len(prof.specs[0].encode())
        body[spec_at + 7] = 1  # the reserved byte of the spec header
        with pytest.raises(FormatError, match="not in canonical form"):
            Profile.from_bytes(framed(bytes(body)))

    def test_dangling_name_index(self):
        prof = small_profile()
        spec = RecordSpec(0, 0, (FieldSpec(40, dtype=DataType.UINT, elem_len=4),))
        dangling = Profile(prof.record_names, prof.field_names, {0: spec})
        with pytest.raises(FormatError, match="missing record or field name"):
            Profile.from_bytes(dangling.to_bytes())

    def test_cli_refuses_with_one_error_line(self, tmp_path, capsys):
        from repro import cli

        bad = tmp_path / "bad.prof"
        bad.write_bytes(framed(self.STANDARD_BODY[:50]))
        code = cli.main_validate([str(DATA_DIR / "good.ute"), "--profile", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("error:") == 1 and "bad.prof" in err and "Traceback" not in err


class TestSharedStandardProfile:
    """The standard profile is one instance per process, and its exact
    bytes parse to it."""

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_standard_bytes_give_the_standard_instance(self, kind):
        assert standard_profile() is standard_profile()
        data = bytearray(standard_profile().to_bytes())  # not the cached object
        assert Profile.from_bytes(kind(data)) is standard_profile()

    def test_other_bytes_decode_to_a_fresh_instance(self):
        data = small_profile().to_bytes()
        first = Profile.from_bytes(data)
        second = Profile.from_bytes(data)
        assert first is not second and first is not standard_profile()
        assert first.to_bytes() == second.to_bytes() == data

    def test_a_second_open_decodes_nothing(self):
        from repro.utils.slog import SlogFile

        with SlogFile(DATA_DIR / "good.slog") as slog:
            first = slog.profile
        with mock.patch.object(RecordSpec, "decode", wraps=RecordSpec.decode) as decode:
            with SlogFile(DATA_DIR / "good.slog") as slog:
                assert slog.profile is first
        assert decode.call_count == 0

    def test_fields_are_read_only(self):
        prof = standard_profile()
        with pytest.raises(TypeError):
            prof.record_names[0] = "x"
        with pytest.raises(TypeError):
            prof.field_names[0] = "x"
        with pytest.raises(TypeError):
            prof.specs[0] = prof.specs[IntervalType.RUNNING]
        with pytest.raises(TypeError):
            del prof.specs[IntervalType.RUNNING]

    def test_a_short_window_then_the_full_bytes_parse(self):
        data = standard_profile().to_bytes()
        with pytest.raises(FormatError):
            Profile.from_bytes(data[:-5])  # a window too short for the body
        assert Profile.from_bytes(data) is standard_profile()

    def test_the_constructor_returns_a_fresh_instance(self):
        std = standard_profile()
        copy = Profile(std.record_names, std.field_names, std.specs)
        assert copy is not std
        assert copy.to_bytes() == std.to_bytes()
        assert copy._layouts is not std._layouts


class TestStandardProfile:
    def test_has_running_marker_and_all_mpi_types(self):
        prof = standard_profile()
        assert prof.record_name(IntervalType.RUNNING) == "Running"
        assert prof.record_name(IntervalType.MARKER) == "Marker"
        for fn_id, fn_name in enumerate(MPI_FN_NAMES):
            assert prof.record_name(IntervalType.for_mpi_fn(fn_id)) == fn_name

    def test_common_fields_everywhere(self):
        prof = standard_profile()
        for itype in prof.record_types():
            names = [prof.field_name(fs) for fs in prof.spec_for(itype).fields]
            for common in ("rectype", "start", "dura", "node", "cpu", "thread"):
                assert common in names, (itype, names)

    def test_send_has_msgsizesent_recv_has_msgsizerecv(self):
        prof = standard_profile()
        send = IntervalType.for_mpi_fn(MPI_FN_NAMES.index("MPI_Send"))
        recv = IntervalType.for_mpi_fn(MPI_FN_NAMES.index("MPI_Recv"))
        send_names = {prof.field_name(fs) for fs in prof.spec_for(send).fields}
        recv_names = {prof.field_name(fs) for fs in prof.spec_for(recv).fields}
        assert "msgSizeSent" in send_names and "msgSizeSent" not in recv_names
        assert "msgSizeRecv" in recv_names and "msgSizeRecv" not in send_names

    def test_mask_controls_field_count(self):
        """The design's point: the same record type has a different number
        of fields in individual vs merged files."""
        prof = standard_profile()
        send = IntervalType.for_mpi_fn(0)
        per_node = prof.fields_for(send, MASK_ALL_PER_NODE)
        merged = prof.fields_for(send, MASK_ALL_MERGED)
        core_only = prof.fields_for(send, MASK_CORE)
        assert len(merged) == len(per_node) + 1  # + localStart
        assert len(core_only) < len(per_node)
        merged_names = {prof.field_name(fs) for fs in merged}
        assert "localStart" in merged_names

    def test_roundtrips_through_file(self, tmp_path):
        prof = standard_profile()
        path = prof.write(tmp_path / "std.ute")
        back = Profile.read(path)
        assert back.version_id == prof.version_id
        assert back.record_types() == prof.record_types()

    def test_marker_fields(self):
        prof = standard_profile()
        names = {prof.field_name(fs) for fs in prof.spec_for(IntervalType.MARKER).fields}
        assert {"markerId", "beginAddr", "endAddr"} <= names

    def test_stats_language_field_names_present(self):
        """The section 3.2 example uses start/node/cpu/dura — they must be
        real profile field names."""
        prof = standard_profile()
        for name in ("start", "node", "cpu", "dura"):
            assert prof.field_index(name) >= 0


def test_interval_type_helpers():
    assert IntervalType.for_mpi_fn(3) == 4
    assert IntervalType.is_mpi(4)
    assert not IntervalType.is_mpi(IntervalType.RUNNING)
    assert not IntervalType.is_mpi(IntervalType.MARKER)
    assert IntervalType.mpi_fn(4) == 3
    with pytest.raises(FormatError):
        IntervalType.mpi_fn(IntervalType.RUNNING)
