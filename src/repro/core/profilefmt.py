"""The description profile file (paper section 2.3.1, Figure 3).

A profile holds a header (version ID, record-type count, name arrays for
records and fields) followed by one record specification per interval type.
Interval records and their specifications live in *separate* files; an
interval file stores the version ID of the profile used to create it, and
readers verify the IDs match before decoding anything.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.fields import ATTRS, DataType, FieldSpec
from repro.errors import FormatError, ProfileMismatchError
from repro.tracing.hooks import MPI_FN_NAMES

MAGIC = b"UTEPROF1"


@dataclass(frozen=True)
class RecordSpec:
    """Specification of one record type (Figure 3).

    On disk: record type index (4 bytes), number of fields (1), record name
    index (2), reserved (1), then one 4-byte field description word per
    field.
    """

    record_type: int
    name_index: int
    fields: tuple[FieldSpec, ...]

    def encode(self) -> bytes:
        if len(self.fields) > 255:
            raise FormatError(f"too many fields in record type {self.record_type}")
        head = struct.pack("<IBHB", self.record_type, len(self.fields), self.name_index, 0)
        words = b"".join(struct.pack("<I", fs.encode_word()) for fs in self.fields)
        return head + words

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["RecordSpec", int]:
        record_type, n_fields, name_index, _reserved = struct.unpack_from("<IBHB", data, offset)
        offset += 8
        fields = []
        for _ in range(n_fields):
            (word,) = struct.unpack_from("<I", data, offset)
            fields.append(FieldSpec.decode_word(word))
            offset += 4
        return cls(record_type, name_index, tuple(fields)), offset


class Profile:
    """An in-memory description profile.

    ``version_id`` is a content hash (CRC-32 of the serialized body), so two
    profiles describing the same records agree and any structural change is
    detected by readers.
    """

    def __init__(
        self,
        record_names: list[str],
        field_names: list[str],
        specs: dict[int, RecordSpec],
    ) -> None:
        if len(field_names) > 4096:
            raise FormatError("too many field names (12-bit name index)")
        self.record_names = list(record_names)
        self.field_names = list(field_names)
        self.specs = dict(specs)
        self._field_index = {name: i for i, name in enumerate(self.field_names)}
        self.version_id = zlib.crc32(self._body_bytes())
        # (itype, mask) -> present fields; encode/decode hit this per record,
        # so recomputing the mask filter would dominate conversion time.
        self._fields_cache: dict[tuple[int, int], list[FieldSpec]] = {}
        # (itype, mask) -> compiled RecordLayout (repro.core.layout).
        self._layouts: dict[tuple[int, int], object] = {}

    # --------------------------------------------------------------- lookup

    def field_index(self, name: str) -> int:
        """Index of a field name in the name array."""
        try:
            return self._field_index[name]
        except KeyError:
            raise FormatError(f"unknown field name {name!r}") from None

    def spec_for(self, itype: int) -> RecordSpec:
        """The record specification for interval type ``itype``."""
        try:
            return self.specs[itype]
        except KeyError:
            raise FormatError(f"profile has no record type {itype}") from None

    def record_name(self, itype: int) -> str:
        """Human-readable name of interval type ``itype``."""
        return self.record_names[self.spec_for(itype).name_index]

    def field_name(self, fs: FieldSpec) -> str:
        """Name of a field spec."""
        return self.field_names[fs.name_index]

    def fields_for(self, itype: int, mask: int) -> list[FieldSpec]:
        """The fields of ``itype`` actually present under selection ``mask``
        (memoized — this is the per-record hot path)."""
        key = (itype, mask)
        cached = self._fields_cache.get(key)
        if cached is None:
            cached = [fs for fs in self.spec_for(itype).fields if fs.present_in(mask)]
            self._fields_cache[key] = cached
        return cached

    def record_types(self) -> list[int]:
        """All interval types, ascending."""
        return sorted(self.specs)

    # ----------------------------------------------------------------- file

    def _body_bytes(self) -> bytes:
        out = bytearray()
        out += struct.pack("<H", len(self.record_names))
        for name in self.record_names:
            blob = name.encode("utf-8")
            out += struct.pack("<H", len(blob)) + blob
        out += struct.pack("<H", len(self.field_names))
        for name in self.field_names:
            blob = name.encode("utf-8")
            out += struct.pack("<H", len(blob)) + blob
        out += struct.pack("<H", len(self.specs))
        for itype in sorted(self.specs):
            out += self.specs[itype].encode()
        return bytes(out)

    def to_bytes(self) -> bytes:
        """The profile file's exact bytes: magic, CRC32 of the body, body.
        SLOG files and live containers embed this same framing."""
        body = self._body_bytes()
        return MAGIC + struct.pack("<I", zlib.crc32(body)) + body

    @classmethod
    def from_bytes(cls, data: bytes, context: str = "profile") -> "Profile":
        """Decode and validate :meth:`to_bytes` output; ``context`` names
        the source in error messages."""
        if data[:8] != MAGIC:
            raise FormatError(f"{context}: not a profile file")
        (version,) = struct.unpack_from("<I", data, 8)
        body = data[12:]
        if zlib.crc32(body) != version:
            raise FormatError(f"{context}: profile checksum mismatch")
        offset = 0
        record_names, offset = _read_names(body, offset)
        field_names, offset = _read_names(body, offset)
        (n_specs,) = struct.unpack_from("<H", body, offset)
        offset += 2
        specs: dict[int, RecordSpec] = {}
        for _ in range(n_specs):
            spec, offset = RecordSpec.decode(body, offset)
            specs[spec.record_type] = spec
        profile = cls(record_names, field_names, specs)
        if profile.version_id != version:  # pragma: no cover - crc covers this
            raise ProfileMismatchError(f"{context}: version id mismatch after decode")
        return profile

    def write(self, path: str | Path) -> Path:
        """Write the profile file crash-safely; returns its path."""
        from repro.core.atomicio import atomic_write_bytes

        return atomic_write_bytes(path, self.to_bytes())

    @classmethod
    def read(cls, path: str | Path) -> "Profile":
        """Read and validate a profile file."""
        return cls.from_bytes(Path(path).read_bytes(), str(path))

    def check_version(self, version_id: int, context: str = "") -> None:
        """Raise :class:`ProfileMismatchError` unless ``version_id`` matches."""
        if version_id != self.version_id:
            raise ProfileMismatchError(
                f"profile version mismatch{' in ' + context if context else ''}: "
                f"file used {version_id:#010x}, profile is {self.version_id:#010x}"
            )


def _read_names(data: bytes, offset: int) -> tuple[list[str], int]:
    (count,) = struct.unpack_from("<H", data, offset)
    offset += 2
    names = []
    for _ in range(count):
        (length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        names.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    return names, offset


# --------------------------------------------------------------------------
# The standard profile used by the convert/merge pipeline.

#: Field-name array of the standard profile.  Order is stable: interval
#: files persist name indices.
STANDARD_FIELD_NAMES = [
    "rectype",
    "start",
    "dura",
    "node",
    "cpu",
    "thread",
    "localStart",
    "peer",
    "tag",
    "msgSizeSent",
    "msgSizeRecv",
    "seqno",
    "addr",
    "root",
    "msgSize",
    "markerId",
    "beginAddr",
    "endAddr",
    "globalTs",
    "ioBytes",
    "ioWrite",
    "seqnos",
]

#: MPI functions whose intervals carry send-size vs recv-size fields.
_SENDING_FNS = {"MPI_Send", "MPI_Isend", "MPI_Ssend", "MPI_Sendrecv"}
_RECEIVING_FNS = {"MPI_Recv", "MPI_Irecv", "MPI_Wait", "MPI_Waitall", "MPI_Sendrecv"}
_P2P_FNS = _SENDING_FNS | {"MPI_Recv", "MPI_Irecv"}


def standard_profile() -> Profile:
    """Build the framework's standard description profile.

    Record types: Running (0), one per MPI function (1 + fn), and the user
    marker region (100).  Every record starts with the common fields; MPI
    and marker records append their extras with the appropriate selection
    attributes (msg / seq / addr / marker), and ``localStart`` (attribute
    ``local``) appears only in merged files.
    """
    from repro.core.records import IntervalType

    f = STANDARD_FIELD_NAMES.index
    u64 = dict(dtype=DataType.UINT, elem_len=8)
    i32 = dict(dtype=DataType.INT, elem_len=4)
    u16 = dict(dtype=DataType.UINT, elem_len=2)
    u32 = dict(dtype=DataType.UINT, elem_len=4)

    def common() -> list[FieldSpec]:
        return [
            FieldSpec(f("rectype"), **u32),
            FieldSpec(f("start"), **u64),
            FieldSpec(f("dura"), **u64),
            FieldSpec(f("node"), **u16),
            FieldSpec(f("cpu"), **u16),
            FieldSpec(f("thread"), **u16),
            FieldSpec(f("localStart"), attr=ATTRS["local"], **u64),
        ]

    record_names: list[str] = []
    specs: dict[int, RecordSpec] = {}

    def add(itype: int, name: str, extras: list[FieldSpec]) -> None:
        record_names.append(name)
        specs[itype] = RecordSpec(itype, len(record_names) - 1, tuple(common() + extras))

    add(IntervalType.RUNNING, "Running", [])
    for fn_id, fn_name in enumerate(MPI_FN_NAMES):
        extras: list[FieldSpec] = []
        if fn_name in _P2P_FNS or fn_name == "MPI_Sendrecv":
            extras.append(FieldSpec(f("peer"), attr=ATTRS["msg"], **i32))
            extras.append(FieldSpec(f("tag"), attr=ATTRS["msg"], **i32))
        if fn_name in _SENDING_FNS:
            extras.append(FieldSpec(f("msgSizeSent"), attr=ATTRS["msg"], **u64))
        if fn_name in _RECEIVING_FNS:
            extras.append(FieldSpec(f("msgSizeRecv"), attr=ATTRS["msg"], **u64))
        if fn_name in _P2P_FNS or fn_name in _RECEIVING_FNS:
            extras.append(FieldSpec(f("seqno"), attr=ATTRS["seq"], **u64))
        if fn_name == "MPI_Waitall":
            # A waitall completes many receives at once: their sequence
            # numbers travel as a vector field (the format's vector
            # mechanism earning its keep).
            extras.append(
                FieldSpec(
                    f("seqnos"), attr=ATTRS["seq"], dtype=DataType.UINT,
                    elem_len=8, vector=True, counter_len=1,
                )
            )
        if fn_name not in _P2P_FNS and fn_name not in _RECEIVING_FNS:
            # Collectives: root and payload size.
            extras.append(FieldSpec(f("root"), attr=ATTRS["msg"], **i32))
            extras.append(FieldSpec(f("msgSize"), attr=ATTRS["msg"], **u64))
        extras.append(FieldSpec(f("addr"), attr=ATTRS["addr"], **u64))
        add(IntervalType.for_mpi_fn(fn_id), fn_name, extras)
    add(
        IntervalType.MARKER,
        "Marker",
        [
            FieldSpec(f("markerId"), attr=ATTRS["marker"], **u32),
            FieldSpec(f("beginAddr"), attr=ATTRS["addr"], **u64),
            FieldSpec(f("endAddr"), attr=ATTRS["addr"], **u64),
        ],
    )
    add(
        IntervalType.CLOCKPAIR,
        "GlobalClock",
        [FieldSpec(f("globalTs"), **u64)],
    )
    # The section 5 extension types: file I/O and page-miss handling.
    # Their presence demonstrates the self-defining format's point — tools
    # that read the profile handle them without code changes.
    add(
        IntervalType.IO,
        "FileIO",
        [
            FieldSpec(f("ioBytes"), attr=ATTRS["msg"], **u64),
            FieldSpec(f("ioWrite"), attr=ATTRS["msg"], dtype=DataType.UINT, elem_len=1),
            FieldSpec(f("addr"), attr=ATTRS["addr"], **u64),
        ],
    )
    add(
        IntervalType.PAGEFAULT,
        "PageFault",
        [FieldSpec(f("addr"), attr=ATTRS["addr"], **u64)],
    )
    return Profile(record_names, STANDARD_FIELD_NAMES, specs)
