"""Interval records and bebits (paper sections 1.2 and 2.3.2).

An interval record's *type word* combines the event type with two "bebits"
indicating whether the record is a complete interval or a begin /
continuation / end piece of an interrupted one.  Records carry the common
fields (start time, duration, processor, node, logical thread) plus
type-specific extras described by the profile.

On disk each record is prefixed by a one-byte length; a zero length escapes
to a two-byte length for records over 255 bytes, so "a program reader can
always find the next interval record without examining the current record
in detail".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any

from repro.core.fields import FieldSpec
from repro.core.layout import encode_length, layout_for
from repro.core.profilefmt import Profile, RecordSpec
from repro.errors import FormatError


class BeBits(IntEnum):
    """The two begin/end bits of an interval type."""

    COMPLETE = 0
    BEGIN = 1
    CONTINUATION = 2
    END = 3


class IntervalType:
    """The interval-type (event-type) number space.

    ``RUNNING`` is the default state of a thread outside any MPI routine or
    marked region; MPI function ``f`` maps to type ``1 + f``; user-marker
    regions share one type (the marker identifier is a field).
    """

    RUNNING = 0
    MPI_BASE = 1
    MARKER = 100
    #: Global-clock pairs travel through per-node interval files as
    #: zero-duration records (start = local timestamp, ``globalTs`` field =
    #: global timestamp) so the merge utility can align and adjust clocks;
    #: they are consumed by the merge and do not appear in merged output.
    CLOCKPAIR = 101
    #: System-activity extension (paper section 5 future work): file I/O
    #: and page-miss handling, traced begin/end like MPI calls.
    IO = 102
    PAGEFAULT = 103

    @classmethod
    def for_mpi_fn(cls, fn_id: int) -> int:
        """Interval type of MPI function ``fn_id``."""
        return cls.MPI_BASE + fn_id

    @classmethod
    def is_mpi(cls, itype: int) -> bool:
        """Whether ``itype`` is an MPI interval type."""
        return cls.MPI_BASE <= itype < cls.MARKER

    @classmethod
    def mpi_fn(cls, itype: int) -> int:
        """The MPI function ID of an MPI interval type."""
        if not cls.is_mpi(itype):
            raise FormatError(f"interval type {itype} is not an MPI type")
        return itype - cls.MPI_BASE


def pack_type_word(itype: int, bebits: BeBits) -> int:
    """Combine event type and bebits into the record's type word."""
    return (itype << 2) | int(bebits)


def unpack_type_word(word: int) -> tuple[int, BeBits]:
    """Split a type word into (event type, bebits)."""
    return word >> 2, BeBits(word & 0x3)


@dataclass
class IntervalRecord:
    """One interval (or interval piece).

    ``extra`` holds the type-specific fields by profile field name
    (``peer``, ``msgSizeSent``, ``markerId``, …); :meth:`get` reads common
    and extra fields uniformly.
    """

    itype: int
    bebits: BeBits
    start: int
    duration: int
    node: int
    cpu: int
    thread: int
    extra: dict[str, Any] = field(default_factory=dict)

    #: Values used for fields listed in the spec but absent from ``extra``.
    _DEFAULTS = {0: 0, 1: 0, 2: 0.0, 3: ""}

    @property
    def end(self) -> int:
        """End time: start plus duration."""
        return self.start + self.duration

    @property
    def is_pseudo(self) -> bool:
        """Whether this is a pseudo-interval by structure: a zero-duration
        ``CONTINUATION`` piece, which is what a frame's continuation lead
        consists of and nothing else produces."""
        return self.bebits is BeBits.CONTINUATION and self.duration == 0

    @property
    def fits_int64(self) -> bool:
        """Whether start, duration and end all lie in ``[0, 2**63)`` — the
        range the columnar batches (int64 columns) and the frame
        directories can carry.  A record outside it is damage: strict
        reads refuse its frame, salvage reads drop it."""
        return 0 <= self.start and 0 <= self.duration and self.end < (1 << 63)

    def get(self, name: str) -> Any:
        """Read any field by profile name (common fields included)."""
        common = {
            "start": self.start,
            "dura": self.duration,
            "node": self.node,
            "cpu": self.cpu,
            "thread": self.thread,
        }
        if name == "rectype":
            return pack_type_word(self.itype, self.bebits)
        if name in common:
            return common[name]
        try:
            return self.extra[name]
        except KeyError:
            raise FormatError(f"record has no field {name!r}") from None

    def has(self, name: str) -> bool:
        """Whether :meth:`get` would succeed for ``name``."""
        return name in ("rectype", "start", "dura", "node", "cpu", "thread") or (
            name in self.extra
        )

    # ------------------------------------------------------------- encoding

    def encode(self, profile: Profile, mask: int) -> bytes:
        """Serialize against ``profile`` with field-selection ``mask``:
        one pack through the type's compiled layout, or the per-field loop
        for a type with vector/char fields."""
        layout = layout_for(profile, self.itype, mask)
        if not layout.fixed:
            return self.encode_fields(profile, mask)
        attrs = (
            (self.itype << 2) | self.bebits, self.start, self.duration,
            self.node, self.cpu, self.thread,
        )
        extra = self.extra
        return layout.struct.pack(
            layout.prefix,
            *[
                attrs[slot] if slot >= 0 else extra.get(name, default)
                for slot, name, default in layout.slots
            ],
        )

    def encode_fields(self, profile: Profile, mask: int) -> bytes:
        """:meth:`encode` by the per-field loop: the only encoder of types
        with vector/char fields, and the reference the compiled layouts are
        checked against."""
        body = bytearray()
        for fs in profile.fields_for(self.itype, mask):
            name = profile.field_names[fs.name_index]
            value = self._value_for(name, fs)
            body += fs.pack_value(value)
        return encode_length(len(body)) + bytes(body)

    def _value_for(self, name: str, fs: FieldSpec) -> Any:
        if name == "rectype":
            return pack_type_word(self.itype, self.bebits)
        if name == "start":
            return self.start
        if name == "dura":
            return self.duration
        if name == "node":
            return self.node
        if name == "cpu":
            return self.cpu
        if name == "thread":
            return self.thread
        if name in self.extra:
            return self.extra[name]
        return self._DEFAULTS[int(fs.dtype)] if not fs.vector else (
            "" if fs.dtype == 3 else []
        )

    @classmethod
    def decode(
        cls, data: bytes, offset: int, profile: Profile, mask: int
    ) -> tuple["IntervalRecord", int]:
        """Deserialize one record at ``offset``; returns (record, next)."""
        body_len, body_start = decode_length(data, offset)
        end = body_start + body_len
        if end > len(data):
            raise FormatError(f"truncated interval record at offset {offset}")
        # The type word is always the first present field.
        (type_word,) = struct.unpack_from("<I", data, body_start)
        itype, bebits = unpack_type_word(type_word)
        pos = body_start
        common: dict[str, Any] = {}
        extra: dict[str, Any] = {}
        for fs in profile.fields_for(itype, mask):
            name = profile.field_names[fs.name_index]
            value, pos = fs.unpack_value(data, pos)
            if name in ("rectype",):
                continue
            if name in ("start", "dura", "node", "cpu", "thread"):
                common[name] = value
            else:
                extra[name] = value
        if pos != end:
            raise FormatError(
                f"record length mismatch for type {itype}: "
                f"consumed {pos - body_start}, length says {body_len}"
            )
        # A mask that strips any core field is structurally invalid (a
        # corrupt header, not a legitimate selection) — fail as a format
        # error, not a KeyError.
        missing = [n for n in ("start", "dura", "node", "cpu", "thread") if n not in common]
        if missing:
            raise FormatError(
                f"record type {itype} is missing core fields {missing}; "
                "corrupt field selection mask?"
            )
        return (
            cls(
                itype=itype,
                bebits=bebits,
                start=common["start"],
                duration=common["dura"],
                node=common["node"],
                cpu=common["cpu"],
                thread=common["thread"],
                extra=extra,
            ),
            end,
        )


def decode_length(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a record length prefix; returns (body_len, body_offset)."""
    first = data[offset]
    if first:
        return first, offset + 1
    (body_len,) = struct.unpack_from("<H", data, offset + 1)
    return body_len, offset + 3


def skip_record(data: bytes, offset: int) -> int:
    """Advance past one record using only its length prefix."""
    body_len, body_start = decode_length(data, offset)
    return body_start + body_len


def plausible_record_at(data: bytes, offset: int, profile: Profile) -> bool:
    """Cheap structural screen for "a record could start here": the length
    prefix must decode, the body must fit inside ``data`` and hold at least
    a type word, and the type word must name a record type the profile
    describes.  The salvage-mode resync scan uses this to discard almost
    every candidate offset before paying for a full decode."""
    try:
        body_len, body_start = decode_length(data, offset)
    except (IndexError, struct.error):
        return False
    if body_len < 4 or body_start + body_len > len(data):
        return False
    (type_word,) = struct.unpack_from("<I", data, body_start)
    itype, _bebits = unpack_type_word(type_word)
    try:
        profile.spec_for(itype)
    except FormatError:
        return False
    return True
