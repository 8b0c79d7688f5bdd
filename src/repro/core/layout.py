"""The compiled record layout: one description, both directions.

A record type's wire form under a field-selection mask is fixed by the
profile: the fields present, in order, each at a known width.  Interpreting
that description field by field for every record is what made encoding
slow; :class:`RecordLayout` compiles it once per (profile, type, mask) into
the two forms bulk and single-record code want:

* a packed numpy structured ``dtype`` over the record *body* — the columnar
  decoder gathers bodies as it (and the core fields alone as
  ``core_dtype``), the columnar encoder fills one array of it per type
  (:mod:`repro.query.columnar`);
* a :class:`struct.Struct` over length prefix + body for one record —
  :meth:`~repro.core.records.IntervalRecord.encode` packs through it.

A type with a vector or char field (``seqnos`` on ``MPI_Waitall`` in the
standard profile) has no fixed layout (``fixed`` is false); such records go
through the per-field loop in :mod:`repro.core.records`, which is also the
reference the oracle compares the compiled forms against.
"""

from __future__ import annotations

import struct

from repro.core.fields import DataType
from repro.errors import FormatError

#: Core field names of the wire format (always present, never null).
CORE_WIRE = ("start", "dura", "node", "cpu", "thread")

#: Names a record carries as attributes, in :attr:`RecordLayout.slots` order.
_ATTR_NAMES = ("rectype", *CORE_WIRE)

#: numpy kind letter per field data type (char/vector fields have none).
_NP_KIND = {DataType.UINT: "u", DataType.INT: "i", DataType.FLOAT: "f"}

#: Value packed for a field the record's ``extra`` does not supply.
_DEFAULTS = {DataType.UINT: 0, DataType.INT: 0, DataType.FLOAT: 0.0}


class RecordLayout:
    """Compiled wire layout of one record type under one mask."""

    __slots__ = (
        "fixed", "size", "names", "formats", "offsets", "extra_names",
        "missing_core", "prefix", "slots", "struct", "_dtype", "_wire_dtype",
        "_core_dtype",
    )

    def __init__(self, specs, field_names) -> None:
        names: list[str] = []
        formats: list[str] = []
        offsets: list[int] = []
        codes: list[str] = []
        defaults: list = []
        pos = 0
        self.fixed = True
        for fs in specs:
            if fs.vector or fs.dtype == DataType.CHAR:
                self.fixed = False
                break
            names.append(field_names[fs.name_index])
            formats.append(f"<{_NP_KIND[fs.dtype]}{fs.elem_len}")
            codes.append(fs._scalar_format()[1])
            defaults.append(_DEFAULTS[fs.dtype])
            offsets.append(pos)
            pos += fs.elem_len
        if self.fixed and len(set(names)) != len(names):
            self.fixed = False  # duplicate names cannot form a structured dtype
        self._dtype = self._wire_dtype = self._core_dtype = None
        if not self.fixed:
            self.size = 0
            self.names = self.extra_names = self.missing_core = ()
            self.formats = self.offsets = self.slots = ()
            self.prefix = b""
            self.struct = None
            return
        self.size = pos
        self.names = tuple(names)
        self.formats = tuple(formats)
        self.offsets = tuple(offsets)
        self.extra_names = tuple(n for n in names if n not in _ATTR_NAMES)
        self.missing_core = tuple(n for n in CORE_WIRE if n not in names)
        #: The record's length prefix (one byte, or the three-byte escape).
        self.prefix = encode_length(pos)
        #: Per field, where :meth:`IntervalRecord.encode` finds its value:
        #: ``(index into (type word, start, dura, node, cpu, thread), name,
        #: default)``, the index -1 for a field of ``extra``.
        self.slots = tuple(
            (_ATTR_NAMES.index(n) if n in _ATTR_NAMES else -1, n, d)
            for n, d in zip(names, defaults)
        )
        self.struct = struct.Struct(f"<{len(self.prefix)}s" + "".join(codes))

    @property
    def dtype(self):
        """Packed structured dtype of the record body."""
        if self._dtype is None:
            self._dtype = self._structured(0)
        return self._dtype

    @property
    def wire_dtype(self):
        """The same fields behind a gap for the length prefix: one item is
        one whole encoded record."""
        if self._wire_dtype is None:
            self._wire_dtype = self._structured(len(self.prefix))
        return self._wire_dtype

    @property
    def core_dtype(self):
        """The core fields alone, at their body offsets, the item ending
        with the last of them: types whose core fields sit alike share it,
        so one gather reads the core columns of all their records (for a
        layout without ``missing_core`` only)."""
        if self._core_dtype is None:
            at = [self.names.index(n) for n in CORE_WIRE]
            end = max(self.offsets[i] + int(self.formats[i][2:]) for i in at)
            self._core_dtype = self._structured(0, at, end)
        return self._core_dtype

    def _structured(self, gap: int, at=None, size=None):
        import numpy as np  # core stays importable without numpy loaded

        at = range(len(self.names)) if at is None else at
        return np.dtype({
            "names": [self.names[i] for i in at],
            "formats": [self.formats[i] for i in at],
            "offsets": [gap + self.offsets[i] for i in at],
            "itemsize": gap + (self.size if size is None else size),
        })


def _item_slots(buf, itemsize: int):
    """Every ``itemsize``-byte window of ``buf`` as one opaque ``np.void``
    item, window ``i`` starting at byte ``i`` (a stride-1 view, no copy)."""
    import numpy as np

    return np.ndarray(
        (max(len(buf) - itemsize + 1, 0),), dtype=np.dtype((np.void, itemsize)),
        buffer=buf, strides=(1,),
    )


def gather_items(buf, offsets, dtype):
    """The ``dtype`` items starting at byte ``offsets`` of ``buf`` (bytes,
    a memoryview or a uint8 array), copied out as one array: one item copy
    per offset instead of a ``(rows, width)`` index matrix.  Every item
    must lie inside ``buf``."""
    import numpy as np

    dtype = np.dtype(dtype)
    return _item_slots(buf, dtype.itemsize)[offsets].view(dtype)


def scatter_items(out, offsets, items) -> None:
    """:func:`gather_items` backwards: write ``items`` into the writable
    buffer ``out`` at byte ``offsets``."""
    slots = _item_slots(out, items.dtype.itemsize)
    slots[offsets] = items.view(slots.dtype)


def encode_length(body_len: int) -> bytes:
    """The record length prefix: 1 byte, escaping to 2 extra bytes when the
    body exceeds 255 bytes (a zero first byte marks the escape)."""
    if body_len < 0:
        raise FormatError("negative record length")
    if 0 < body_len < 256:
        return bytes((body_len,))
    if body_len <= 0xFFFF:
        return b"\x00" + struct.pack("<H", body_len)
    raise FormatError(f"record too large: {body_len} bytes")


def layout_for(profile, itype: int, mask: int) -> RecordLayout:
    """The memoized layout of ``itype`` under ``mask`` (raises
    :class:`~repro.errors.FormatError` for a type the profile lacks)."""
    cache = profile._layouts
    key = (itype, mask)
    layout = cache.get(key)
    if layout is None:
        layout = RecordLayout(profile.fields_for(itype, mask), profile.field_names)
        cache[key] = layout
    return layout
