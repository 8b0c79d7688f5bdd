"""Magic bytes of the three trace containers, and the one sniffer."""

from __future__ import annotations

from pathlib import Path

from repro.errors import FormatError

RAW_MAGIC = b"UTERAW1\x00"
INTERVAL_MAGIC = b"UTEIVL1\x00"
SLOG_MAGIC = b"UTESLOG1"

_KINDS = {RAW_MAGIC: "raw", INTERVAL_MAGIC: "interval", SLOG_MAGIC: "slog"}


def sniff_kind(path: str | Path) -> str:
    """``"raw"``, ``"interval"`` or ``"slog"`` from the file's first eight
    bytes; :class:`FormatError` for anything else, unreadable files
    included."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(8)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc})") from exc
    kind = _KINDS.get(head)
    if kind is None:
        raise FormatError(
            f"{path}: unrecognized magic {head!r}; expected a raw trace, "
            "interval (.ute) or SLOG (.slog) file"
        )
    return kind
