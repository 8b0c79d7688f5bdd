"""Salvage-mode support: degrade per record, never per file.

The strict readers treat any damaged byte as fatal — the whole file (and
every consumer of it) is lost.  Salvage mode instead *resynchronizes* on
the next plausible record or frame boundary and keeps going, accounting for
everything it had to give up in a :class:`SalvageReport`:

* ``bytes_skipped`` — payload bytes the resync scan stepped over;
* ``records_dropped`` — records the reader knows it lost (frame entries
  announce their record counts, so a short frame is a measurable loss);
* ``frames_quarantined`` — frames abandoned entirely (nothing decodable);
* ``regions`` — the first few damaged byte ranges with a reason each.

Resynchronization heuristics (see docs/RECOVERY.md):

* **raw traces** — a candidate offset must carry a known hookword with a
  plausible record length, the record must decode in full, and its
  timestamp must not run backwards past the last good record;
* **interval/SLOG frames** — a candidate record must decode in full, its
  end time must not precede the last good record's, and when the frame's
  index entry is trusted the record must lie inside the entry's time span;
* **frame directories** — directories form a doubly linked list, so the
  *back-link* of the next genuine directory equals the offset of the last
  good one; the resync scan searches for exactly that byte pattern.

Every reader exposes the report through ``stats()`` (three extra counters
next to the cache/fetch accounting) and as a ``salvage`` attribute.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import FormatError

#: Recognized ``errors`` arguments of the readers.
ERROR_MODES = ("strict", "salvage")

#: How many damaged regions a report keeps in detail; beyond this only the
#: counters grow (a thoroughly shredded file must not cost O(damage) memory).
MAX_REGIONS = 64

#: Exceptions a corrupted byte stream can surface while decoding.
DECODE_ERRORS = (struct.error, IndexError, ValueError, OverflowError, UnicodeDecodeError)


def check_error_mode(errors: str) -> bool:
    """Validate an ``errors`` argument; returns True for salvage mode."""
    if errors not in ERROR_MODES:
        raise FormatError(
            f"unknown errors mode {errors!r}; pick one of {ERROR_MODES}"
        )
    return errors == "salvage"


@dataclass(frozen=True)
class SalvageRegion:
    """One damaged byte range the resync scan stepped over."""

    offset: int
    length: int
    reason: str


@dataclass
class SalvageReport:
    """What salvage mode had to give up while reading one file."""

    path: Path | None = None
    bytes_skipped: int = 0
    records_dropped: int = 0
    frames_quarantined: int = 0
    regions: list[SalvageRegion] = field(default_factory=list)
    #: Regions beyond :data:`MAX_REGIONS` are counted but not kept.
    regions_truncated: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing was skipped, dropped, or quarantined."""
        return not (self.bytes_skipped or self.records_dropped or self.frames_quarantined)

    def skip(self, offset: int, length: int, reason: str) -> None:
        """Record one damaged region of ``length`` bytes at ``offset``."""
        if length <= 0:
            return
        self.bytes_skipped += length
        if len(self.regions) < MAX_REGIONS:
            self.regions.append(SalvageRegion(offset, length, reason))
        else:
            self.regions_truncated += 1

    def quarantine_frame(self, offset: int, length: int, reason: str) -> None:
        """Record one frame abandoned entirely."""
        self.frames_quarantined += 1
        self.skip(offset, length, reason)

    def stats(self) -> dict[str, int]:
        """The counters merged into the readers' ``stats()`` dicts."""
        return {
            "bytes_skipped": self.bytes_skipped,
            "records_dropped": self.records_dropped,
            "frames_quarantined": self.frames_quarantined,
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (the serving daemon's 4xx payload)."""
        return {
            **self.stats(),
            "regions": [
                {"offset": r.offset, "length": r.length, "reason": r.reason}
                for r in self.regions
            ],
            "regions_truncated": self.regions_truncated,
        }

    def summary(self) -> str:
        """One human-readable line."""
        if self.clean:
            return "salvage: clean (nothing skipped)"
        return (
            f"salvage: {self.bytes_skipped} bytes skipped in "
            f"{len(self.regions) + self.regions_truncated} regions, "
            f"{self.records_dropped} records dropped, "
            f"{self.frames_quarantined} frames quarantined"
        )


#: stats() keys contributed by a (possibly absent) salvage report.
def salvage_stats(report: SalvageReport | None) -> dict[str, int]:
    """The salvage counters for a reader's ``stats()`` — zeros in strict
    mode, so the stats shape is identical in both modes."""
    if report is None:
        return {"bytes_skipped": 0, "records_dropped": 0, "frames_quarantined": 0}
    return report.stats()


# ---------------------------------------------------------------------------
# Frame-payload salvage: called from one place, the frame store
# (repro.core.framestore), on behalf of every frame-indexed reader.


def salvage_frame_records(
    blob: bytes,
    profile,
    mask: int,
    *,
    base_offset: int,
    report: SalvageReport,
    expected_records: int | None = None,
    expected_size: int | None = None,
    time_span: tuple[int, int] | None = None,
) -> list:
    """Decode as many records as possible from one frame's bytes.

    Walks the record chain normally; on a decode failure it scans forward
    for the next *plausible* record boundary — an offset where a record
    decodes in full, its end time does not precede the last good record's
    (timestamp monotonicity), and, when the frame's index entry supplied a
    ``time_span``, the record lies inside it.  A record that decodes but
    whose time range leaves ``[0, 2**63)`` (:attr:`IntervalRecord.fits_int64`)
    is dropped and counted in ``records_dropped``.  Damage is accounted to
    ``report``; the function never raises for corrupt payload bytes.
    """
    from repro.core.records import IntervalRecord

    records: list = []
    pos = 0
    end = len(blob)
    last_end: int | None = None
    unusable = 0
    if expected_size is not None and end < expected_size:
        report.skip(
            base_offset + end, expected_size - end, "frame truncated by end of file"
        )
    while pos < end:
        try:
            record, nxt = IntervalRecord.decode(blob, pos, profile, mask)
        except DECODE_ERRORS + (FormatError,):
            record = None
            nxt = pos
        if record is not None:
            pos = nxt
            if not record.fits_int64:
                # Well-formed bytes, unusable times: a declared loss, not a
                # resync (the next record starts where this one ends).
                unusable += 1
                continue
            records.append(record)
            last_end = record.end if last_end is None else max(last_end, record.end)
            continue
        resync = _resync_record(blob, pos + 1, profile, mask, last_end, time_span)
        if resync is None:
            report.skip(base_offset + pos, end - pos, "no further record boundary")
            break
        report.skip(base_offset + pos, resync - pos, "corrupt record")
        pos = resync
    # The directory's count is the better measure of loss when it is known
    # (it also covers records the resync scan never saw).
    report.records_dropped += max(unusable, (expected_records or 0) - len(records))
    return records


def _resync_record(
    blob: bytes,
    start: int,
    profile,
    mask: int,
    last_end: int | None,
    time_span: tuple[int, int] | None,
) -> int | None:
    """The next offset in ``blob`` that looks like a genuine record start.

    Plausibility: the record decodes in full, its end time is monotonic
    with respect to the last good record, and it lies inside the frame's
    announced time span (when one is trusted)."""
    from repro.core.records import IntervalRecord, plausible_record_at

    end = len(blob)
    for pos in range(start, end):
        if not plausible_record_at(blob, pos, profile):
            continue
        try:
            record, _nxt = IntervalRecord.decode(blob, pos, profile, mask)
        except DECODE_ERRORS + (FormatError,):
            continue
        if last_end is not None and record.end < last_end:
            continue
        if time_span is not None:
            lo, hi = time_span
            if not (lo <= record.start and record.end <= hi):
                continue
        return pos
    return None
