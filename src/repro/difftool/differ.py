"""The semantic trace differ behind ``ute-diff``.

Two trace artifacts are "the same trace" when their record streams agree
field by field — not when their bytes match.  A re-converted file with a
rebuilt thread table, a salvaged copy of a clean file, or a merged file
read back through a different path should all diff clean; a single tick
of timestamp drift or one dropped record should not.  The differ compares
record streams in file order with configurable tolerance:

* **timestamp slack** — time fields may differ by up to N ticks;
* **field masks** — named fields excluded from comparison (for fields one
  path synthesizes, like the merge's ``localStart``);
* **thread-key remapping** — side A's thread ids translated before
  comparison, for artifacts whose thread tables were renumbered;
* **type drops / pseudo drops** — record classes excluded before pairing
  (clock pairs that merge strips; continuation pseudo-records, recognized
  structurally — zero-duration CONTINUATION bebits — in both formats).

The report is machine-readable (:meth:`DiffReport.as_dict`): first
divergence, per-field divergence histogram, and max numeric deltas.
``.raw`` files diff against ``.raw``; ``.ute`` and ``.slog`` diff against
each other freely (both decode to interval records).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.core.magic import sniff_kind
from repro.errors import FormatError

#: Fields the timestamp slack applies to, per artifact family.
TIME_FIELDS = frozenset({"start", "end", "local_ts", "localStart"})

#: Sentinel for "field absent on this side" (distinct from any value).
MISSING = "<missing>"


@dataclass(frozen=True)
class DiffConfig:
    """Tolerance knobs of one diff run (hashable, so reports can carry it)."""

    time_slack: int = 0
    ignore_fields: frozenset[str] = frozenset()
    drop_types: frozenset[int] = frozenset()
    ignore_pseudo: bool = False
    thread_map: tuple[tuple[int, int], ...] = ()
    #: Sort both sides canonically before pairing.  File order is only
    #: defined up to ties in end time, so streams that crossed a merge can
    #: legally permute tied records; this compares them as ordered sets.
    canonical_order: bool = False

    def describe(self) -> dict[str, Any]:
        return {
            "time_slack": self.time_slack,
            "ignore_fields": sorted(self.ignore_fields),
            "drop_types": sorted(self.drop_types),
            "ignore_pseudo": self.ignore_pseudo,
            "thread_map": {str(a): b for a, b in self.thread_map},
            "canonical_order": self.canonical_order,
        }


@dataclass
class DiffReport:
    """The outcome of one diff: counts, first divergence, histograms."""

    path_a: str
    path_b: str
    kind_a: str
    kind_b: str
    config: DiffConfig
    records_a: int = 0
    records_b: int = 0
    compared: int = 0
    divergent_records: int = 0
    field_counts: dict[str, int] = field(default_factory=dict)
    max_deltas: dict[str, int | float] = field(default_factory=dict)
    first: dict[str, Any] | None = None
    examples: list[dict[str, Any]] = field(default_factory=list)

    #: Example divergences kept beyond the first (report stays bounded).
    MAX_EXAMPLES = 20

    @property
    def identical(self) -> bool:
        return self.divergent_records == 0 and self.records_a == self.records_b

    def note(self, index: int, fld: str, a: Any, b: Any) -> None:
        """Record one field divergence at record ``index``."""
        self.field_counts[fld] = self.field_counts.get(fld, 0) + 1
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            delta = abs(a - b)
            if delta > self.max_deltas.get(fld, 0):
                self.max_deltas[fld] = delta
        entry = {"index": index, "field": fld, "a": a, "b": b}
        if self.first is None:
            self.first = entry
        if len(self.examples) < self.MAX_EXAMPLES:
            self.examples.append(entry)

    def as_dict(self) -> dict[str, Any]:
        return {
            "a": {"path": self.path_a, "kind": self.kind_a, "records": self.records_a},
            "b": {"path": self.path_b, "kind": self.kind_b, "records": self.records_b},
            "config": self.config.describe(),
            "identical": self.identical,
            "compared": self.compared,
            "divergent_records": self.divergent_records,
            "field_counts": dict(sorted(self.field_counts.items())),
            "max_deltas": dict(sorted(self.max_deltas.items())),
            "first_divergence": self.first,
            "examples": self.examples,
        }

    def summary(self) -> str:
        """Human-readable lines (what the CLI prints without ``--json``)."""
        lines = [
            f"a: {self.path_a} ({self.kind_a}, {self.records_a} records)",
            f"b: {self.path_b} ({self.kind_b}, {self.records_b} records)",
        ]
        if self.identical:
            lines.append(f"identical: {self.compared} records compared")
            return "\n".join(lines)
        if self.records_a != self.records_b:
            lines.append(
                f"record count differs: {self.records_a} vs {self.records_b} "
                f"(compared first {self.compared})"
            )
        if self.first is not None:
            f0 = self.first
            lines.append(
                f"first divergence: record {f0['index']} field {f0['field']!r}: "
                f"{f0['a']!r} != {f0['b']!r}"
            )
        for fld in sorted(self.field_counts):
            extra = ""
            if fld in self.max_deltas:
                extra = f" (max delta {self.max_deltas[fld]})"
            lines.append(f"  {fld}: {self.field_counts[fld]} divergent{extra}")
        lines.append(f"divergent records: {self.divergent_records}")
        return "\n".join(lines)


# ---------------------------------------------------------------- loading

def _interval_fields(record) -> dict[str, Any]:
    fields = {
        "type": record.itype,
        "bebits": int(record.bebits),
        "start": record.start,
        "end": record.end,
        "node": record.node,
        "cpu": record.cpu,
        "thread": record.thread,
    }
    fields.update(record.extra)
    return fields


def _raw_fields(event) -> dict[str, Any]:
    return {
        "hook": int(event.hook_id),
        "local_ts": event.local_ts,
        "tid": event.system_tid,
        "cpu": event.cpu,
        "args": tuple(event.args),
        "text": event.text,
    }


def load_comparable(
    path: str | Path,
    profile=None,
    *,
    errors: str = "strict",
) -> tuple[str, list[tuple[dict[str, Any], bool]]]:
    """One artifact as ``(kind, [(fields, is_pseudo), ...])`` in file order.

    Interval and SLOG files normalize to the same field names, so the two
    formats diff against each other; raw traces use event fields and only
    diff against other raw traces.
    """
    kind = sniff_kind(path)
    if kind == "raw":
        from repro.tracing.rawfile import RawTraceReader

        with RawTraceReader(path, errors=errors) as reader:
            return kind, [(_raw_fields(e), False) for e in reader]
    from repro.query.trace import open_trace

    # One rule for both formats: pseudo-records are recognized by structure
    # (``IntervalRecord.is_pseudo``), wherever a re-cut left them in a frame.
    out: list[tuple[dict[str, Any], bool]] = []
    with open_trace(path, profile, errors=errors) as handle:
        for frame in handle.frames:
            for record in handle.read_frame(frame.ordinal):
                out.append((_interval_fields(record), record.is_pseudo))
    return kind, out


# ------------------------------------------------------------------ diffing

_COMPARABLE = {
    "raw": {"raw"},
    "interval": {"interval", "slog"},
    "slog": {"interval", "slog"},
}


def _prepare(
    rows: list[tuple[dict[str, Any], bool]],
    config: DiffConfig,
    *,
    remap: bool,
) -> Iterator[dict[str, Any]]:
    thread_map = dict(config.thread_map) if remap else {}
    for fields, pseudo in rows:
        if config.ignore_pseudo and pseudo:
            continue
        if config.drop_types and fields.get("type") in config.drop_types:
            continue
        if thread_map:
            for key in ("thread", "tid"):
                if key in fields and fields[key] in thread_map:
                    fields = {**fields, key: thread_map[fields[key]]}
        yield fields


def diff_fieldmaps(
    rows_a: list[dict[str, Any]],
    rows_b: list[dict[str, Any]],
    config: DiffConfig,
    report: DiffReport,
) -> DiffReport:
    """Compare two prepared record streams into ``report`` (its core loop:
    the oracle reuses this over in-memory records, no files involved)."""
    report.records_a = len(rows_a)
    report.records_b = len(rows_b)
    report.compared = min(len(rows_a), len(rows_b))
    for i in range(report.compared):
        a, b = rows_a[i], rows_b[i]
        divergent = False
        for fld in sorted(set(a) | set(b)):
            if fld in config.ignore_fields:
                continue
            va = a.get(fld, MISSING)
            vb = b.get(fld, MISSING)
            if va == vb:
                continue
            # A field that is absent on one side and null on the other is
            # the same fact (the record's type lacks the field): query rows
            # spell it None, projected field maps omit it.
            if (va is None and vb is MISSING) or (va is MISSING and vb is None):
                continue
            if (
                fld in TIME_FIELDS
                and isinstance(va, int)
                and isinstance(vb, int)
                and abs(va - vb) <= config.time_slack
            ):
                continue
            report.note(i, fld, va, vb)
            divergent = True
        if divergent:
            report.divergent_records += 1
    if report.records_a != report.records_b and report.first is None:
        report.first = {
            "index": report.compared,
            "field": "__count__",
            "a": report.records_a,
            "b": report.records_b,
        }
    return report


def diff_traces(
    path_a: str | Path,
    path_b: str | Path,
    config: DiffConfig = DiffConfig(),
    *,
    profile=None,
    errors: str = "strict",
) -> DiffReport:
    """Diff two trace artifacts semantically; the one-call API."""
    kind_a, rows_a = load_comparable(path_a, profile, errors=errors)
    kind_b, rows_b = load_comparable(path_b, profile, errors=errors)
    if kind_b not in _COMPARABLE[kind_a]:
        raise FormatError(
            f"cannot diff {kind_a} ({path_a}) against {kind_b} ({path_b}); "
            "raw traces only diff against raw traces"
        )
    report = DiffReport(str(path_a), str(path_b), kind_a, kind_b, config)
    prepared_a = list(_prepare(rows_a, config, remap=True))
    prepared_b = list(_prepare(rows_b, config, remap=False))
    if config.canonical_order:
        # Ignored fields stay out of the sort key too: a field present on
        # only one side (e.g. the merge's localStart) must not skew ties.
        def key(fields: dict[str, Any]):
            return tuple(
                sorted(
                    (k, str(v))
                    for k, v in fields.items()
                    if k not in config.ignore_fields
                )
            )

        prepared_a.sort(key=key)
        prepared_b.sort(key=key)
    return diff_fieldmaps(prepared_a, prepared_b, config, report)
