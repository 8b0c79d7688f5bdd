"""Interval-file validator.

Checks every structural invariant the format promises, so downstream tools
can trust files from unknown producers:

* header magic/version and profile version match;
* frame directories form a consistent doubly linked list;
* frame entries describe their frames exactly (sizes, counts, time ranges);
* records are in ascending end-time order;
* every record's (node, thread) resolves in the thread table;
* bebits balance per state (no orphan continuations/ends, nothing left
  open), treating zero-duration continuations as the pseudo-interval
  repeats the merge inserts;
* marker records reference marker-table entries.

Returns a report object; the CLI (``ute-validate``) prints it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.profilefmt import Profile
from repro.core.reader import IntervalReader
from repro.core.records import BeBits, IntervalType
from repro.errors import FormatError


@dataclass
class ValidationReport:
    """Outcome of a validation run."""

    path: Path
    records: int = 0
    frames: int = 0
    directories: int = 0
    pseudo_records: int = 0
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no errors were found."""
        return not self.errors

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"{self.path}: {'OK' if self.ok else 'INVALID'} — "
            f"{self.records} records in {self.frames} frames / "
            f"{self.directories} directories ({self.pseudo_records} pseudo)"
        ]
        lines += [f"  error: {e}" for e in self.errors]
        lines += [f"  warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate_interval_file(path: str | Path, profile: Profile) -> ValidationReport:
    """Validate one interval file against ``profile``."""
    report = ValidationReport(Path(path))
    try:
        reader = IntervalReader(path, profile)
    except FormatError as exc:
        report.errors.append(str(exc))
        return report
    with reader:
        _check(reader, report)
    return report


def _check(reader: IntervalReader, report: ValidationReport) -> None:
    # Structure: directory linkage and frame entries.  Iteration itself can
    # hit corruption (bad directory bytes); report and stop scanning.
    prev_offset = -1
    try:
        for directory in reader.directories():
            report.directories += 1
            if directory.prev_offset != prev_offset:
                report.errors.append(
                    f"directory at {directory.offset}: prev pointer "
                    f"{directory.prev_offset} != expected {prev_offset}"
                )
            prev_offset = directory.offset
            for frame in directory.frames:
                report.frames += 1
                try:
                    batch = reader.read_frame_batch(frame)
                except FormatError as exc:
                    report.errors.append(str(exc))
                    continue
                if batch.n:
                    lo = int(batch.start.min())
                    hi = int(batch.end.max())
                    if lo != frame.start_time or hi != frame.end_time:
                        report.errors.append(
                            f"frame at {frame.offset}: time range "
                            f"[{lo}, {hi}] != entry [{frame.start_time}, {frame.end_time}]"
                        )
    except FormatError as exc:
        report.errors.append(str(exc))
        return

    # Records: ordering, thread refs, bebits, markers.
    checker = RecordInvariantChecker(reader.thread_table, reader.markers)
    try:
        _scan_records(reader, report, checker)
    except FormatError as exc:
        report.errors.append(str(exc))
        return
    for key in checker.leftover_open():
        report.warnings.append(f"state left open at end of file: {key}")


class RecordInvariantChecker:
    """The per-record invariants, factored so the validator and the
    recovery engine judge records identically.

    :meth:`problems` is non-mutating — what errors/warnings would this
    record add given everything accepted so far; :meth:`accept` folds the
    record into the tracked state (ordering watermark, open bebits states,
    pseudo count).  The validator calls both for every record; recovery
    calls ``accept`` only for records with no errors, so whatever it keeps
    replays cleanly through the validator."""

    def __init__(self, thread_table, markers: dict[int, str]) -> None:
        self.thread_table = thread_table
        self.markers = markers
        self.open_states: dict[tuple, int] = {}
        self.last_end: int | None = None
        self.pseudo_records = 0

    @staticmethod
    def state_key(record) -> tuple:
        """The bebits-balance key: (node, thread, type, marker id)."""
        return (
            record.node,
            record.thread,
            record.itype,
            record.extra.get("markerId", 0),
        )

    def problems(self, record) -> tuple[list[str], list[str]]:
        """``(errors, warnings)`` this record would contribute, judged
        against the state accumulated by prior :meth:`accept` calls."""
        errors: list[str] = []
        warnings: list[str] = []
        if self.last_end is not None and record.end < self.last_end:
            errors.append(
                f"record order violation: end {record.end} after {self.last_end}"
            )
        if record.itype != IntervalType.CLOCKPAIR:
            try:
                self.thread_table.lookup(record.node, record.thread)
            except FormatError:
                errors.append(
                    f"record references unknown thread node={record.node} "
                    f"ltid={record.thread}"
                )
        if record.itype == IntervalType.MARKER:
            marker_id = record.extra.get("markerId", 0)
            if marker_id not in self.markers:
                errors.append(
                    f"marker record references unknown marker id {marker_id}"
                )
        key = self.state_key(record)
        if record.bebits is BeBits.BEGIN:
            if self.open_states.get(key):
                errors.append(f"nested begin for state {key}")
        elif record.bebits is BeBits.END:
            if not self.open_states.get(key):
                errors.append(f"end without begin for state {key}")
        elif record.is_pseudo:
            if not self.open_states.get(key):
                warnings.append(f"pseudo-interval for state {key} that is not open")
        elif record.bebits is BeBits.CONTINUATION:
            if not self.open_states.get(key):
                errors.append(f"orphan continuation for state {key}")
        return errors, warnings

    def accept(self, record) -> None:
        """Fold one record into the tracked state."""
        self.last_end = record.end
        key = self.state_key(record)
        if record.bebits is BeBits.BEGIN:
            self.open_states[key] = 1
        elif record.bebits is BeBits.END:
            self.open_states[key] = 0
        elif record.is_pseudo:
            self.pseudo_records += 1

    def leftover_open(self) -> list[tuple]:
        """State keys still open (warning-level: a trace may legitimately
        end mid-state)."""
        return [k for k, v in self.open_states.items() if v]


def _scan_records(
    reader: IntervalReader, report: ValidationReport, checker: RecordInvariantChecker
) -> None:
    for record in reader.intervals():
        report.records += 1
        errors, warnings = checker.problems(record)
        report.errors.extend(errors)
        report.warnings.extend(warnings)
        checker.accept(record)
    report.pseudo_records = checker.pseudo_records


def validate_files(
    paths: list[str | Path], profile: Profile
) -> list[ValidationReport]:
    """Validate several files; returns one report per file."""
    return [validate_interval_file(p, profile) for p in paths]
