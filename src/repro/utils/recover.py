"""Rewrite a damaged trace file into a clean, validated one.

``recover_file`` is the engine behind the ``ute-recover`` CLI.  It sniffs
the input's magic (interval file, SLOG, or raw trace), reads it with the
salvage-mode reader stack — resynchronizing over damage instead of raising
— filters the surviving records through the *same* invariant checks
``ute-validate`` applies (:class:`~repro.utils.validate.RecordInvariantChecker`),
and writes whatever passes through the crash-safe writers.  The output is
then re-opened strictly and proved:

* interval files run through :func:`~repro.utils.validate.validate_interval_file`
  and must report **zero errors**;
* SLOG and raw outputs must decode in full under the strict readers.

The :class:`RecoveryReport` carries both sides of the story: what salvage
had to give up on the way in, and the proof on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.magic import sniff_kind
from repro.core.profilefmt import Profile
from repro.core.salvage import SalvageReport
from repro.errors import FormatError
from repro.utils.validate import (
    RecordInvariantChecker,
    ValidationReport,
    validate_interval_file,
)

def default_output_path(input_path: str | Path) -> Path:
    """Where ``ute-recover`` writes when no ``-o`` is given:
    ``trace.ute`` → ``trace.recovered.ute``."""
    path = Path(input_path)
    return path.with_name(f"{path.stem}.recovered{path.suffix}")


@dataclass
class RecoveryReport:
    """Outcome of one recovery run: salvage accounting on the way in,
    validation proof on the way out."""

    input_path: Path
    output_path: Path
    kind: str
    records_in: int = 0
    records_out: int = 0
    records_rejected: int = 0
    salvage: SalvageReport = field(default_factory=SalvageReport)
    validation: ValidationReport | None = None
    verify_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the recovered output proved clean."""
        if self.verify_errors:
            return False
        if self.validation is not None:
            return self.validation.ok
        return True

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"{self.input_path} ({self.kind}) -> {self.output_path}: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  records: {self.records_in} salvaged, {self.records_out} written, "
            f"{self.records_rejected} rejected by invariants",
            f"  {self.salvage.summary()}",
        ]
        if self.validation is not None:
            lines.append(
                "  output validation: "
                + ("zero errors" if self.validation.ok else "ERRORS")
            )
            lines += [f"    error: {e}" for e in self.validation.errors]
        lines += [f"  verify error: {e}" for e in self.verify_errors]
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (``ute-recover --json``)."""
        return {
            "input": str(self.input_path),
            "output": str(self.output_path),
            "kind": self.kind,
            "ok": self.ok,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "records_rejected": self.records_rejected,
            "salvage": self.salvage.as_dict(),
            "validation_errors": (
                list(self.validation.errors) if self.validation is not None else []
            ),
            "verify_errors": list(self.verify_errors),
        }


def recover_file(
    input_path: str | Path,
    output_path: str | Path | None = None,
    *,
    profile: Profile | None = None,
    frame_bytes: int = 32 * 1024,
) -> RecoveryReport:
    """Recover one damaged trace file; returns the full report.

    ``profile`` is required for interval files (they do not embed one);
    SLOG files are self-describing and raw traces need none."""
    input_path = Path(input_path)
    out = Path(output_path) if output_path is not None else default_output_path(input_path)
    if out.resolve() == input_path.resolve():
        raise FormatError(f"{input_path}: refusing to recover a file onto itself")
    kind = sniff_kind(input_path)
    if kind == "interval":
        if profile is None:
            raise FormatError(
                f"{input_path}: recovering an interval file requires its profile"
            )
        return _recover_interval(input_path, out, profile, frame_bytes)
    if kind == "slog":
        return _recover_slog(input_path, out, frame_bytes)
    return _recover_raw(input_path, out)


# ---------------------------------------------------------------------------
# Per-kind engines.


def _recover_interval(
    input_path: Path, out: Path, profile: Profile, frame_bytes: int
) -> RecoveryReport:
    from repro.core.reader import IntervalReader
    from repro.core.writer import IntervalFileWriter

    with IntervalReader(input_path, profile, errors="salvage") as reader:
        assert reader.salvage is not None
        report = RecoveryReport(input_path, out, "interval", salvage=reader.salvage)
        checker = RecordInvariantChecker(reader.thread_table, reader.markers)
        with IntervalFileWriter(
            out,
            profile,
            reader.thread_table,
            markers=reader.markers,
            node_cpus=reader.node_cpus,
            field_mask=reader.header.field_mask,
            frame_bytes=frame_bytes,
            ticks_per_sec=reader.header.ticks_per_sec,
        ) as writer:
            for record in reader.intervals():
                report.records_in += 1
                errors, _warnings = checker.problems(record)
                if errors:
                    report.records_rejected += 1
                    continue
                checker.accept(record)
                writer.write(record)
                report.records_out += 1
    # Prove the output with the same validator ute-validate runs.
    report.validation = validate_interval_file(out, profile)
    return report


def _recover_slog(input_path: Path, out: Path, frame_bytes: int) -> RecoveryReport:
    from repro.utils.slog import SlogFile, SlogWriter

    with SlogFile(input_path, errors="salvage") as slog:
        assert slog.salvage is not None
        report = RecoveryReport(input_path, out, "slog", salvage=slog.salvage)
        checker = RecordInvariantChecker(slog.thread_table, slog.markers)
        with SlogWriter(
            out,
            slog.profile,
            slog.thread_table,
            markers=slog.markers,
            node_cpus=slog.node_cpus,
            field_mask=slog.field_mask,
            frame_bytes=frame_bytes,
            time_range=slog.time_range,
            preview_bins=slog.preview_bins,
            ticks_per_sec=slog.ticks_per_sec,
        ) as writer:
            for frame in slog.frames:
                for record in slog.read_frame(frame):
                    report.records_in += 1
                    errors, _warnings = checker.problems(record)
                    if errors:
                        report.records_rejected += 1
                        continue
                    checker.accept(record)
                    writer.write(record, pseudo=record.is_pseudo)
                    report.records_out += 1
            writer.close()
    _verify_slog(out, report)
    return report


def _recover_raw(input_path: Path, out: Path) -> RecoveryReport:
    from repro.tracing.rawfile import RawTraceReader, RawTraceWriter

    with RawTraceReader(input_path, errors="salvage") as reader:
        assert reader.salvage is not None
        report = RecoveryReport(input_path, out, "raw", salvage=reader.salvage)
        with RawTraceWriter(out, reader.header) as writer:
            for event in reader:
                report.records_in += 1
                writer.write(event)
                report.records_out += 1
    _verify_raw(out, report)
    return report


def _verify_slog(out: Path, report: RecoveryReport) -> None:
    """Strictly re-read the recovered SLOG; any raise is a verify error."""
    from repro.utils.slog import SlogFile

    try:
        with SlogFile(out) as check:
            n = sum(len(check.read_frame(f)) for f in check.frames)
    except FormatError as exc:
        report.verify_errors.append(str(exc))
        return
    if n != report.records_out:
        report.verify_errors.append(
            f"{out}: recovered file holds {n} records, expected {report.records_out}"
        )


def _verify_raw(out: Path, report: RecoveryReport) -> None:
    """Strictly re-read the recovered raw trace; any raise is a verify
    error."""
    from repro.errors import ReproError
    from repro.tracing.rawfile import RawTraceReader

    try:
        with RawTraceReader(out) as check:
            n = len(check.events())
    except ReproError as exc:
        report.verify_errors.append(str(exc))
        return
    if n != report.records_out:
        report.verify_errors.append(
            f"{out}: recovered file holds {n} events, expected {report.records_out}"
        )
