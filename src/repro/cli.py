"""Command-line entry points (the pipeline of paper Figure 2).

=============  =============================================================
command        role
=============  =============================================================
ute-trace      run a built-in workload under tracing -> raw trace files
ute-convert    raw trace files -> per-node interval files (+ profile);
               --to/--from translate one trace to/from Chrome trace-event
               JSON or OTF2-style text (repro.interop)
ute-merge      interval files -> one merged interval file
slogmerge      interval files -> merged interval file + SLOG
ute-stats      interval files + table program -> TSV tables (+ SVG viewer)
ute-preview    SLOG -> whole-run preview SVG + interesting ranges
ute-view       SLOG -> time-space diagram SVG (or ANSI), whole run or the
               frame containing a chosen instant
ute-serve      SLOG -> concurrent HTTP daemon (API + lazy web viewer)
ute-recover    damaged .ute/.slog/raw trace -> clean validated file + report
ute-query      interval/SLOG (+ .uteidx sidecar) -> pruned, filtered scans;
               --build-index writes the sidecar
ute-diff       two trace artifacts -> semantic record-by-record divergence
               report (exit 0 identical / 1 divergent / 2 usage)
ute-oracle     trace artifacts -> pipeline-consistency findings (every
               equivalent read-path pair must agree)
ute-tail       live trace (TRACE.live/ container or a ute-serve /follow
               stream) -> one line per published epoch until finalization;
               --out re-emits the followed records for ute-diff

=============  =============================================================

Each ``main_*`` function doubles as a console-script entry point and a
library helper (pass ``argv`` explicitly in tests).

Every entry point validates its input paths up front, and runs under one
guard (:func:`_entry`): a missing or unreadable file, a file that is not a
trace, a malformed option value — any :class:`~repro.errors.ReproError` or
``OSError`` — produces a one-line ``prog: error: ...`` on stderr and exit
status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from repro.core.profilefmt import Profile, standard_profile
from repro.core.windows import parse_window
from repro.errors import ReproError


class _Usage(ReproError):
    """A command-line mistake the argument parser cannot see."""


def _entry(prog: str):
    """The guard every ``main_*`` runs under: an uncaught
    :class:`ReproError` (a :class:`_Usage`, a file that is not a trace, a
    bad window …) or ``OSError`` becomes ``prog: error: <message>`` on
    stderr and exit status 2."""

    def wrap(body):
        @functools.wraps(body)
        def main(argv: list[str] | None = None) -> int:
            try:
                return body(argv)
            except (ReproError, OSError) as exc:
                print(f"{prog}: error: {exc}", file=sys.stderr)
                return 2

        return main

    return wrap


def _profile_for(args) -> Profile:
    if getattr(args, "profile", None):
        return Profile.read(args.profile)
    return standard_profile()


def _check_inputs(*paths) -> None:
    """Refuse the first input path that is not a readable, non-empty file
    (``None`` entries — options not given — are skipped)."""
    for name in paths:
        if name is None:
            continue
        path = Path(name)
        if path.is_dir():
            raise _Usage(f"input path is a directory: {name}")
        if not path.exists():
            raise _Usage(f"input file not found: {name}")
        if not os.access(path, os.R_OK):
            raise _Usage(f"input file not readable: {name}")
        if path.stat().st_size == 0:
            raise _Usage(f"input file is empty: {name}")


def _check_output(out) -> None:
    """Refuse an output path that cannot be written: its nearest existing
    ancestor must be a writable directory (missing intermediate dirs are
    auto-created)."""
    probe = Path(out).absolute().parent
    while not probe.exists() and probe.parent != probe:
        probe = probe.parent
    if not probe.is_dir():
        raise _Usage(f"output location is not a directory: {probe}")
    if not os.access(probe, os.W_OK):
        raise _Usage(f"output directory not writable: {probe}")


def _add_window(parser: argparse.ArgumentParser, help: str) -> None:
    """``--window T0:T1``, read back with :func:`_window_arg`."""
    parser.add_argument("--window", default=None, metavar="T0:T1", help=help)


def _window_arg(args) -> tuple[float | None, float | None] | None:
    """The optional ``--window T0:T1`` (seconds)."""
    return parse_window(args.window) if args.window else None


def _add_server(
    parser: argparse.ArgumentParser,
    server_help: str,
    dataset_help: str = "dataset name on the server (default: the "
    "server's default dataset)",
) -> None:
    """``--server URL`` + ``--dataset NAME``: the remote mode."""
    parser.add_argument("--server", default=None, metavar="URL", help=server_help)
    parser.add_argument("--dataset", default=None, metavar="NAME", help=dataset_help)


def _print_report(args, doc, summary: str) -> None:
    """The ``--json`` tail of the report tools: the document as indented
    JSON, else the text summary."""
    print(json.dumps(doc, indent=2) if args.json else summary)


def _resolve_type(text: str, profile: Profile) -> int:
    """An interval type given as a number or a profile record name."""
    try:
        return int(text, 0)
    except ValueError:
        pass
    wanted = text.strip().lower()
    for itype in profile.record_types():
        if profile.record_name(itype).lower() == wanted:
            return itype
    raise _Usage(f"unknown interval type {text!r}")


@_entry("ute-trace")
def main_trace(argv: list[str] | None = None) -> int:
    """Run a built-in workload under tracing."""
    parser = argparse.ArgumentParser(
        "ute-trace", description="Trace a built-in workload on the simulated cluster."
    )
    parser.add_argument(
        "workload",
        choices=["pingpong", "stencil", "sppm", "flash", "synthetic", "ioheavy"],
    )
    parser.add_argument("-o", "--out", default="trace-out", help="output directory")
    parser.add_argument("--rounds", type=int, default=None, help="synthetic rounds")
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument(
        "--live", default=None, metavar="TRACE",
        help="additionally replay the run through the live pipeline: "
        "convert+merge, then stream the records into TRACE's live "
        "container paced over --live-duration seconds (follow it with "
        "ute-tail or a ute-serve /follow endpoint); TRACE is assembled "
        "as an ordinary trace when the replay finishes",
    )
    parser.add_argument(
        "--live-duration", type=float, default=2.0, metavar="S",
        help="wall-clock seconds the live replay is paced over",
    )
    parser.add_argument(
        "--live-interval", type=float, default=0.1, metavar="S",
        help="seconds between published live epochs",
    )
    parser.add_argument(
        "--live-flavor", choices=["slog", "interval"], default="slog",
        help="format of the assembled trace (and the live frames)",
    )
    args = parser.parse_args(argv)
    if args.live is not None:
        _check_output(args.live)
        if Path(args.live).exists():
            raise _Usage(f"--live target already exists: {args.live}")

    from repro.workloads import (
        run_flash,
        run_ioheavy,
        run_pingpong,
        run_sppm,
        run_stencil,
        run_synthetic,
    )
    from repro.workloads.flash import FlashConfig
    from repro.workloads.sppm import SppmConfig
    from repro.workloads.synthetic import SyntheticConfig

    out = Path(args.out)
    if args.workload == "pingpong":
        run = run_pingpong(out)
    elif args.workload == "stencil":
        run = run_stencil(out)
    elif args.workload == "sppm":
        config = SppmConfig(iterations=args.iterations or 4)
        run = run_sppm(out, config)
    elif args.workload == "flash":
        config = FlashConfig(iterations=args.iterations or 30)
        run = run_flash(out, config)
    elif args.workload == "ioheavy":
        run = run_ioheavy(out)
    else:
        config = SyntheticConfig(rounds=args.rounds or 50)
        run = run_synthetic(out, config)
    for path in run.raw_paths:
        print(path)
    print(f"simulated {run.elapsed_ns / 1e9:.4f}s", file=sys.stderr)
    if args.live is not None:
        from repro.workloads.harness import live_replay_run

        final = live_replay_run(
            run,
            args.live,
            duration_s=args.live_duration,
            publish_interval_s=args.live_interval,
            flavor=args.live_flavor,
        )
        print(final)
        print(f"live replay finished: {final}", file=sys.stderr)
    return 0


def _convert_export(args) -> int:
    """``ute-convert --to``: one trace file out to a foreign format."""
    from repro.interop import export_chrome_json, export_otf2_text

    profile = _profile_for(args)
    if args.to_fmt == "chrome-json":
        result = export_chrome_json(args.raw[0], args.out, profile=profile)
        summary = f"{result.records} interval records -> {result.events} trace events"
    else:
        result = export_otf2_text(args.raw[0], args.out, profile=profile)
        summary = (
            f"{result.records} interval records -> {result.events} events "
            f"on {result.lines} lines"
        )
    print(result.out_path)
    print(summary, file=sys.stderr)
    return 0


def _convert_import(args) -> int:
    """``ute-convert --from``: one foreign file in to an interval file."""
    from repro.interop import import_chrome_json, import_otf2_text

    profile = _profile_for(args)
    if args.from_fmt == "chrome-json":
        result = import_chrome_json(
            args.raw[0], args.out, profile=profile, errors=args.errors,
            frame_bytes=args.frame_bytes,
        )
        summary = (
            f"{result.events_total} trace events -> "
            f"{result.records_written} interval records"
            + (f" ({result.events_skipped} salvaged away)"
               if result.events_skipped else "")
        )
    else:
        result = import_otf2_text(
            args.raw[0], args.out, profile=profile, errors=args.errors,
            frame_bytes=args.frame_bytes,
        )
        salvage = result.salvage
        repaired = (
            salvage.malformed_lines + salvage.unmatched_leaves
            + salvage.autoclosed_regions
        )
        summary = (
            f"{salvage.events} events -> {result.records_written} interval records"
            + (f" ({repaired} defects salvaged)" if repaired else "")
        )
    print(result.out_path)
    print(summary, file=sys.stderr)
    return 0


@_entry("ute-convert")
def main_convert(argv: list[str] | None = None) -> int:
    """Convert raw trace files into interval files, or translate one trace
    to/from a foreign format (``--to`` / ``--from``)."""
    parser = argparse.ArgumentParser(
        "ute-convert",
        description="Convert raw event traces to interval files, or "
        "translate traces to/from foreign formats.",
    )
    parser.add_argument(
        "raw", nargs="+",
        help="raw trace files (one per node); with --to/--from, exactly one "
        "trace or foreign-format file",
    )
    parser.add_argument(
        "-o", "--out", default=None,
        help="output directory (default: intervals); with --to/--from, the "
        "output file (required)",
    )
    parser.add_argument("--frame-bytes", type=int, default=32 * 1024)
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="convert node files in N parallel processes (output is "
        "byte-identical to the serial pass)",
    )
    parser.add_argument(
        "--to", dest="to_fmt", default=None,
        choices=["chrome-json", "otf2-text"],
        help="export one .ute/.slog file to a foreign format",
    )
    parser.add_argument(
        "--from", dest="from_fmt", default=None,
        choices=["chrome-json", "otf2-text"],
        help="import one foreign-format file into a .ute interval file",
    )
    parser.add_argument(
        "--errors", default="strict", choices=["strict", "salvage"],
        help="--from only: fail on the first defect, or skip-and-count",
    )
    parser.add_argument("--profile", default=None, help="profile file (default: standard)")
    args = parser.parse_args(argv)

    if args.to_fmt and args.from_fmt:
        raise _Usage("--to and --from are mutually exclusive")
    _check_inputs(*args.raw)
    if args.to_fmt or args.from_fmt:
        if len(args.raw) != 1:
            raise _Usage("--to/--from converts exactly one input file")
        if args.out is None:
            raise _Usage("--to/--from needs an explicit -o OUTPUT file")
        _check_output(args.out)
        if args.to_fmt:
            return _convert_export(args)
        return _convert_import(args)

    from repro.utils.convert import convert_traces

    result = convert_traces(
        args.raw, args.out or "intervals",
        frame_bytes=args.frame_bytes, jobs=args.jobs,
    )
    for path in result.interval_paths:
        print(path)
    print(
        f"{result.events_processed} events -> {result.records_written} interval records",
        file=sys.stderr,
    )
    return 0


def _merge_args(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog, description="Merge per-node interval files into one."
    )
    parser.add_argument("intervals", nargs="+", help="per-node interval files")
    parser.add_argument("-o", "--out", default="merged.ute")
    parser.add_argument("--profile", default=None, help="profile file (default: standard)")
    parser.add_argument(
        "--sync",
        default="rms_segment",
        choices=["rms_segment", "rms_anchored", "last_slope", "piecewise"],
        help="clock-ratio estimator",
    )
    parser.add_argument("--frame-bytes", type=int, default=32 * 1024)
    parser.add_argument(
        "--threads",
        default=None,
        choices=[None, "mpi", "user", "system"],
        help="merge only this thread category",
    )
    return parser


def _run_merge(args, slog_path):
    from repro.core.threadtable import THREAD_TYPE_MPI, THREAD_TYPE_SYSTEM, THREAD_TYPE_USER
    from repro.utils.merge import merge_interval_files

    types = None
    if args.threads:
        types = {
            "mpi": {THREAD_TYPE_MPI},
            "user": {THREAD_TYPE_USER},
            "system": {THREAD_TYPE_SYSTEM},
        }[args.threads]
    return merge_interval_files(
        args.intervals,
        args.out,
        _profile_for(args),
        sync_mode=args.sync,
        frame_bytes=args.frame_bytes,
        slog_path=slog_path,
        thread_types=types,
    )


def _check_merge_inputs(parser: argparse.ArgumentParser, args) -> None:
    """Reject degenerate input lists with a one-line parser error.

    A profile file swept in by a glob (``ivl/*.ute`` includes the convert
    output's ``profile.ute``) is not an error: it is pulled out of the
    interval list and, unless ``--profile`` was given, used as the profile.
    """
    from repro.core.profilefmt import MAGIC as PROFILE_MAGIC

    if not args.intervals:
        parser.error("no input files to merge")
    seen: set[Path] = set()
    intervals: list[str] = []
    for name in args.intervals:
        resolved = Path(name).resolve()
        if resolved in seen:
            parser.error(f"duplicate input file: {name}")
        seen.add(resolved)
        try:
            with open(name, "rb") as handle:
                is_profile = handle.read(8) == PROFILE_MAGIC
        except OSError:
            is_profile = False  # let the reader produce its usual error
        if is_profile:
            if args.profile and Path(args.profile).resolve() != resolved:
                parser.error(f"conflicting profile files: {args.profile} and {name}")
            args.profile = name
        else:
            intervals.append(name)
    if not intervals:
        parser.error("no input files to merge")
    args.intervals = intervals


@_entry("ute-merge")
def main_merge(argv: list[str] | None = None) -> int:
    """Merge interval files (no SLOG)."""
    parser = _merge_args("ute-merge")
    args = parser.parse_args(argv)
    _check_merge_inputs(parser, args)
    _check_inputs(*args.intervals, args.profile)
    result = _run_merge(args, None)
    print(result.merged_path)
    print(
        f"{result.files_in} files -> {result.records_out} records "
        f"(+{result.pseudo_records} pseudo)",
        file=sys.stderr,
    )
    return 0


@_entry("slogmerge")
def main_slogmerge(argv: list[str] | None = None) -> int:
    """Merge interval files and also emit SLOG (the slogmerge of Table 1)."""
    parser = _merge_args("slogmerge")
    parser.add_argument("--slog", default="out.slog")
    args = parser.parse_args(argv)
    _check_merge_inputs(parser, args)
    _check_inputs(*args.intervals, args.profile)
    result = _run_merge(args, args.slog)
    print(result.merged_path)
    print(result.slog_path)
    return 0


def _server_client(args, **options):
    """The ``--server URL [--dataset NAME]`` client; a URL it cannot speak
    to (no ``http://``, no host, a port that is no number) is a usage
    error."""
    from repro.serve.client import ServeClient

    try:
        return ServeClient(args.server, dataset=args.dataset, **options)
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def _remote(args, call):
    """``--server URL [--dataset NAME]``: run ``call(client)`` against a
    ute-serve repository and return its 200/304 response; an unreachable
    server or an error status is a usage error carrying the server's own
    message."""
    client = _server_client(args, retries=2)
    try:
        response = call(client)
    except OSError as exc:
        raise _Usage(f"server unreachable: {exc}") from None
    if response.status not in (200, 304):
        detail = response.text.strip()
        try:
            detail = response.json().get("error", detail)
        except (ValueError, AttributeError):
            pass  # a plain-text error body: shown as is
        raise _Usage(f"server returned {response.status}: {detail}")
    return response


def _remote_stats(args) -> int:
    """``ute-stats --server``: run the table program through the
    repository's ``/api/.../stats`` endpoint."""
    if not args.program:
        raise _Usage("--server requires --program (a statlang table file)")
    if args.intervals:
        raise _Usage("local interval files cannot be combined with --server")
    if args.svg:
        raise _Usage("--svg is not available with --server")
    program = Path(args.program).read_text()
    response = _remote(
        args,
        lambda client: client.stats(
            program, format="json" if args.json else "tsv", window=args.window
        ),
    )
    if args.json:
        print(json.dumps(response.json(), indent=2))
    else:
        sys.stdout.write(response.text)
        if not response.text.endswith("\n"):
            sys.stdout.write("\n")
    return 0


@_entry("ute-stats")
def main_stats(argv: list[str] | None = None) -> int:
    """Generate statistics tables from interval files."""
    parser = argparse.ArgumentParser(
        "ute-stats", description="Generate statistics tables from interval files."
    )
    parser.add_argument("intervals", nargs="*")
    parser.add_argument("--program", default=None, help="table program file")
    _add_server(parser, "run the table program on a ute-serve repository "
                "instead of local files")
    parser.add_argument("--profile", default=None)
    parser.add_argument("-o", "--out", default="stats", help="output directory")
    parser.add_argument("--svg", action="store_true", help="also render SVG viewers")
    _add_window(parser, "only records overlapping this window (seconds); "
                "frames outside it are pruned via the sidecar index")
    parser.add_argument(
        "--json", action="store_true",
        help="print tables plus per-file read accounting as JSON on stdout "
        "instead of writing TSV files",
    )
    args = parser.parse_args(argv)
    if args.server is not None:
        return _remote_stats(args)
    if not args.intervals:
        raise _Usage("at least one interval file is required (or --server)")
    _check_inputs(*args.intervals, args.program, args.profile)

    from repro.utils.stats import (
        generate_tables,
        interval_records,
        predefined_tables,
        source_metadata,
    )

    window = _window_arg(args)
    profile = _profile_for(args)
    # The files' own tick rate and thread tables — the same inputs the
    # serving daemon uses, so ute-stats and /api/stats give one answer.
    ticks_per_sec, thread_table = source_metadata(args.intervals, profile)
    io_log: dict[str, dict] = {}
    records = list(
        interval_records(args.intervals, profile, window=window, io_log=io_log)
    )
    if args.program:
        tables = generate_tables(
            records,
            Path(args.program).read_text(),
            ticks_per_sec=ticks_per_sec,
            thread_table=thread_table,
        )
    else:
        total = max((r.end for r in records), default=1) / ticks_per_sec
        tables = predefined_tables(
            records,
            total_seconds=total,
            ticks_per_sec=ticks_per_sec,
            thread_table=thread_table,
        )
    if args.json:
        doc = {
            "files": list(args.intervals),
            "window": list(window) if window else None,
            "records": len(records),
            "tables": {
                t.name: {
                    "columns": list(t.x_labels + t.y_labels),
                    "rows": [
                        list(k) + list(t.rows[k]) for k in sorted(t.rows)
                    ],
                }
                for t in tables
            },
            # Per-file accounting: each input's own bytes/fetches/plan,
            # not one aggregate blurred across the run.
            "io": io_log,
        }
        print(json.dumps(doc, indent=2))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for table in tables:
        path = table.write(out / f"{table.name}.tsv")
        print(path)
        if args.svg:
            _render_stats_svg(table, out, profile)
    return 0


def _render_stats_svg(table, out: Path, profile) -> None:
    from repro.viz.statviewer import render_binned_table_svg, render_table_svg

    try:
        if len(table.x_labels) == 2 and table.x_labels[1] == "bin":
            print(render_binned_table_svg(table, out / f"{table.name}.svg"))
        elif len(table.x_labels) == 1:
            names = None
            if table.x_labels[0] == "type":
                names = {t: profile.record_name(t) for t in profile.record_types()}
            print(render_table_svg(table, out / f"{table.name}.svg", name_of=names))
    except ValueError as exc:
        print(f"(skipping SVG for {table.name}: {exc})", file=sys.stderr)


@_entry("ute-validate")
def main_validate(argv: list[str] | None = None) -> int:
    """Validate interval files' structural invariants."""
    parser = argparse.ArgumentParser(
        "ute-validate", description="Check interval files for format violations."
    )
    parser.add_argument("intervals", nargs="+")
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)
    _check_inputs(*args.intervals, args.profile)

    from repro.utils.validate import validate_files

    reports = validate_files(args.intervals, _profile_for(args))
    for report in reports:
        print(report.summary())
    return 0 if all(r.ok for r in reports) else 1


@_entry("ute-recover")
def main_recover(argv: list[str] | None = None) -> int:
    """Rewrite a damaged trace file into a clean, validated one."""
    parser = argparse.ArgumentParser(
        "ute-recover",
        description=(
            "Salvage a damaged interval (.ute), SLOG (.slog), or raw trace "
            "file into a clean file that passes validation, plus a recovery "
            "report."
        ),
    )
    parser.add_argument("input", help="damaged trace file")
    parser.add_argument(
        "-o",
        "--out",
        default=None,
        help="recovered output path (default: <input>.recovered<suffix>)",
    )
    parser.add_argument(
        "--profile", default=None, help="profile file (required for .ute inputs)"
    )
    parser.add_argument("--frame-bytes", type=int, default=32 * 1024)
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    args = parser.parse_args(argv)
    _check_inputs(args.input, args.profile)

    from repro.utils.recover import default_output_path, recover_file, sniff_kind

    out = args.out if args.out is not None else default_output_path(args.input)
    _check_output(out)
    kind = sniff_kind(args.input)
    profile = _profile_for(args) if kind == "interval" else None
    report = recover_file(
        args.input, out, profile=profile, frame_bytes=args.frame_bytes
    )
    _print_report(args, report.as_dict(), report.summary())
    return 0 if report.ok else 1


@_entry("ute-preview")
def main_preview(argv: list[str] | None = None) -> int:
    """Render the whole-run preview from a SLOG file."""
    parser = argparse.ArgumentParser(
        "ute-preview", description="Whole-run preview and interesting time ranges."
    )
    parser.add_argument("slog")
    parser.add_argument("-o", "--out", default="preview.svg")
    parser.add_argument("--threshold", type=float, default=0.05)
    args = parser.parse_args(argv)
    _check_inputs(args.slog)
    _check_output(args.out)

    from repro.viz.jumpshot import Jumpshot

    viewer = Jumpshot(args.slog)
    print(viewer.render_preview(args.out))
    for lo, hi in viewer.interesting_ranges(args.threshold):
        print(f"interesting: {lo:.4f}s .. {hi:.4f}s", file=sys.stderr)
    return 0


@_entry("ute-profile")
def main_profile(argv: list[str] | None = None) -> int:
    """Print the blocking call profile of interval files."""
    parser = argparse.ArgumentParser(
        "ute-profile",
        description="Per-state blocking analysis: wall vs on-CPU vs blocked time.",
    )
    parser.add_argument("intervals", nargs="+")
    parser.add_argument("--profile", default=None)
    parser.add_argument("--include-running", action="store_true")
    _add_window(parser, "profile only this window (seconds); frames outside "
                "it are pruned via the sidecar index")
    args = parser.parse_args(argv)
    _check_inputs(*args.intervals, args.profile)

    from repro.analysis.blocking import call_profile, format_call_profile
    from repro.query import open_scan

    window = _window_arg(args)
    profile = _profile_for(args)
    records = []
    markers: dict[int, str] = {}
    for path in args.intervals:
        with open_scan(path, profile, window=window) as s:
            markers.update(s.handle.markers)
            records.extend(s.records())
    rows = call_profile(
        records, profile, markers=markers, include_running=args.include_running
    )
    print(format_call_profile(rows))
    return 0


@_entry("ute-dump")
def main_dump(argv: list[str] | None = None) -> int:
    """Dump any trace artifact (raw/interval/SLOG) as text."""
    parser = argparse.ArgumentParser(
        "ute-dump", description="Print trace files as human-readable text."
    )
    parser.add_argument("files", nargs="+")
    parser.add_argument("--profile", default=None)
    parser.add_argument("-n", "--limit", type=int, default=None,
                        help="max records per file")
    parser.add_argument("--frame", type=int, default=None,
                        help="dump only this frame ordinal (seeks, no full decode)")
    _add_window(parser, "dump only frames overlapping this window (seconds)")
    args = parser.parse_args(argv)
    _check_inputs(*args.files, args.profile)

    from repro.utils.dump import dump_any

    window = _window_arg(args)
    profile = _profile_for(args)
    for path in args.files:
        for line in dump_any(
            path, profile, limit=args.limit, frame=args.frame, window=window
        ):
            print(line)
    return 0


def _utilization_tsv(payload: dict) -> str:
    """Render an ``/api/utilization``-shaped payload as TSV (one row per
    occupied cell) — shared by the local and --server paths."""
    lane_field = "thread" if payload.get("kind") == "thread" else "cpu"
    lines = [
        f"node\t{lane_field}\tstart_s\tend_s\tcount\tbusy_s\tbusy_frac\tdominant"
    ]
    names = payload.get("state_names", {})
    for lane in payload.get("lanes", []):
        for cell in lane["cells"]:
            dominant = cell["dominant"]
            lines.append(
                f"{lane['node']}\t{lane[lane_field]}\t{cell['start']:.9g}"
                f"\t{cell['end']:.9g}\t{cell['count']}\t{cell['busy']:.9g}"
                f"\t{cell['busy_frac']:.4f}"
                f"\t{names.get(str(dominant), dominant)}"
            )
    return "\n".join(lines) + "\n"


def _print_payload(args, payload: dict, to_tsv) -> None:
    """A query or utilization payload on stdout as ``--format`` asks."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(to_tsv(payload))


def _index_arg(args):
    """``--no-index`` / ``--index PATH`` as the query API's ``index``."""
    return False if args.no_index else (args.index or "auto")


def _local_utilization(args, profile) -> dict:
    """``ute-query TRACE --utilization``: busy-time aggregates from the
    sidecar's utilization hierarchy.  When the sidecar is missing, stale
    or of an older format, the index is rebuilt in memory — the printed
    cells never silently fall behind the trace."""
    from repro.core.windows import window_to_ticks
    from repro.query import DEFAULT_TIME_BINS, build_index, open_trace, resolve_index
    from repro.query.utilization import utilization_payload

    with open_trace(args.trace, profile, errors=args.errors) as handle:
        index, _reason = resolve_index(args.trace, _index_arg(args))
        if index is None or index.utilization is None:
            index = build_index(handle, n_bins=DEFAULT_TIME_BINS)
        tps = handle.ticks_per_sec
    util = index.utilization
    if util is None:
        raise _Usage("trace holds no records to aggregate")
    t0, t1 = window_to_ticks(_window_arg(args), tps)
    window = (util.t_min if t0 is None else t0, util.t_max if t1 is None else t1)
    return utilization_payload(
        util, args.lane, window, args.bins or 512, tps, profile.record_name
    )


def _build_index(args, profile) -> int:
    """``ute-query TRACE --build-index``: write the ``.uteidx`` sidecar."""
    from repro.query import (
        DEFAULT_TIME_BINS,
        build_index,
        index_path_for,
        open_trace,
        write_index,
    )

    sidecar = Path(args.index) if args.index else index_path_for(args.trace)
    _check_output(sidecar)
    with open_trace(args.trace, profile, errors=args.errors) as handle:
        index = build_index(handle, n_bins=args.bins or DEFAULT_TIME_BINS)
    write_index(index, sidecar)
    print(sidecar)
    info = index.summary()
    print(
        f"indexed {info['frames']} frames, {info['threads']} threads, "
        f"{info['records']} records over {info['time_bins']} bins",
        file=sys.stderr,
    )
    return 0


def _query_params(args, profile) -> dict[str, str]:
    """The query of ``ute-query``'s flags in its text form — what
    :meth:`Query.from_params` reads locally and ``/api/query`` reads
    remotely.  State types given by name resolve through the profile."""
    fields = {
        "thread": ",".join(args.thread),
        "node": ",".join(map(str, args.node)),
        "type": ",".join(str(_resolve_type(t, profile)) for t in args.types),
        "select": args.select,
        "group_by": args.group_by,
        "agg": ",".join(args.agg),
        "limit": None if args.limit is None else str(args.limit),
    }
    return {name: text for name, text in fields.items() if text}


def _remote_query(args) -> dict:
    """``ute-query --server``: the ``/api/.../query`` (or, with
    ``--utilization``, ``/api/.../utilization``) JSON payload."""
    local_only = [
        name for name, given in (
            ("--build-index", args.build_index), ("--no-index", args.no_index),
            ("--index", args.index), ("--errors", args.errors != "strict"),
            ("a local trace file", args.trace),
        ) if given
    ]
    if local_only:
        raise _Usage(f"{', '.join(local_only)} cannot be combined with --server")
    params = {"window": args.window} if args.window else {}
    if args.utilization:
        params["lane"] = args.lane
        if args.bins:
            params["bins"] = str(args.bins)
        return _remote(args, lambda client: client.utilization(params)).json()
    params.update(_query_params(args, _profile_for(args)))
    params["format"] = "json"
    return _remote(args, lambda client: client.query(params)).json()


def _print_explain(payload: dict) -> None:
    """``--explain``: the frame plan and IO accounting of a query payload
    (:meth:`QueryResult.to_payload`, or the server's JSON) on stderr."""
    plan, io = payload["plan"], payload["io"]
    print(
        f"plan: {plan['mode']} ({plan['reason']}); decoded "
        f"{io['frames_decoded']}/{plan['frames_total']} frames; "
        f"read {io['bytes_read']} bytes in {io['fetches']} fetches",
        file=sys.stderr,
    )
    for step in plan["steps"]:
        print(f"plan:   {step['step']} -> {step['remaining']}", file=sys.stderr)


@_entry("ute-query")
def main_query(argv: list[str] | None = None) -> int:
    """Query a trace file through the sidecar index (or build the index)."""
    parser = argparse.ArgumentParser(
        "ute-query",
        description="Indexed queries over interval/SLOG files: build a "
        ".uteidx sidecar, then run windowed/filtered/grouped scans that "
        "decode only the frames the index admits.",
    )
    parser.add_argument("trace", nargs="?", default=None,
                        help="interval (.ute) or SLOG (.slog) file "
                        "(omit with --server)")
    _add_server(parser, "run the query against a running ute-serve "
                "repository instead of a local file")
    parser.add_argument("--profile", default=None, help="profile file for .ute inputs")
    parser.add_argument(
        "--build-index", action="store_true",
        help="build and write the sidecar index, then exit",
    )
    parser.add_argument("--bins", type=int, default=None,
                        help="time bins in a built index (default 64)")
    parser.add_argument("--index", default=None, metavar="PATH",
                        help="sidecar path (default: <trace>.uteidx)")
    parser.add_argument("--no-index", action="store_true",
                        help="ignore any sidecar; force the full scan")
    _add_window(parser, "time window in seconds (either side may be empty)")
    parser.add_argument("--thread", action="append", default=[],
                        metavar="[NODE:]TID", help="thread predicate (repeatable)")
    parser.add_argument("--node", action="append", default=[], type=int,
                        help="node predicate (repeatable)")
    parser.add_argument("--type", action="append", default=[], dest="types",
                        metavar="TYPE", help="state type id or name (repeatable)")
    parser.add_argument("--select", default=None, metavar="COLS",
                        help="comma-separated projection (default: core fields)")
    parser.add_argument("--group-by", default=None, metavar="COLS",
                        help="comma-separated group-by fields")
    parser.add_argument("--agg", action="append", default=[],
                        metavar="FN[:FIELD]", help="aggregate column (repeatable)")
    parser.add_argument("--limit", type=int, default=None, help="max result rows")
    parser.add_argument(
        "--utilization", action="store_true",
        help="print busy-time aggregates from the sidecar's utilization "
        "hierarchy instead of running a record query (honors --window, "
        "--bins, --format)",
    )
    parser.add_argument("--lane", default="thread", choices=("thread", "cpu"),
                        help="utilization lane kind (with --utilization)")
    parser.add_argument("--format", default="tsv", choices=["tsv", "json"])
    parser.add_argument("--explain", action="store_true",
                        help="print the frame plan and IO accounting on stderr")
    parser.add_argument("--errors", default="strict", choices=["strict", "salvage"])
    args = parser.parse_args(argv)
    if args.server is not None:
        payload = _remote_query(args)
    else:
        if args.trace is None:
            raise _Usage("a trace file is required (or --server)")
        _check_inputs(
            args.trace, args.profile, None if args.build_index else args.index
        )
        profile = _profile_for(args)
        if args.build_index:
            if args.utilization:
                raise _Usage("--utilization cannot be combined with --build-index")
            return _build_index(args, profile)
        if args.utilization:
            payload = _local_utilization(args, profile)
        else:
            from repro.query import Query, run_query

            payload = run_query(
                args.trace, Query.from_params(_query_params(args, profile)),
                profile=profile, index=_index_arg(args), errors=args.errors,
                window=_window_arg(args),
            ).to_payload()
    if args.utilization:
        _print_payload(args, payload, _utilization_tsv)
        return 0
    from repro.query.engine import rows_tsv

    _print_payload(args, payload, lambda p: rows_tsv(p["columns"], p["rows"]))
    if args.explain:
        _print_explain(payload)
    return 0


@_entry("ute-report")
def main_report(argv: list[str] | None = None) -> int:
    """Build a standalone HTML analysis report from a SLOG file."""
    parser = argparse.ArgumentParser(
        "ute-report", description="One-file HTML report: preview, views, statistics."
    )
    parser.add_argument("slog")
    parser.add_argument("-o", "--out", default="report.html")
    parser.add_argument("--title", default="Trace analysis report")
    parser.add_argument(
        "--views", default="thread,processor",
        help="comma-separated view kinds to include",
    )
    args = parser.parse_args(argv)
    _check_inputs(args.slog)
    _check_output(args.out)

    from repro.viz.report import build_run_report

    path = build_run_report(
        args.slog, args.out, title=args.title,
        view_kinds=tuple(k for k in args.views.split(",") if k),
    )
    print(path)
    return 0


@_entry("ute-view")
def main_view(argv: list[str] | None = None) -> int:
    """Render a time-space diagram from a SLOG file."""
    from repro.viz.ansi import render_view_ansi
    from repro.viz.jumpshot import VIEW_KINDS, Jumpshot

    parser = argparse.ArgumentParser(
        "ute-view", description="Render a time-space diagram from a SLOG file."
    )
    parser.add_argument("slog")
    parser.add_argument("--kind", default="thread", choices=VIEW_KINDS)
    parser.add_argument("-o", "--out", default="view.svg")
    parser.add_argument(
        "--at", type=float, default=None,
        help="instant (seconds): display the frame containing it; default whole run",
    )
    parser.add_argument("--ansi", action="store_true", help="print an ANSI view instead")
    parser.add_argument(
        "--interactive", action="store_true",
        help="write an interactive HTML viewer (zoom/pan/tooltips) instead of SVG",
    )
    parser.add_argument("--columns", type=int, default=100)
    args = parser.parse_args(argv)
    _check_inputs(args.slog)
    if not args.ansi:
        _check_output(args.out)

    viewer = Jumpshot(args.slog)
    if args.interactive:
        from repro.viz.interactive import render_interactive_html

        view = viewer.build_view(viewer.slog.records(), args.kind)
        out = args.out if args.out.endswith(".html") else args.out + ".html"
        print(
            render_interactive_html(
                view, out, ticks_per_sec=viewer.slog.ticks_per_sec
            )
        )
        return 0
    if args.ansi:
        if args.at is not None:
            frame = viewer.locate(args.at)
            records = viewer.frame_records(frame)
            window = (frame.start_time, frame.end_time)
        else:
            records = viewer.slog.records()
            window = None
        view = viewer.build_view(records, args.kind)
        print(render_view_ansi(view, columns=args.columns, window=window))
        return 0
    if args.at is not None:
        print(viewer.render_frame_at(args.at, args.out, kind=args.kind))
    else:
        print(viewer.render_whole_run(args.out, kind=args.kind))
    return 0


def _parse_size(text: str) -> int:
    """Parse a byte count with an optional K/M/G suffix (``256M``)."""
    text = text.strip()
    scale = 1
    suffixes = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    if text and text[-1].lower() in suffixes:
        scale = suffixes[text[-1].lower()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise _Usage(f"bad size {text!r}; expected BYTES[K|M|G]") from None
    if value < 0:
        raise _Usage("size must be non-negative")
    return value * scale


@_entry("ute-serve")
def main_serve(argv: list[str] | None = None) -> int:
    """Serve SLOG datasets over HTTP: API + lazy interactive viewer."""
    parser = argparse.ArgumentParser(
        "ute-serve",
        description="Serve SLOG traces to many concurrent clients: JSON/SVG "
        "API, interactive web viewer, Prometheus-style /metrics.  Either "
        "serve one file, or --repository ROOT to serve a dataset registry "
        "(uploads via POST /api/datasets, per-dataset routes under "
        "/api/d/NAME/).",
    )
    parser.add_argument("slog", nargs="?", default=None,
                        help="a single SLOG file (omit with --repository)")
    parser.add_argument("--repository", default=None, metavar="ROOT",
                        help="serve a dataset registry rooted here "
                        "(created if missing)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("-p", "--port", type=int, default=8265,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--max-concurrency", type=int, default=8,
                        help="requests beyond this get 503 + Retry-After")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-request wall-clock budget (seconds)")
    parser.add_argument("--cache-frames", type=int, default=64,
                        help="decoded frames kept per open dataset session")
    parser.add_argument("--memory-budget", default=None, metavar="BYTES",
                        help="global frame-cache budget across every open "
                        "session, with optional K/M/G suffix (default 256M)")
    parser.add_argument("--quota-rps", type=float, default=0.0,
                        help="per-tenant request quota (requests/second); "
                        "0 disables quotas without per-tenant overrides")
    parser.add_argument("--quota-burst", type=int, default=8,
                        help="token-bucket depth for the per-tenant quota")
    parser.add_argument("--quota", action="append", default=[],
                        metavar="TENANT=RPS", dest="quota_overrides",
                        help="per-tenant quota override (repeatable)")
    parser.add_argument("--default-dataset", default=None, metavar="NAME",
                        help="dataset the legacy un-prefixed /api/* routes "
                        "alias to")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logs")
    args = parser.parse_args(argv)
    if (args.slog is None) == (args.repository is None):
        raise _Usage("pass exactly one of a SLOG file or --repository ROOT")
    if args.slog is not None:
        from repro.live import has_live_container

        # A not-yet-assembled live trace (its .live/ container exists) is
        # servable: the follow endpoints stream it as it grows.
        if not (not Path(args.slog).exists() and has_live_container(args.slog)):
            from repro.utils.slog import SlogFile

            _check_inputs(args.slog)
            # Sessions open lazily: refuse a file that is not a SLOG here,
            # not with an error per request.
            SlogFile(args.slog).close()

    overrides: dict[str, float] = {}
    for item in args.quota_overrides:
        tenant, sep, rps = item.partition("=")
        if not sep or not tenant:
            raise _Usage(f"bad --quota {item!r}; expected TENANT=RPS")
        try:
            overrides[tenant] = float(rps)
        except ValueError:
            raise _Usage(f"bad --quota rate {rps!r}; expected a number") from None
    budget = (
        _parse_size(args.memory_budget) if args.memory_budget is not None else None
    )

    import logging

    from repro.repository import DEFAULT_BUDGET_BYTES, DEFAULT_DATASET
    from repro.serve.app import ServerConfig, serve

    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(asctime)s %(name)s %(message)s",
        stream=sys.stderr,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        request_timeout=args.timeout,
        cache_frames=args.cache_frames,
        memory_budget_bytes=DEFAULT_BUDGET_BYTES if budget is None else budget,
        quota_rps=args.quota_rps,
        quota_burst=args.quota_burst,
        quota_overrides=overrides,
        default_dataset=args.default_dataset,
    )
    repository = config.repository(args.repository)
    if args.slog is not None:
        # One file is a root-less repository holding one dataset.
        repository.attach(DEFAULT_DATASET, args.slog)
    serve(repository, config)
    return 0


@_entry("ute-tail")
def main_tail(argv: list[str] | None = None) -> int:
    """Follow a growing (live) trace, epoch by epoch."""
    parser = argparse.ArgumentParser(
        "ute-tail",
        description="Follow a live trace: print one line per published "
        "frame-directory epoch as records arrive, stop at finalization.  "
        "Reads the TRACE.live/ container directly (and hands over to the "
        "finished file when the writer assembles it), or --server URL to "
        "follow a ute-serve /follow SSE stream instead.",
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="the trace's final path; its .live/ container is tailed while "
        "it grows (omit with --server)",
    )
    _add_server(
        parser, "follow a ute-serve instance over Server-Sent Events",
        "dataset to follow on --server (default: the server's default)",
    )
    parser.add_argument("--poll", type=float, default=0.05, metavar="S",
                        help="poll interval (seconds)")
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="give up after this long with no new epoch (default: wait "
        "forever; exit status 1 on timeout)",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=10.0, metavar="S",
        help="wait this long for the live container (or finished trace) "
        "to appear",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="re-emit every followed non-pseudo record as an interval "
        "file — ute-diff --ignore-pseudo FILE TRACE must come back "
        "divergence-free (filesystem mode only)",
    )
    parser.add_argument("--errors", choices=["strict", "salvage"],
                        default="strict")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-epoch lines")
    args = parser.parse_args(argv)
    if (args.trace is None) and (args.server is None):
        raise _Usage("pass a trace path or --server URL")
    if args.trace is not None and args.server is not None:
        raise _Usage("pass either a trace path or --server URL, not both")
    if args.out is not None:
        if args.server is not None:
            raise _Usage("--out needs filesystem mode (SSE events carry no records)")
        _check_output(args.out)
    if args.server is not None:
        return _tail_server(args)
    return _tail_follow(args)


def _tail_server(args) -> int:
    """``ute-tail --server``: follow one dataset's SSE preview stream."""
    client = _server_client(args)
    params = {"poll": str(max(args.poll, 0.02))}
    if args.idle_timeout is not None:
        params["max_s"] = str(args.idle_timeout)
    try:
        for event in client.follow_events(mode="preview", params=params):
            if event.event == "epoch":
                if not args.quiet:
                    print(
                        f"epoch {event.seq}: {event.data.get('frames', '?')} "
                        f"frames published"
                    )
            elif event.event == "final":
                if not args.quiet:
                    print(
                        f"final: epoch {event.seq}, "
                        f"{event.data.get('frames', '?')} frames"
                    )
                return 0
            elif event.event == "timeout":
                print("ute-tail: server stream timed out", file=sys.stderr)
                return 1
            elif event.event == "error":
                print(f"ute-tail: {event.data.get('error')}", file=sys.stderr)
                return 1
    except OSError as exc:
        raise _Usage(f"cannot follow {args.server}: {exc}") from None
    return 0


def _tail_follow(args) -> int:
    """``ute-tail TRACE``: follow the live container on the filesystem."""
    from repro.live import FollowReader

    follower = FollowReader(
        args.trace, poll_interval=args.poll, errors=args.errors,
        connect_timeout=args.connect_timeout,
    )
    writer = None
    total_records = 0
    try:
        with follower:
            for event in follower.events(timeout=args.idle_timeout):
                if event.kind == "epoch":
                    if args.out is not None and writer is None:
                        writer = _tail_writer(args.out, follower)
                    kept = 0
                    for record in event.records:
                        if record.is_pseudo:
                            continue
                        if writer is not None:
                            writer.write(record)
                        kept += 1
                    total_records += kept
                    if not args.quiet:
                        print(
                            f"epoch {event.seq}: +{event.n_new_frames} frames, "
                            f"{kept} records ({event.n_pseudo} pseudo), "
                            f"total {event.total_frames} frames"
                        )
                else:
                    if not args.quiet:
                        print(
                            f"final: epoch {event.seq}, {event.total_frames} "
                            f"frames, {total_records} records followed"
                        )
                    if writer is not None:
                        writer.close()
                        writer = None
                    return 0
        print("ute-tail: timed out waiting for new epochs", file=sys.stderr)
        if writer is not None:
            writer.close()
            writer = None
        return 1
    finally:
        if writer is not None:
            writer.abort()


def _tail_writer(out, follower):
    """An interval writer mirroring the followed trace's metadata."""
    from repro.core.writer import IntervalFileWriter

    reader = follower.reader
    return IntervalFileWriter(
        out, reader.profile, reader.thread_table,
        markers=dict(reader.markers), node_cpus=dict(reader.node_cpus),
        field_mask=reader.field_mask,
        ticks_per_sec=reader.ticks_per_sec,
    )


@_entry("ute-diff")
def main_diff(argv: list[str] | None = None) -> int:
    """Semantically diff two trace artifacts record by record."""
    parser = argparse.ArgumentParser(
        "ute-diff",
        description="Compare two trace artifacts (.raw/.ute/.slog) record "
        "by record with configurable tolerance; exit 0 when identical, 1 "
        "with a divergence report otherwise.",
    )
    parser.add_argument("file_a")
    parser.add_argument("file_b")
    parser.add_argument("--profile", default=None, help="profile for .ute inputs")
    parser.add_argument("--slack", type=int, default=0, metavar="TICKS",
                        help="allowed timestamp difference in ticks")
    parser.add_argument("--ignore-field", action="append", default=[],
                        metavar="NAME", dest="ignore_fields",
                        help="field excluded from comparison (repeatable)")
    parser.add_argument("--drop-type", action="append", default=[],
                        metavar="TYPE", dest="drop_types",
                        help="interval type (id or name) dropped before "
                        "pairing (repeatable)")
    parser.add_argument("--ignore-pseudo", action="store_true",
                        help="drop SLOG continuation pseudo-records before "
                        "pairing")
    parser.add_argument("--map-thread", action="append", default=[],
                        metavar="A=B", dest="thread_map",
                        help="remap side A's thread id A to B before "
                        "comparing (repeatable)")
    parser.add_argument("--salvage", action="store_true",
                        help="read both sides in salvage mode")
    parser.add_argument("--canonical-order", action="store_true",
                        help="sort both sides canonically before pairing "
                        "(streams that legally permute records tied on end "
                        "time)")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    args = parser.parse_args(argv)
    _check_inputs(args.file_a, args.file_b, args.profile)

    from repro.difftool.differ import DiffConfig, diff_traces

    profile = _profile_for(args)
    try:
        drop_types = frozenset(
            _resolve_type(t, profile) for t in args.drop_types
        )
        thread_map = []
        for spec in args.thread_map:
            a, sep, b = spec.partition("=")
            if not sep:
                raise ValueError(f"bad thread map {spec!r}; expected A=B")
            thread_map.append((int(a), int(b)))
        config = DiffConfig(
            time_slack=args.slack,
            ignore_fields=frozenset(args.ignore_fields),
            drop_types=drop_types,
            ignore_pseudo=args.ignore_pseudo,
            thread_map=tuple(thread_map),
            canonical_order=args.canonical_order,
        )
    except ValueError as exc:
        raise _Usage(str(exc)) from None
    report = diff_traces(
        args.file_a, args.file_b, config, profile=profile,
        errors="salvage" if args.salvage else "strict",
    )
    _print_report(args, report.as_dict(), report.summary())
    return 0 if report.identical else 1


@_entry("ute-oracle")
def main_oracle(argv: list[str] | None = None) -> int:
    """Run the pipeline oracle: every equivalent read-path pair must agree."""
    parser = argparse.ArgumentParser(
        "ute-oracle",
        description="Differential pipeline oracle: run every equivalent "
        "read-path pair (strict/salvage, indexed/full scan, dump/query "
        "windows, stats/serve, clock adjusters) over each trace and "
        "report disagreements; exit 1 on any finding.",
    )
    parser.add_argument("files", nargs="+",
                        help="trace artifacts (.raw/.ute/.slog)")
    parser.add_argument("--profile", default=None, help="profile for .ute inputs")
    parser.add_argument("--no-serve", action="store_true",
                        help="skip the stats-vs-serve check (no sockets)")
    parser.add_argument("--json", action="store_true",
                        help="print all reports as JSON")
    args = parser.parse_args(argv)
    _check_inputs(*args.files, args.profile)

    from repro.difftool.oracle import run_oracle

    profile = _profile_for(args)
    reports = [
        run_oracle(path, profile, serve=not args.no_serve) for path in args.files
    ]
    findings = sum(len(r.findings) for r in reports)
    _print_report(
        args, [r.as_dict() for r in reports],
        "\n".join([
            *(r.summary() for r in reports),
            f"{len(reports)} file(s), {findings} finding(s)",
        ]),
    )
    return 0 if findings == 0 else 1
