"""Command-line entry points (the pipeline of paper Figure 2).

Every console script is one :class:`Command` row of :data:`COMMANDS`: its
own arguments, the shared groups it takes from :data:`_GROUPS`, its input
and output paths, and the local input ``--server`` replaces.  Its ``main_*``
function (pass ``argv`` explicitly in tests) parses, runs
:meth:`Command.check` — the one up-front contract — then the handler.  Any
:class:`~repro.errors.ReproError` or ``OSError`` (a missing file, a file
that is not a trace, a malformed option value) is one ``prog: error: ...``
line on stderr and exit status 2, never a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.core.profilefmt import Profile, standard_profile
from repro.core.windows import parse_window
from repro.errors import ReproError


class _Usage(ReproError):
    """A command-line mistake the argument parser cannot see."""


def _arg(*flags: str, **options):
    """One ``add_argument`` call, as data."""
    return flags, options


#: The argument groups several commands share, by the name a row asks for.
#: ``profile`` also makes the ``--profile`` path an input of the row.
_GROUPS = {
    "profile": [_arg("--profile", default=None, help="profile file for .ute "
                     "inputs (default: the standard profile)")],
    "window": [_arg("--window", default=None, metavar="T0:T1", help="only this "
                    "time window, in seconds (either side may be empty); frames "
                    "outside it are pruned via the sidecar index")],
    "server": [_arg("--server", default=None, metavar="URL", help="ask a "
                    "running ute-serve instead of reading a local trace"),
               _arg("--dataset", default=None, metavar="NAME", help="dataset "
                    "on the server (default: the server's default dataset)")],
    "json": [_arg("--json", action="store_true", help="print the result as JSON")],
    "errors": [_arg("--errors", default="strict", choices=["strict", "salvage"],
                    help="on a damaged input, stop at the first defect "
                    "(strict) or skip and count it (salvage)")],
    "frame_bytes": [_arg("--frame-bytes", type=int, default=32 * 1024,
                         help="target size of each written frame, in bytes")],
}


def _unless(dest: str, *flags: str):
    """A path spec: the path in ``dest``, unless one of ``flags`` is set
    (then the command does not use it)."""
    return lambda args: (
        None if any(getattr(args, flag) for flag in flags) else getattr(args, dest)
    )


def _check_input(name) -> None:
    """Refuse an input path that is not a readable, non-empty file."""
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


@dataclass(frozen=True)
class Command:
    """One console script; calling the row runs it.

    ``arguments`` are ``_arg`` tuples, or zero-argument functions returning
    some (a row can take choices from a module it must not import up front).
    ``inputs`` and ``outputs`` are path specs: an argument's dest, or a
    function of the parsed arguments returning a path, a list of paths, or
    ``None``.  ``local`` is the dest of the input ``--server`` replaces.
    """

    name: str
    description: str
    arguments: tuple
    handler: Callable[[argparse.Namespace], int]
    groups: tuple[str, ...] = ()
    inputs: tuple = ()
    outputs: tuple = ()
    local: str | None = None

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(self.name, description=self.description)
        own = [a for spec in self.arguments
               for a in (spec() if callable(spec) else (spec,))]
        for flags, options in (*own, *(a for g in self.groups for a in _GROUPS[g])):
            parser.add_argument(*flags, **options)
        return parser

    def check(self, args: argparse.Namespace) -> None:
        if self.local and bool(getattr(args, self.local)) == (args.server is not None):
            raise _Usage(f"pass exactly one of {self.local} or --server URL")
        inputs = self.inputs + (("profile",) if "profile" in self.groups else ())
        for specs, check in ((inputs, _check_input), (self.outputs, _check_output)):
            for spec in specs:
                value = spec(args) if callable(spec) else getattr(args, spec)
                for path in value if isinstance(value, list) else [value]:
                    if path is not None:
                        check(path)

    def __call__(self, argv: list[str] | None = None) -> int:
        """Parse, :meth:`check`, run the handler; an uncaught ReproError or
        OSError is ``name: error: <message>`` and exit status 2."""
        try:
            args = self.parser().parse_args(argv)
            self.check(args)
            return self.handler(args)
        except (ReproError, OSError) as exc:
            print(f"{self.name}: error: {exc}", file=sys.stderr)
            return 2


#: Every console script, by name (``pyproject.toml [project.scripts]``).
COMMANDS: dict[str, Command] = {}


def _command(name: str, description: str, *arguments, **row):
    """Register the decorated ``handler(args)`` as the console script
    ``name``; return its ``main(argv)``, a function named after the handler."""

    def register(handler):
        command = COMMANDS[name] = Command(name, description, arguments, handler, **row)

        @functools.wraps(handler)
        def main(argv: list[str] | None = None) -> int:
            return command(argv)

        return main

    return register


def _profile_for(args) -> Profile:
    if getattr(args, "profile", None):
        return Profile.read(args.profile)
    return standard_profile()


def _window_arg(args) -> tuple[float | None, float | None] | None:
    """The optional ``--window T0:T1`` (seconds)."""
    return parse_window(args.window) if args.window else None


def _at_least(args, dest: str, low: int) -> None:
    """Refuse a count option below ``low`` (``None``: not given)."""
    value = getattr(args, dest)
    if value is not None and value < low:
        raise _Usage(f"--{dest} must be at least {low}, not {value}")


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


@_command(
    "ute-trace", "Trace a built-in workload on the simulated cluster.",
    _arg("workload",
         choices=["pingpong", "stencil", "sppm", "flash", "synthetic", "ioheavy"]),
    _arg("-o", "--out", default="trace-out", help="output directory"),
    _arg("--rounds", type=int, default=None, help="synthetic rounds"),
    _arg("--iterations", type=int, default=None),
    _arg("--live", default=None, metavar="TRACE",
         help="additionally replay the run through the live pipeline: "
         "convert+merge, then stream the records into TRACE's live "
         "container paced over --live-duration seconds (follow it with "
         "ute-tail or a ute-serve /follow endpoint); TRACE is assembled "
         "as an ordinary trace when the replay finishes"),
    _arg("--live-duration", type=float, default=2.0, metavar="S",
         help="wall-clock seconds the live replay is paced over"),
    _arg("--live-interval", type=float, default=0.1, metavar="S",
         help="seconds between published live epochs"),
    _arg("--live-flavor", choices=["slog", "interval"], default="slog",
         help="format of the assembled trace (and the live frames)"),
    outputs=("out", "live"),
)
def main_trace(args) -> int:
    """Run a built-in workload under tracing."""
    if args.live is not None and Path(args.live).exists():
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


@_command(
    "ute-convert",
    "Convert raw event traces to interval files, or translate traces "
    "to/from foreign formats.",
    _arg("raw", nargs="+",
         help="raw trace files (one per node); with --to/--from, exactly one "
         "trace or foreign-format file"),
    _arg("-o", "--out", default=None,
         help="output directory (default: intervals); with --to/--from, the "
         "output file (required)"),
    _arg("--to", dest="to_fmt", default=None, choices=["chrome-json", "otf2-text"],
         help="export one .ute/.slog file to a foreign format"),
    _arg("--from", dest="from_fmt", default=None,
         choices=["chrome-json", "otf2-text"],
         help="import one foreign-format file into a .ute interval file"),
    groups=("frame_bytes", "errors", "profile"),
    inputs=("raw",),
    outputs=("out",),
)
def main_convert(args) -> int:
    """Convert raw trace files into interval files, or translate one trace
    to/from a foreign format (``--to`` / ``--from``)."""
    if args.to_fmt and args.from_fmt:
        raise _Usage("--to and --from are mutually exclusive")
    if args.to_fmt or args.from_fmt:
        if len(args.raw) != 1:
            raise _Usage("--to/--from converts exactly one input file")
        if args.out is None:
            raise _Usage("--to/--from needs an explicit -o OUTPUT file")
        if args.to_fmt:
            return _convert_export(args)
        return _convert_import(args)

    from repro.utils.convert import convert_traces

    result = convert_traces(
        args.raw, args.out or "intervals", frame_bytes=args.frame_bytes
    )
    for path in result.interval_paths:
        print(path)
    print(
        f"{result.events_processed} events -> {result.records_written} interval records",
        file=sys.stderr,
    )
    return 0


#: What ``ute-merge`` and ``slogmerge`` share.
_MERGE_ARGUMENTS = (
    _arg("intervals", nargs="+", help="per-node interval files"),
    _arg("-o", "--out", default="merged.ute"),
    _arg("--sync", default="rms_segment",
         choices=["rms_segment", "rms_anchored", "last_slope", "piecewise"],
         help="clock-ratio estimator"),
    _arg("--threads", default=None, choices=["mpi", "user", "system"],
         help="merge only this thread category"),
)
_MERGE_ROW = dict(groups=("profile", "frame_bytes"), inputs=("intervals",))


def _merge(args, slog_path):
    """``ute-merge`` / ``slogmerge``.  A profile file swept in by a glob
    (``ivl/*.ute`` includes the convert output's ``profile.ute``) is not an
    error: it is pulled out of the interval list and, unless ``--profile``
    names another file, used as the profile.  A file listed twice is."""
    from repro.core.profilefmt import MAGIC as PROFILE_MAGIC
    from repro.core.threadtable import THREAD_TYPE_MPI, THREAD_TYPE_SYSTEM, THREAD_TYPE_USER
    from repro.utils.merge import merge_interval_files

    seen: set[Path] = set()
    intervals: list[str] = []
    for name in args.intervals:
        resolved = Path(name).resolve()
        if resolved in seen:
            raise _Usage(f"duplicate input file: {name}")
        seen.add(resolved)
        with open(name, "rb") as handle:
            is_profile = handle.read(8) == PROFILE_MAGIC
        if not is_profile:
            intervals.append(name)
        elif args.profile and Path(args.profile).resolve() != resolved:
            raise _Usage(f"conflicting profile files: {args.profile} and {name}")
        else:
            args.profile = name
    if not intervals:
        raise _Usage("no input files to merge")
    kinds = {"mpi": THREAD_TYPE_MPI, "user": THREAD_TYPE_USER,
             "system": THREAD_TYPE_SYSTEM}
    return merge_interval_files(
        intervals, args.out, _profile_for(args), sync_mode=args.sync,
        frame_bytes=args.frame_bytes, slog_path=slog_path,
        thread_types={kinds[args.threads]} if args.threads else None,
    )


@_command(
    "ute-merge", "Merge per-node interval files into one.", *_MERGE_ARGUMENTS,
    outputs=("out",), **_MERGE_ROW,
)
def main_merge(args) -> int:
    """Merge interval files (no SLOG)."""
    result = _merge(args, None)
    print(result.merged_path)
    print(
        f"{result.files_in} files -> {result.records_out} records "
        f"(+{result.pseudo_records} pseudo)",
        file=sys.stderr,
    )
    return 0


@_command(
    "slogmerge", "Merge per-node interval files into one, and write it as SLOG.",
    *_MERGE_ARGUMENTS, _arg("--slog", default="out.slog"),
    outputs=("out", "slog"), **_MERGE_ROW,
)
def main_slogmerge(args) -> int:
    """Merge interval files and also emit SLOG (the slogmerge of Table 1)."""
    result = _merge(args, args.slog)
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


@_command(
    "ute-stats",
    "Generate statistics tables from interval files (with --json: print "
    "them, plus per-file read accounting, instead of writing TSV files).",
    _arg("intervals", nargs="*"),
    _arg("--program", default=None, help="table program file"),
    _arg("-o", "--out", default="stats", help="output directory"),
    _arg("--svg", action="store_true", help="also render SVG viewers"),
    groups=("profile", "server", "window", "json"),
    inputs=("intervals", "program"),
    outputs=(_unless("out", "json", "server"),),
    local="intervals",
)
def main_stats(args) -> int:
    """Generate statistics tables from interval files."""
    if args.server is not None:
        return _remote_stats(args)

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
    # One read of the inputs, held as batches: the record count and the
    # run's end come from their columns, the tables from one pass over them.
    batches = list(interval_records(args.intervals, profile, window=window, io_log=io_log))
    if args.program:
        tables = generate_tables(
            batches,
            Path(args.program).read_text(),
            ticks_per_sec=ticks_per_sec,
            thread_table=thread_table,
        )
    else:
        total = max((int(b.end.max()) for b in batches), default=1) / ticks_per_sec
        tables = predefined_tables(
            batches,
            total_seconds=total,
            ticks_per_sec=ticks_per_sec,
            thread_table=thread_table,
        )
    if args.json:
        doc = {
            "files": list(args.intervals),
            "window": list(window) if window else None,
            "records": sum(b.n for b in batches),
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


@_command(
    "ute-validate", "Check interval files for format violations.",
    _arg("intervals", nargs="+"),
    groups=("profile",),
    inputs=("intervals",),
)
def main_validate(args) -> int:
    """Validate interval files' structural invariants."""
    from repro.utils.validate import validate_files

    reports = validate_files(args.intervals, _profile_for(args))
    for report in reports:
        print(report.summary())
    return 0 if all(r.ok for r in reports) else 1


def _recover_out(args):
    """``ute-recover``'s output: ``-o``, else beside the input."""
    from repro.utils.recover import default_output_path

    return args.out if args.out is not None else default_output_path(args.input)


@_command(
    "ute-recover",
    "Salvage a damaged interval (.ute), SLOG (.slog), or raw trace file into "
    "a clean file that passes validation, plus a recovery report.",
    _arg("input", help="damaged trace file"),
    _arg("-o", "--out", default=None,
         help="recovered output path (default: <input>.recovered<suffix>)"),
    groups=("profile", "frame_bytes", "json"),
    inputs=("input",),
    outputs=(_recover_out,),
)
def main_recover(args) -> int:
    """Rewrite a damaged trace file into a clean, validated one."""
    from repro.utils.recover import recover_file, sniff_kind

    kind = sniff_kind(args.input)
    profile = _profile_for(args) if kind == "interval" else None
    report = recover_file(
        args.input, _recover_out(args), profile=profile,
        frame_bytes=args.frame_bytes,
    )
    _print_report(args, report.as_dict(), report.summary())
    return 0 if report.ok else 1


@_command(
    "ute-preview", "Whole-run preview and interesting time ranges.",
    _arg("slog"),
    _arg("-o", "--out", default="preview.svg"),
    _arg("--threshold", type=float, default=0.05),
    inputs=("slog",),
    outputs=("out",),
)
def main_preview(args) -> int:
    """Render the whole-run preview from a SLOG file."""
    from repro.core.atomicio import atomic_write_text
    from repro.viz.jumpshot import Jumpshot

    viewer = Jumpshot(args.slog)
    print(atomic_write_text(args.out, viewer.preview.render_svg()))
    for lo, hi in viewer.interesting_ranges(args.threshold):
        print(f"interesting: {lo:.4f}s .. {hi:.4f}s", file=sys.stderr)
    return 0


@_command(
    "ute-profile", "Per-state blocking analysis: wall vs on-CPU vs blocked time.",
    _arg("intervals", nargs="+"),
    _arg("--include-running", action="store_true"),
    groups=("profile", "window"),
    inputs=("intervals",),
)
def main_profile(args) -> int:
    """Print the blocking call profile of interval files."""
    from repro.analysis.blocking import call_profile, format_call_profile
    from repro.analysis.spans import folded_rows
    from repro.query import open_scan
    from repro.query.columnar import concat_batches

    window = _window_arg(args)
    profile = _profile_for(args)
    parts = []
    markers: dict[int, str] = {}
    for path in args.intervals:
        with open_scan(path, profile, window=window) as s:
            markers.update(s.handle.markers)
            # Join only the rows the fold reads: the joined copy is the peak.
            parts.extend(
                batch.where(mask & folded_rows(batch, include_running=args.include_running))
                for batch, mask in s.batches()
            )
    rows = call_profile(
        concat_batches(parts), profile, markers=markers,
        include_running=args.include_running,
    )
    print(format_call_profile(rows))
    return 0


@_command(
    "ute-dump", "Print trace files as human-readable text.",
    _arg("files", nargs="+"),
    _arg("-n", "--limit", type=int, default=None, help="max records per file"),
    _arg("--frame", type=int, default=None,
         help="dump only this frame ordinal (seeks, no full decode)"),
    groups=("profile", "window"),
    inputs=("files",),
)
def main_dump(args) -> int:
    """Dump any trace artifact (raw/interval/SLOG) as text."""
    _at_least(args, "limit", 0)

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
    from repro.query import build_index, open_trace, resolve_index
    from repro.query.utilization import utilization_payload

    with open_trace(args.trace, profile, errors=args.errors) as handle:
        index, _reason = resolve_index(args.trace, _index_arg(args))
        if index is None or index.utilization is None:
            index = build_index(handle)
        tps = handle.ticks_per_sec
    util = index.utilization
    if util is None:
        raise _Usage("trace holds no records to aggregate")
    t0, t1 = window_to_ticks(_window_arg(args), tps)
    window = (util.t_min if t0 is None else t0, util.t_max if t1 is None else t1)
    return utilization_payload(
        util, args.lane, window, args.bins or 512, tps, profile.record_name
    )


def _sidecar_out(args):
    """The sidecar ``ute-query TRACE --build-index`` writes: ``--index``,
    else beside the trace."""
    if not args.build_index or args.trace is None:
        return None
    from repro.query import index_path_for

    return Path(args.index) if args.index else index_path_for(args.trace)


def _build_index(args, profile) -> int:
    """``ute-query TRACE --build-index``: write the ``.uteidx`` sidecar."""
    from repro.query import build_index, open_trace, write_index

    sidecar = _sidecar_out(args)
    with open_trace(args.trace, profile, errors=args.errors) as handle:
        index = build_index(handle)
    write_index(index, sidecar)
    print(sidecar)
    info = index.summary()
    print(
        f"indexed {info['frames']} frames, {info['threads']} threads, "
        f"{info['records']} records",
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


@_command(
    "ute-query",
    "Indexed queries over interval/SLOG files: build a .uteidx sidecar, then "
    "run windowed/filtered/grouped scans that decode only the frames the "
    "index admits.",
    _arg("trace", nargs="?", default=None,
         help="interval (.ute) or SLOG (.slog) file (omit with --server)"),
    _arg("--build-index", action="store_true",
         help="build and write the sidecar index, then exit"),
    _arg("--bins", type=int, default=None,
         help="most time bins per lane in a --utilization answer, local or "
         "--server (default 512)"),
    _arg("--index", default=None, metavar="PATH",
         help="sidecar path (default: <trace>.uteidx)"),
    _arg("--no-index", action="store_true",
         help="ignore any sidecar; force the full scan"),
    _arg("--thread", action="append", default=[], metavar="[NODE:]TID",
         help="thread predicate (repeatable)"),
    _arg("--node", action="append", default=[], type=int,
         help="node predicate (repeatable)"),
    _arg("--type", action="append", default=[], dest="types", metavar="TYPE",
         help="state type id or name (repeatable)"),
    _arg("--select", default=None, metavar="COLS",
         help="comma-separated projection (default: core fields)"),
    _arg("--group-by", default=None, metavar="COLS",
         help="comma-separated group-by fields"),
    _arg("--agg", action="append", default=[], metavar="FN[:FIELD]",
         help="aggregate column (repeatable)"),
    _arg("--limit", type=int, default=None, help="max result rows"),
    _arg("--utilization", action="store_true",
         help="print busy-time aggregates from the sidecar's utilization "
         "hierarchy instead of running a record query (honors --window, "
         "--bins, --format)"),
    _arg("--lane", default="thread", choices=("thread", "cpu"),
         help="utilization lane kind (with --utilization)"),
    _arg("--format", default="tsv", choices=["tsv", "json"]),
    _arg("--explain", action="store_true",
         help="print the frame plan and IO accounting on stderr"),
    groups=("profile", "server", "window", "errors"),
    inputs=("trace", _unless("index", "build_index")),
    outputs=(_sidecar_out,),
    local="trace",
)
def main_query(args) -> int:
    """Query a trace file through the sidecar index (or build the index)."""
    _at_least(args, "bins", 1)
    if args.server is not None:
        payload = _remote_query(args)
    else:
        profile = _profile_for(args)
        if args.build_index:
            if args.utilization:
                raise _Usage("--utilization cannot be combined with --build-index")
            if args.bins is not None:
                raise _Usage("--bins sets --utilization answers; --build-index has no bins")
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


@_command(
    "ute-report", "One-file HTML report: preview, views, statistics.",
    _arg("slog"),
    _arg("-o", "--out", default="report.html"),
    _arg("--title", default="Trace analysis report"),
    _arg("--views", default="thread,processor",
         help="comma-separated view kinds to include"),
    inputs=("slog",),
    outputs=("out",),
)
def main_report(args) -> int:
    """Build a standalone HTML analysis report from a SLOG file."""
    from repro.viz.report import build_run_report

    path = build_run_report(
        args.slog, args.out, title=args.title,
        view_kinds=tuple(k for k in args.views.split(",") if k),
    )
    print(path)
    return 0


def _view_kinds() -> list:
    """``--kind``, offering the viewer's kinds: built when ``ute-view`` runs,
    so importing this module does not load the viewer."""
    from repro.viz.jumpshot import VIEW_KINDS

    return [_arg("--kind", default="thread", choices=VIEW_KINDS)]


@_command(
    "ute-view", "Render a time-space diagram from a SLOG file.",
    _arg("slog"),
    _view_kinds,
    _arg("-o", "--out", default="view.svg"),
    _arg("--at", type=float, default=None, help="instant (seconds): display "
         "the frame containing it; default whole run"),
    _arg("--ansi", action="store_true", help="print an ANSI view instead"),
    _arg("--interactive", action="store_true", help="write an interactive "
         "HTML viewer (zoom/pan/tooltips) instead of SVG"),
    _arg("--columns", type=int, default=100),
    inputs=("slog",),
    outputs=(_unless("out", "ansi"),),
)
def main_view(args) -> int:
    """Render a time-space diagram from a SLOG file."""
    _at_least(args, "columns", 1)

    from repro.core.atomicio import atomic_write_text
    from repro.query import resolve_index
    from repro.viz.ansi import render_view_ansi
    from repro.viz.jumpshot import Jumpshot

    viewer = Jumpshot(args.slog)
    # One selection for every output: the frame holding --at, else the run.
    frames, window = viewer.slog.frames, None
    if args.at is not None:
        frame = viewer.locate(args.at)
        frames, window = [frame], (frame.start_time, frame.end_time)
    if args.interactive or args.ansi:
        view = viewer.build_view(viewer.batch(frames), args.kind)
        if args.interactive:
            from repro.viz.interactive import render_interactive_html

            out = args.out if args.out.endswith(".html") else args.out + ".html"
            print(render_interactive_html(view, out, ticks_per_sec=viewer.slog.ticks_per_sec))
        else:
            print(render_view_ansi(view, columns=args.columns, window=window))
        return 0
    # The SVG is the serving daemon's picture of the same selection: from
    # the fresh sidecar beside the file when one is there and it is dense.
    index, _reason = resolve_index(args.slog, "auto")
    if args.at is not None:
        svg = viewer.view_svg_at(args.at, kind=args.kind, index=index)
    else:
        svg = viewer.view_svg_window(None, None, kind=args.kind, index=index)
    print(atomic_write_text(args.out, svg))
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


def _serve_file(args):
    """The SLOG file ``ute-serve`` checks and opens up front: none with
    ``--repository``, and none for a live trace not yet assembled (its
    ``.live/`` container exists) — the follow endpoints stream it as it
    grows."""
    if args.slog is None or Path(args.slog).exists():
        return args.slog
    from repro.live import has_live_container

    return None if has_live_container(args.slog) else args.slog


@_command(
    "ute-serve",
    "Serve SLOG traces to many concurrent clients: JSON/SVG API, interactive "
    "web viewer, Prometheus-style /metrics.  Either serve one file, or "
    "--repository ROOT to serve a dataset registry (uploads via POST "
    "/api/datasets, per-dataset routes under /api/d/NAME/).",
    _arg("slog", nargs="?", default=None,
         help="a single SLOG file (omit with --repository)"),
    _arg("--repository", default=None, metavar="ROOT",
         help="serve a dataset registry rooted here (created if missing)"),
    _arg("--host", default="127.0.0.1"),
    _arg("-p", "--port", type=int, default=8265,
         help="TCP port (0 picks an ephemeral port)"),
    _arg("--max-concurrency", type=int, default=8,
         help="requests beyond this get 503 + Retry-After"),
    _arg("--timeout", type=float, default=30.0,
         help="per-request wall-clock budget (seconds)"),
    _arg("--cache-frames", type=int, default=64,
         help="decoded frames kept per open dataset session"),
    _arg("--memory-budget", default=None, metavar="BYTES",
         help="global frame-cache budget across every open session, with "
         "optional K/M/G suffix (default 256M)"),
    _arg("--quota-rps", type=float, default=0.0,
         help="per-tenant request quota (requests/second); 0 disables quotas "
         "without per-tenant overrides"),
    _arg("--quota-burst", type=int, default=8,
         help="token-bucket depth for the per-tenant quota"),
    _arg("--quota", action="append", default=[], metavar="TENANT=RPS",
         dest="quota_overrides", help="per-tenant quota override (repeatable)"),
    _arg("--default-dataset", default=None, metavar="NAME",
         help="dataset the legacy un-prefixed /api/* routes alias to"),
    _arg("--quiet", action="store_true", help="suppress per-request access logs"),
    inputs=(_serve_file,),
)
def main_serve(args) -> int:
    """Serve SLOG datasets over HTTP: API + lazy interactive viewer."""
    if (args.slog is None) == (args.repository is None):
        raise _Usage("pass exactly one of a SLOG file or --repository ROOT")
    if _serve_file(args) is not None:
        from repro.utils.slog import SlogFile

        # Sessions open lazily: refuse a file that is not a SLOG here, not
        # with an error per request.
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


@_command(
    "ute-tail",
    "Follow a live trace: print one line per published frame-directory epoch "
    "as records arrive, stop at finalization.  Reads the TRACE.live/ "
    "container directly (and hands over to the finished file when the writer "
    "assembles it), or --server URL to follow a ute-serve /follow SSE stream "
    "instead.",
    _arg("trace", nargs="?", default=None,
         help="the trace's final path; its .live/ container is tailed while "
         "it grows (omit with --server)"),
    _arg("--poll", type=float, default=0.05, metavar="S",
         help="poll interval (seconds)"),
    _arg("--idle-timeout", type=float, default=None, metavar="S",
         help="give up after this long with no new epoch (default: wait "
         "forever; exit status 1 on timeout)"),
    _arg("--connect-timeout", type=float, default=10.0, metavar="S",
         help="wait this long for the live container (or finished trace) to "
         "appear"),
    _arg("--out", default=None, metavar="FILE",
         help="re-emit every followed non-pseudo record as an interval file — "
         "ute-diff --ignore-pseudo FILE TRACE must come back divergence-free "
         "(filesystem mode only)"),
    _arg("-q", "--quiet", action="store_true", help="suppress per-epoch lines"),
    groups=("server", "errors"),
    outputs=(_unless("out", "server"),),
    local="trace",
)
def main_tail(args) -> int:
    """Follow a growing (live) trace, epoch by epoch."""
    if args.server is None:
        return _tail_follow(args)
    if args.out is not None:
        raise _Usage("--out needs filesystem mode (SSE events carry no records)")
    return _tail_server(args)


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


@_command(
    "ute-diff",
    "Compare two trace artifacts (.raw/.ute/.slog) record by record with "
    "configurable tolerance; exit 0 when identical, 1 with a divergence "
    "report otherwise.",
    _arg("file_a"),
    _arg("file_b"),
    _arg("--slack", type=int, default=0, metavar="TICKS",
         help="allowed timestamp difference in ticks"),
    _arg("--ignore-field", action="append", default=[], metavar="NAME",
         dest="ignore_fields", help="field excluded from comparison (repeatable)"),
    _arg("--drop-type", action="append", default=[], metavar="TYPE",
         dest="drop_types",
         help="interval type (id or name) dropped before pairing (repeatable)"),
    _arg("--ignore-pseudo", action="store_true",
         help="drop SLOG continuation pseudo-records before pairing"),
    _arg("--map-thread", action="append", default=[], metavar="A=B",
         dest="thread_map",
         help="remap side A's thread id A to B before comparing (repeatable)"),
    _arg("--salvage", action="store_true", help="read both sides in salvage mode"),
    _arg("--canonical-order", action="store_true",
         help="sort both sides canonically before pairing (streams that "
         "legally permute records tied on end time)"),
    groups=("profile", "json"),
    inputs=("file_a", "file_b"),
)
def main_diff(args) -> int:
    """Semantically diff two trace artifacts record by record."""
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


@_command(
    "ute-oracle",
    "Differential pipeline oracle: run every equivalent read-path pair "
    "(strict/salvage, indexed/full scan, dump/query windows, stats/serve, "
    "clock adjusters) over each trace and report disagreements; exit 1 on any "
    "finding.",
    _arg("files", nargs="+", help="trace artifacts (.raw/.ute/.slog)"),
    _arg("--no-serve", action="store_true",
         help="skip the stats-vs-serve check (no sockets)"),
    groups=("profile", "json"),
    inputs=("files",),
)
def main_oracle(args) -> int:
    """Run the pipeline oracle: every equivalent read-path pair must agree."""
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
