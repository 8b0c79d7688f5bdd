"""Command-line surface golden
(``PYTHONPATH=src python tests/data/generate_cli_golden.py [OUT.json [WORKDIR]]``).

For each of the 17 console scripts of ``repro.cli`` this records what a
rewrite of the argument handling must keep:

* ``surface`` — every argument its parser declares (flags, dest, default,
  choices, nargs, type, action, required), captured by patching
  ``argparse.ArgumentParser.parse_args`` so the command stops right after
  building its parser.  Help text and metavars are not pinned.
* ``exits`` — the exit status of a fixed matrix of invocations: valid input
  (for every command that terminates; ``ute-serve`` does not), junk input,
  an output path under a regular file (for every command that writes), and
  an unknown flag.  Each entry is ``[status, one_line_error]``, the second
  saying whether stderr was exactly one ``prog: error: ...`` line.

``cli_golden.json`` was produced by the commit before the 17 hand-built
parsers became rows of one command table; ``tests/test_cli_golden.py``
re-runs this script with the current code and compares.

The matrix runs in WORKDIR with relative paths, in the order listed: the
valid cases of the first four commands build the pipeline (``pingpong``
trace -> convert -> merge -> slogmerge) every later case reads.  An
argument holding ``*`` is expanded like a shell glob.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

from repro import cli

DATA_DIR = Path(__file__).resolve().parent
GOLDEN = DATA_DIR / "cli_golden.json"

#: Console script -> entry point, as ``pyproject.toml`` declares them.
SCRIPTS = {
    "ute-trace": "main_trace",
    "ute-convert": "main_convert",
    "ute-merge": "main_merge",
    "slogmerge": "main_slogmerge",
    "ute-stats": "main_stats",
    "ute-validate": "main_validate",
    "ute-recover": "main_recover",
    "ute-preview": "main_preview",
    "ute-profile": "main_profile",
    "ute-dump": "main_dump",
    "ute-query": "main_query",
    "ute-report": "main_report",
    "ute-view": "main_view",
    "ute-serve": "main_serve",
    "ute-tail": "main_tail",
    "ute-diff": "main_diff",
    "ute-oracle": "main_oracle",
}

TAIL = ["--connect-timeout", "1", "--idle-timeout", "10", "-q"]
#: ``(command, case, argv)``; ``blk`` is a regular file, so ``blk/...`` is
#: an output under a file.
CASES = [
    ("ute-trace", "valid", ["pingpong", "-o", "raw"]),
    ("ute-convert", "valid", ["raw/*.raw", "-o", "ivl"]),
    ("ute-merge", "valid", ["ivl/*.ute", "-o", "merged.ute"]),
    ("slogmerge", "valid",
     ["ivl/trace*.ute", "-o", "m2.ute", "--slog", "run.slog", "--frame-bytes", "2048"]),
    ("ute-stats", "valid", ["merged.ute", "-o", "stats"]),
    ("ute-validate", "valid", ["ivl/trace*.ute", "merged.ute"]),
    ("ute-recover", "valid", ["run.slog", "-o", "rec.slog"]),
    ("ute-preview", "valid", ["run.slog", "-o", "p.svg"]),
    ("ute-profile", "valid", ["merged.ute"]),
    ("ute-dump", "valid", ["merged.ute", "-n", "5"]),
    ("ute-query", "valid", ["run.slog", "--limit", "3"]),
    ("ute-report", "valid", ["run.slog", "-o", "r.html"]),
    ("ute-view", "valid", ["run.slog", "-o", "v.svg"]),
    ("ute-tail", "valid", ["run.slog", *TAIL]),
    ("ute-diff", "valid", ["merged.ute", "merged.ute"]),
    ("ute-oracle", "valid", ["merged.ute", "--no-serve"]),
    ("ute-trace", "junk", ["pingpong", "-o", "jraw", "--live", "junk"]),
    ("ute-convert", "junk", ["junk", "-o", "jivl"]),
    ("ute-merge", "junk", ["junk", "-o", "jm.ute"]),
    ("slogmerge", "junk", ["junk", "-o", "jm2.ute", "--slog", "j.slog"]),
    ("ute-stats", "junk", ["junk", "-o", "jstats"]),
    ("ute-validate", "junk", ["junk"]),
    ("ute-recover", "junk", ["junk", "-o", "jrec.slog"]),
    ("ute-preview", "junk", ["junk", "-o", "jp.svg"]),
    ("ute-profile", "junk", ["junk"]),
    ("ute-dump", "junk", ["junk"]),
    ("ute-query", "junk", ["junk"]),
    ("ute-report", "junk", ["junk", "-o", "jr.html"]),
    ("ute-view", "junk", ["junk", "-o", "jv.svg"]),
    ("ute-serve", "junk", ["junk", "-p", "0"]),
    ("ute-tail", "junk", ["junk", "--connect-timeout", "0.1"]),
    ("ute-diff", "junk", ["junk", "junk"]),
    ("ute-oracle", "junk", ["junk", "--no-serve"]),
    ("ute-trace", "out_under_file", ["pingpong", "-o", "blk/raw"]),
    ("ute-trace", "live_under_file", ["pingpong", "-o", "lraw", "--live", "blk/x.slog"]),
    ("ute-convert", "out_under_file", ["raw/*.raw", "-o", "blk/ivl"]),
    ("ute-convert", "to_under_file", ["merged.ute", "--to", "chrome-json", "-o", "blk/x.json"]),
    ("ute-merge", "out_under_file", ["ivl/trace*.ute", "-o", "blk/m.ute"]),
    ("slogmerge", "out_under_file", ["ivl/trace*.ute", "-o", "blk/m.ute", "--slog", "s.slog"]),
    ("slogmerge", "slog_under_file", ["ivl/trace*.ute", "-o", "m3.ute", "--slog", "blk/x.slog"]),
    ("ute-stats", "out_under_file", ["merged.ute", "-o", "blk/stats"]),
    ("ute-recover", "out_under_file", ["run.slog", "-o", "blk/r.slog"]),
    ("ute-preview", "out_under_file", ["run.slog", "-o", "blk/p.svg"]),
    ("ute-query", "index_under_file", ["run.slog", "--build-index", "--index", "blk/x.uteidx"]),
    ("ute-report", "out_under_file", ["run.slog", "-o", "blk/r.html"]),
    ("ute-view", "out_under_file", ["run.slog", "-o", "blk/v.svg"]),
    ("ute-tail", "out_under_file", ["run.slog", "--out", "blk/f.ute", *TAIL]),
    *((name, "unknown_flag", ["--no-such-flag"]) for name in SCRIPTS),
]


class _Parser(Exception):
    """Carries the parser a command built out of its ``parse_args``."""

    def __init__(self, parser: argparse.ArgumentParser) -> None:
        super().__init__(parser.prog)
        self.parser = parser


def _stop(parser, args=None, namespace=None):
    raise _Parser(parser)


def describe(action: argparse.Action) -> dict:
    return {
        "flags": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "type": None if action.type is None else action.type.__name__,
        "action": type(action).__name__,
        "required": action.required,
    }


def surface(main) -> dict:
    """The argparse surface of one entry point."""
    with mock.patch.object(argparse.ArgumentParser, "parse_args", _stop):
        try:
            main([])
        except _Parser as stopped:
            parser = stopped.parser
        else:
            raise AssertionError("the entry point built no parser")
    actions = parser._actions
    return {
        "prog": parser.prog,
        "positionals": [describe(a) for a in actions if not a.option_strings],
        "optionals": {
            "/".join(a.option_strings): describe(a)
            for a in actions if a.option_strings
        },
    }


def expand(argv: list[str]) -> list[str]:
    return [
        path for arg in argv
        for path in (sorted(glob.glob(arg)) if "*" in arg else [arg])
    ]


def run(name: str, argv: list[str]) -> list:
    """``[status, one_line_error]`` of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = getattr(cli, SCRIPTS[name])(expand(argv))
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    return [code, len(lines) == 1 and lines[0].startswith(f"{name}: error: ")]


def build(work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    (work / "blk").write_text("a regular file, not a directory\n")
    (work / "junk").write_bytes(random.Random(26).randbytes(4096))
    golden: dict = {
        name: {"surface": surface(getattr(cli, main)), "exits": {}}
        for name, main in SCRIPTS.items()
    }
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for name, case, argv in CASES:
            golden[name]["exits"][case] = run(name, argv)
    finally:
        os.chdir(cwd)
    return golden


if __name__ == "__main__":
    import tempfile

    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        golden = build(Path(sys.argv[2]) if len(sys.argv) > 2 else Path(tmp))
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} commands -> {out}")
