"""Additional CLI coverage: custom stats programs, sync-mode selection,
synthetic knobs, and error paths."""

import pytest

from repro.core import IntervalReader, standard_profile

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    from repro import cli

    tmp = tmp_path_factory.mktemp("cli-extra")
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main_trace(["synthetic", "--rounds", "25", "-o", str(tmp / "raw")])
        raw = [l for l in buf.getvalue().splitlines() if l]
        buf.truncate(0)
        buf.seek(0)
        cli.main_convert([*raw, "-o", str(tmp / "ivl")])
        intervals = [l for l in buf.getvalue().splitlines() if l]
    return tmp, intervals


class TestStatsProgram:
    def test_custom_program_file(self, traced, tmp_path, capsys):
        from repro import cli

        _, intervals = traced
        program = tmp_path / "prog.stats"
        program.write_text(
            'table name=custom x=("node", node) y=("pieces", dura, count)\n'
        )
        out = tmp_path / "stats"
        assert cli.main_stats(
            [*intervals, "--program", str(program), "-o", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "custom.tsv" in captured
        tsv = (out / "custom.tsv").read_text()
        assert tsv.startswith("node\tpieces")

    def test_bad_program_raises_stats_error(self, traced, tmp_path, capsys):
        """The StatsError reaches the user as the CLI's one-line error."""
        from repro import cli

        _, intervals = traced
        program = tmp_path / "bad.stats"
        program.write_text("table x=(")
        argv = [*intervals, "--program", str(program), "-o", str(tmp_path / "s")]
        assert cli.main_stats(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ute-stats: error: unexpected end of program")
        assert len(err.splitlines()) == 1


class TestMergeModes:
    @pytest.mark.parametrize("mode", ["rms_segment", "rms_anchored", "last_slope", "piecewise"])
    def test_sync_mode_selectable(self, traced, tmp_path, mode, capsys):
        from repro import cli

        _, intervals = traced
        out = tmp_path / f"{mode}.ute"
        assert cli.main_merge([*intervals, "-o", str(out), "--sync", mode]) == 0
        capsys.readouterr()
        reader = IntervalReader(out, PROFILE)
        ends = [r.end for r in reader.intervals()]
        assert ends == sorted(ends)

    def test_explicit_profile_roundtrip(self, traced, tmp_path, capsys):
        from repro import cli

        tmp, intervals = traced
        profile_path = tmp / "ivl" / "profile.ute"
        assert profile_path.exists()
        out = tmp_path / "prof.ute"
        assert cli.main_merge(
            [*intervals, "-o", str(out), "--profile", str(profile_path)]
        ) == 0
        capsys.readouterr()


class TestArgumentErrors:
    def test_unknown_workload_rejected(self):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main_trace(["frobnicate"])

    def test_unknown_view_kind_rejected(self):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main_view(["whatever.slog", "--kind", "pie"])

    def test_unknown_sync_rejected(self):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main_merge(["a.ute", "--sync", "vibes"])

    def test_convert_has_no_jobs_flag(self, tmp_path, capsys):
        """Convert is one pass; a fan-out flag is refused, never ignored."""
        from repro import cli

        with pytest.raises(SystemExit) as exc:
            cli.main_convert(["a.raw", "-o", str(tmp_path / "out"), "--jobs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --jobs 2" in err
        assert not (tmp_path / "out").exists()


#: Every console script with the arguments that lead it to one input path
#: (``{}``).  ``ute-trace`` reads no file; its one path is the ``--live``
#: target, refused when it already exists.
ENTRY_POINTS = {
    "ute-trace": ("main_trace", ["synthetic", "--live", "{}"]),
    "ute-convert": ("main_convert", ["{}"]),
    "ute-merge": ("main_merge", ["{}"]),
    "slogmerge": ("main_slogmerge", ["{}"]),
    "ute-stats": ("main_stats", ["{}"]),
    "ute-validate": ("main_validate", ["{}"]),
    "ute-recover": ("main_recover", ["{}"]),
    "ute-preview": ("main_preview", ["{}"]),
    "ute-profile": ("main_profile", ["{}"]),
    "ute-dump": ("main_dump", ["{}"]),
    "ute-query": ("main_query", ["{}"]),
    "ute-report": ("main_report", ["{}"]),
    "ute-view": ("main_view", ["{}"]),
    "ute-serve": ("main_serve", ["{}", "-p", "0"]),
    "ute-tail": ("main_tail", ["{}", "--connect-timeout", "0.1"]),
    "ute-diff": ("main_diff", ["{}", "{}"]),
    "ute-oracle": ("main_oracle", ["{}", "--no-serve"]),
}


class TestNeverATraceback:
    """cli.py's promise: input that is not a trace is a one-line
    ``prog: error:`` and exit status 2 from every entry point."""

    @pytest.fixture()
    def bad_inputs(self, tmp_path, corpus):
        import random

        paths = {
            "random bytes": tmp_path / "junk",
            "truncated interval header": tmp_path / "trunc.ute",
            "truncated slog header": tmp_path / "trunc.slog",
            "a directory": tmp_path / "adir",
            "a missing path": tmp_path / "missing",
        }
        paths["random bytes"].write_bytes(random.Random(15).randbytes(4096))
        for name, good in (("interval", "good.ute"), ("slog", "good.slog")):
            paths[f"truncated {name} header"].write_bytes(
                corpus.path(good).read_bytes()[:40]
            )
        paths["a directory"].mkdir()
        return paths

    def test_console_scripts_are_all_covered(self):
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert {
            name: target.split(":")[1] for name, target in scripts.items()
        } == {name: main for name, (main, _) in ENTRY_POINTS.items()}
        assert len(ENTRY_POINTS) == 17

    @pytest.mark.parametrize(
        "bad",
        [
            "random bytes", "truncated interval header", "truncated slog header",
            "a directory", "a missing path",
        ],
    )
    @pytest.mark.parametrize("prog", sorted(ENTRY_POINTS))
    def test_bad_input(self, prog, bad, bad_inputs, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.chdir(tmp_path)  # default outputs land here
        main, argv = ENTRY_POINTS[prog]
        path = bad_inputs[bad]
        if prog == "ute-trace" and bad == "a missing path":
            path = bad_inputs["random bytes"] / "child"  # parent is no directory
        code = getattr(cli, main)([a.format(path) for a in argv])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if prog == "ute-validate" and bad not in ("a directory", "a missing path"):
            # Judging a file is the validator's job: its verdict, status 1.
            assert code == 1 and "INVALID" in captured.out and not captured.err
            return
        assert code == 2
        assert captured.err.startswith(f"{prog}: error: ")
        assert len(captured.err.splitlines()) == 1


class TestTraceKnobs:
    def test_synthetic_rounds_scale_events(self, tmp_path, capsys):
        from repro import cli
        from repro.tracing import RawTraceReader

        counts = {}
        for rounds in (10, 40):
            out = tmp_path / f"r{rounds}"
            cli.main_trace(["synthetic", "--rounds", str(rounds), "-o", str(out)])
            raw = [l for l in capsys.readouterr().out.splitlines() if l]
            counts[rounds] = sum(len(RawTraceReader(p)) for p in raw)
        assert counts[40] > 2.5 * counts[10]

    def test_ioheavy_workload_traces(self, tmp_path, capsys):
        from repro import cli

        assert cli.main_trace(["ioheavy", "-o", str(tmp_path / "io")]) == 0
        raw = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(raw) == 2  # 4 tasks / 2 per node



@pytest.fixture(scope="module")
def run_slog(traced, tmp_path_factory):
    """A SLOG file built from the shared traced run."""
    from repro import cli

    tmp, intervals = traced
    slog = tmp / "run.slog"
    if not slog.exists():
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main_slogmerge([*intervals, "-o", str(tmp / "m.ute"),
                                "--slog", str(slog)])
    return slog


class TestInputValidation:
    """Every entry point reports missing/unreadable inputs as one-line
    errors with exit code 2 instead of a traceback."""

    ENTRY_POINTS = [
        ("main_convert", ["missing.trc"]),
        ("main_merge", ["missing.ute"]),
        ("main_slogmerge", ["missing.ute"]),
        ("main_stats", ["missing.ute"]),
        ("main_validate", ["missing.ute"]),
        ("main_preview", ["missing.slog"]),
        ("main_profile", ["missing.ute"]),
        ("main_dump", ["missing.ute"]),
        ("main_report", ["missing.slog"]),
        ("main_view", ["missing.slog"]),
        ("main_serve", ["missing.slog"]),
    ]

    @pytest.mark.parametrize("entry,args", ENTRY_POINTS)
    def test_missing_input_is_one_line_error(self, entry, args, capsys):
        from repro import cli

        code = getattr(cli, entry)(args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err and "missing" in err
        assert "Traceback" not in err

    def test_directory_as_input_rejected(self, tmp_path, capsys):
        from repro import cli

        code = cli.main_dump([str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_unreadable_input_rejected(self, tmp_path, capsys):
        import os

        from repro import cli

        locked = tmp_path / "locked.ute"
        locked.write_bytes(b"")
        locked.chmod(0)
        if os.access(locked, os.R_OK):  # running as root: not enforceable
            pytest.skip("permissions are not enforced for this user")
        code = cli.main_dump([str(locked)])
        assert code == 2
        assert "not readable" in capsys.readouterr().err

    def test_profile_path_checked(self, traced, capsys):
        from repro import cli

        _, intervals = traced
        code = cli.main_validate([*intervals, "--profile", "missing-profile.ute"])
        assert code == 2
        assert "missing-profile.ute" in capsys.readouterr().err


class TestOutputValidation:
    """ute-view / ute-preview / ute-report validate --out up front."""

    def test_view_output_under_file_rejected(self, run_slog, tmp_path, capsys):
        from repro import cli

        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = cli.main_view([str(run_slog), "-o", str(blocker / "view.svg")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_preview_output_under_file_rejected(self, run_slog, tmp_path, capsys):
        from repro import cli

        blocker = tmp_path / "blocker2"
        blocker.write_text("x")
        code = cli.main_preview([str(run_slog), "-o", str(blocker / "p.svg")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_report_output_under_file_rejected(self, run_slog, tmp_path, capsys):
        from repro import cli

        blocker = tmp_path / "blocker3"
        blocker.write_text("x")
        code = cli.main_report([str(run_slog), "-o", str(blocker / "r.html")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_nested_missing_dirs_still_allowed(self, run_slog, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "deep" / "er" / "view.svg"
        code = cli.main_view([str(run_slog), "-o", str(out)])
        assert code == 0
        assert out.exists()

    def test_ansi_view_skips_output_check(self, run_slog, tmp_path, capsys):
        from repro import cli

        blocker = tmp_path / "blocker4"
        blocker.write_text("x")
        # --ansi prints to stdout; the unused -o must not be validated.
        code = cli.main_view([str(run_slog), "--ansi", "-o", str(blocker / "v.svg")])
        assert code == 0
        assert capsys.readouterr().out
