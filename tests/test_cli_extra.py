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

    def test_build_index_has_no_bins(self, run_slog, tmp_path, capsys):
        """``--bins`` sets ``--utilization`` answers only; given with
        ``--build-index`` it is a one-line usage error and no sidecar is
        written, beside the trace or at ``--index``."""
        from repro import cli
        from repro.query import index_path_for

        sidecar = tmp_path / "x.uteidx"
        for extra in ([], ["--index", str(sidecar)]):
            argv = [str(run_slog), "--build-index", "--bins", "32", *extra]
            assert cli.main_query(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("ute-query: error: --bins ")
            assert len(err.splitlines()) == 1
        assert not sidecar.exists() and not index_path_for(run_slog).exists()


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
        """``COMMANDS`` is the list: every row is a ``[project.scripts]``
        line (and the reverse), a key of ``ENTRY_POINTS``, and a command
        README.md's command-line list names."""
        import re
        from pathlib import Path

        from repro import cli

        root = Path(__file__).resolve().parents[1]
        section = (root / "pyproject.toml").read_text()
        section = section.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        scripts = dict(re.findall(r'^([\w-]+) = "repro\.cli:(\w+)"$', section, re.M))
        commands = {name: row.handler.__name__ for name, row in cli.COMMANDS.items()}
        assert scripts == commands
        assert commands == {name: main for name, (main, _) in ENTRY_POINTS.items()}
        assert len(ENTRY_POINTS) == 17
        readme = (root / "README.md").read_text()
        listed = readme.split("Command-line equivalents:", 1)[1].split("\n\n", 1)[0]
        assert set(re.findall(r"`([\w-]+)`", listed)) == set(cli.COMMANDS)

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


#: Every command that writes, with arguments that reach one of its outputs
#: (``{out}``, a path under a regular file); ``{in}`` is any non-empty file.
WRITERS = [
    ("ute-trace", ["synthetic", "-o", "{out}"]),
    ("ute-trace", ["synthetic", "--live", "{out}"]),
    ("ute-convert", ["{in}", "-o", "{out}"]),
    ("ute-convert", ["{in}", "--to", "chrome-json", "-o", "{out}"]),
    ("ute-merge", ["{in}", "-o", "{out}"]),
    ("slogmerge", ["{in}", "-o", "{out}"]),
    ("slogmerge", ["{in}", "--slog", "{out}"]),
    ("ute-stats", ["{in}", "-o", "{out}"]),
    ("ute-recover", ["{in}", "-o", "{out}"]),
    ("ute-preview", ["{in}", "-o", "{out}"]),
    ("ute-query", ["{in}", "--build-index", "--index", "{out}"]),
    ("ute-report", ["{in}", "-o", "{out}"]),
    ("ute-view", ["{in}", "-o", "{out}"]),
    ("ute-tail", ["{in}", "--out", "{out}"]),
]


class TestOutputValidation:
    """Every command validates its outputs up front: one line naming the
    location, exit status 2, and nothing written."""

    def test_every_writer_is_covered(self):
        from repro import cli

        assert {name for name, _ in WRITERS} == {
            name for name, row in cli.COMMANDS.items() if row.outputs
        }

    @pytest.mark.parametrize(
        "prog,argv", WRITERS,
        ids=[" ".join(w for w in (n, *a) if "{" not in w) for n, a in WRITERS],
    )
    def test_output_under_file_rejected(self, prog, argv, tmp_path, capsys,
                                        monkeypatch):
        from repro import cli

        monkeypatch.chdir(tmp_path)  # default outputs land here
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        source = tmp_path / "input"
        source.write_text("the output check comes before any read")
        before = sorted(tmp_path.iterdir())
        code = cli.COMMANDS[prog](
            [a.format(**{"in": source, "out": blocker / "x"}) for a in argv]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"{prog}: error: output location is not a directory: {blocker}\n"
        )
        assert sorted(tmp_path.iterdir()) == before

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


class TestViewFromFrames:
    """``ute-view --ansi`` / ``--interactive`` build their view from the
    frames' batches, byte-identical to the view over the file's records."""

    KINDS = ["thread", "thread-connected", "processor", "thread-processor",
             "processor-thread", "type"]

    @staticmethod
    def refuse_records(monkeypatch):
        from repro.utils.slog import SlogFile

        def refuse(*_args, **_kw):
            raise AssertionError("the view decoded record objects")

        monkeypatch.setattr(SlogFile, "read_frame", refuse)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("at", [False, True])
    def test_ansi(self, run_slog, kind, at, monkeypatch, capsys):
        from repro import cli
        from repro.viz.ansi import render_view_ansi
        from repro.viz.jumpshot import Jumpshot

        with Jumpshot(run_slog) as viewer:
            argv, batch, window = [], viewer.batch(viewer.slog.frames), None
            if at:
                frame = viewer.slog.frames[len(viewer.slog.frames) // 2]
                mid = (frame.start_time + frame.end_time) / 2 / viewer.slog.ticks_per_sec
                frame = viewer.locate(mid)
                argv = ["--at", repr(mid)]
                batch = viewer.batch([frame])
                window = (frame.start_time, frame.end_time)
            view = viewer.build_view(batch, kind)
            want = render_view_ansi(view, columns=100, window=window) + "\n"
        self.refuse_records(monkeypatch)
        assert cli.main_view([str(run_slog), "--ansi", "--kind", kind, *argv]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_interactive(self, run_slog, kind, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.viz.interactive import render_interactive_html
        from repro.viz.jumpshot import Jumpshot

        with Jumpshot(run_slog) as viewer:
            view = viewer.build_view(viewer.batch(viewer.slog.frames), kind)
            want = render_interactive_html(
                view, tmp_path / "want.html", ticks_per_sec=viewer.slog.ticks_per_sec
            ).read_bytes()
        self.refuse_records(monkeypatch)
        out = tmp_path / "got.html"
        assert cli.main_view([str(run_slog), "--interactive", "--kind", kind, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert out.read_bytes() == want


class TestViewAtAnInstant:
    """``ute-view --at T`` selects the frame holding T once, and the SVG,
    ``--ansi`` and ``--interactive`` outputs all draw that frame."""

    KINDS = TestViewFromFrames.KINDS

    @pytest.fixture(scope="class")
    def framed(self, tmp_path_factory):
        """A ping-pong SLOG in 1 KiB frames, and an instant mid-way."""
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.viz.jumpshot import Jumpshot
        from repro.workloads import run_pingpong

        tmp = tmp_path_factory.mktemp("view-at")
        conv = convert_traces(run_pingpong(tmp / "raw").raw_paths, tmp / "ivl")
        slog = merge_interval_files(
            conv.interval_paths, tmp / "m.ute", PROFILE, slog_path=tmp / "run.slog",
            frame_bytes=1024,
        ).slog_path
        with Jumpshot(slog) as viewer:
            frames = viewer.slog.frames
            assert len(frames) > 2
            frame = frames[len(frames) // 2]
            mid = (frame.start_time + frame.end_time) / 2 / viewer.slog.ticks_per_sec
        return slog, mid

    @pytest.mark.parametrize("kind", KINDS)
    def test_interactive_draws_the_frame(self, framed, kind, tmp_path, capsys):
        from repro import cli
        from repro.viz.interactive import render_interactive_html
        from repro.viz.jumpshot import Jumpshot

        slog, mid = framed
        with Jumpshot(slog) as viewer:
            tps = viewer.slog.ticks_per_sec
            frame_view = viewer.build_view(viewer.batch([viewer.locate(mid)]), kind)
            want = render_interactive_html(frame_view, tmp_path / "want.html", ticks_per_sec=tps)
            run_view = viewer.build_view(viewer.batch(viewer.slog.frames), kind)
            run = render_interactive_html(run_view, tmp_path / "run.html", ticks_per_sec=tps)
        out = tmp_path / "got.html"
        argv = [str(slog), "--interactive", "--kind", kind, "--at", repr(mid), "-o", str(out)]
        assert cli.main_view(argv) == 0
        assert out.read_bytes() == want.read_bytes() != run.read_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_svg_draws_the_frame(self, framed, kind, tmp_path, capsys):
        from repro import cli
        from repro.viz.jumpshot import Jumpshot

        slog, mid = framed
        with Jumpshot(slog) as viewer:
            want = viewer.view_svg_at(mid, kind=kind)
        out = tmp_path / "got.svg"
        assert cli.main_view([str(slog), "--kind", kind, "--at", repr(mid), "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert out.read_text() == want


class TestCountArguments:
    """A count option below what the command can honour is a one-line usage
    error, never a silent default or an empty rendering."""

    @pytest.mark.parametrize(
        "main,argv,flag",
        [
            ("main_dump", ["-n", "-1"], "--limit"),
            ("main_query", ["--bins", "0", "--build-index", "--index", "{tmp}/x"],
             "--bins"),
            ("main_query", ["--bins", "0", "--utilization"], "--bins"),
            ("main_view", ["--ansi", "--columns", "0"], "--columns"),
        ],
    )
    def test_below_minimum_refused(self, run_slog, main, argv, flag, tmp_path,
                                   capsys):
        from repro import cli

        code = getattr(cli, main)(
            [str(run_slog), *(a.format(tmp=tmp_path) for a in argv)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert f": error: {flag} must be at least " in err
        assert not (tmp_path / "x").exists()
