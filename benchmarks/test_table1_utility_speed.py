"""Table 1: convert and slogmerge utility speed.

The paper's Table 1 runs a 4-task × 4-thread test program at several
problem sizes (40 282 to 11 216 936 raw events) and reports seconds/event
for the convert and slogmerge utilities, showing the per-event cost stays
roughly constant as the event count grows ("the time spent processing an
event scales well with the number of events").

We sweep the same program shape over raw-event counts matching the paper's
first columns plus a ~1.1 M-event rung (the 4.6 M and 11.2 M points are
dropped to keep the bench minutes-scale on a laptop; flatness is
established across a 27x range).  The claim to reproduce is the *flat*
sec/event row, not the absolute numbers (theirs is C on a PowerPC; ours is
Python).

Besides the prose rows in ``report.txt`` the run writes
``BENCH_ladder.json`` at the repository root — the machine-readable ladder
``EXPERIMENTS.md`` quotes and a later change can be compared against.  Per
rung it also holds the ``.uteidx`` stage (``build_index`` + ``write_index``
over the rung's SLOG, sec/event) and the peak RSS of convert, slogmerge and
the index build (each a fresh interpreter running the stage once), and
the time of one ``open_trace`` on the rung's SLOG: the first open of a
fresh interpreter (cold) and an open after it (warm), seconds per call.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.query import build_index, index_path_for, open_trace, write_index
from repro.tracing.rawfile import RawTraceReader
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files

#: Synthetic rounds chosen to land near the paper's raw-event counts
#: (40282, 128378, 254225, 641354, ...), then ~1.1 M.
ROUND_SWEEP = (688, 2194, 4345, 10960, 18800)

ROOT = Path(__file__).resolve().parents[1]
LADDER_PATH = ROOT / "BENCH_ladder.json"

#: Largest max/min of sec/event over the rungs that still counts as flat.
FLATNESS_BOUND = 1.5

_results: dict[int, dict[str, float]] = {}


def _floor_per_event(benchmark, fn, events: int) -> float:
    """``fn`` timed at its floor, in sec/event: a collected heap before
    every pass; two to five passes, the more the smaller the rung (the
    small rungs are the ones a busy host distorts)."""
    def collected_heap() -> None:
        gc.collect()

    benchmark.pedantic(
        fn, setup=collected_heap, rounds=max(2, min(5, 400_000 // events)), iterations=1
    )
    return benchmark.stats.stats.min / events


@pytest.fixture(scope="module")
def traces(workspace):
    """Raw traces for every sweep point, generated once."""
    from repro.workloads import run_synthetic
    from repro.workloads.synthetic import SyntheticConfig

    out = {}
    for rounds in ROUND_SWEEP:
        run = run_synthetic(
            workspace / f"table1-{rounds}", SyntheticConfig(rounds=rounds)
        )
        events = sum(len(RawTraceReader(p)) for p in run.raw_paths)
        out[rounds] = (run.raw_paths, events)
    return out


@pytest.mark.parametrize("rounds", ROUND_SWEEP)
def test_convert_speed(benchmark, traces, workspace, rounds):
    raw_paths, events = traces[rounds]

    made = []

    def do_convert():
        made.append(convert_traces(raw_paths, workspace / f"t1c-{rounds}"))

    _results.setdefault(events, {})["convert"] = _floor_per_event(
        benchmark, do_convert, events
    )
    assert made[-1].events_processed == events
    _results[events]["convert_peak_rss_mb"] = _fresh_peak_rss_mb(
        "from repro.utils.convert import convert_traces\n"
        "convert_traces(sys.argv[2:], sys.argv[1])\n",
        workspace / f"t1r-{rounds}", *raw_paths,
    )


def _fresh_peak_rss_mb(stage: str, *args) -> float:
    """Peak RSS of a fresh interpreter that runs ``stage`` (Python source
    over ``sys.argv``) once: its ``VmHWM`` (``ru_maxrss`` would start at
    this process's own size — Linux carries it across ``exec``)."""
    code = (
        "import re, sys\n" + stage
        + "print(re.search(r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read()).group(1))\n"
    )
    return int(_fresh_stdout(code, *args)) / 1024


def _fresh_stdout(code: str, *args) -> str:
    """Standard output of a fresh interpreter running ``code`` over
    ``sys.argv``."""
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.mark.parametrize("rounds", ROUND_SWEEP)
def test_slogmerge_speed(benchmark, traces, workspace, profile, rounds):
    raw_paths, events = traces[rounds]
    conv = convert_traces(raw_paths, workspace / f"t1m-{rounds}")

    def do_slogmerge():
        return merge_interval_files(
            conv.interval_paths,
            workspace / f"t1m-{rounds}" / "merged.ute",
            profile,
            slog_path=workspace / f"t1m-{rounds}" / "out.slog",
        )

    _results.setdefault(events, {})["slogmerge"] = _floor_per_event(
        benchmark, do_slogmerge, events
    )
    _results[events]["slogmerge_peak_rss_mb"] = _fresh_peak_rss_mb(
        "from repro.core import standard_profile\n"
        "from repro.utils.merge import merge_interval_files\n"
        "merge_interval_files(sys.argv[3:], sys.argv[1], standard_profile(), slog_path=sys.argv[2])\n",
        workspace / f"t1m-{rounds}" / "rss.ute", workspace / f"t1m-{rounds}" / "rss.slog",
        *conv.interval_paths,
    )


@pytest.mark.parametrize("rounds", ROUND_SWEEP)
def test_index_speed(benchmark, traces, workspace, rounds):
    """The ``.uteidx`` stage over the SLOG ``test_slogmerge_speed`` left:
    ``build_index`` + ``write_index``, per raw event like the other rows."""
    _raw_paths, events = traces[rounds]
    slog = workspace / f"t1m-{rounds}" / "out.slog"
    assert slog.exists(), "the slogmerge rung runs first"

    def do_index():
        with open_trace(slog) as handle:
            write_index(build_index(handle), index_path_for(slog))

    _results.setdefault(events, {})["index"] = _floor_per_event(benchmark, do_index, events)
    _results[events]["index_peak_rss_mb"] = _fresh_peak_rss_mb(
        "from repro.query import build_index, open_trace, write_index\n"
        "with open_trace(sys.argv[1]) as handle:\n"
        "    write_index(build_index(handle), sys.argv[2])\n",
        slog, workspace / f"t1m-{rounds}" / "rss.uteidx",
    )


#: Fresh interpreters timed per rung for the cold open (its floor).
COLD_OPENS = 3


@pytest.mark.parametrize("rounds", ROUND_SWEEP)
def test_open_speed(benchmark, traces, workspace, rounds):
    """``open_trace`` on the SLOG ``test_slogmerge_speed`` left, seconds
    per call: warm (this process opened it before) and cold (the first
    open of a fresh interpreter, with the SLOG reader's modules imported
    before the timer, so the row is the open and not ``repro.utils``'s
    package import)."""
    _raw_paths, events = traces[rounds]
    slog = workspace / f"t1m-{rounds}" / "out.slog"
    assert slog.exists(), "the slogmerge rung runs first"

    def do_open():
        with open_trace(slog):
            pass

    do_open()
    benchmark.pedantic(do_open, rounds=20, iterations=1)
    row = _results.setdefault(events, {})
    row["open_warm_s"] = benchmark.stats.stats.min
    stage = (
        "import sys, time\n"
        "from repro.query import open_trace\n"
        "import repro.utils.slog\n"  # open_trace imports it lazily
        "start = time.perf_counter()\n"
        "with open_trace(sys.argv[1]):\n"
        "    pass\n"
        "print(time.perf_counter() - start)\n"
    )
    row["open_cold_s"] = min(
        float(_fresh_stdout(stage, slog)) for _ in range(COLD_OPENS)
    )


def test_report_table1(benchmark):
    """Assemble the Table 1 rows and check the flatness claim."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    stages = ("convert", "slogmerge", "index")
    sizes = sorted(
        e for e, row in _results.items()
        if all(s in row for s in (*stages, "open_cold_s", "open_warm_s"))
    )
    assert len(sizes) == len(ROUND_SWEEP), "earlier sweep points missing"
    header = "# raw events          " + "".join(f"{e:>12}" for e in sizes)
    rows = [
        f"sec/event in {stage:<9}" + "".join(f"{_results[e][stage]:12.7f}" for e in sizes)
        for stage in stages
    ]
    for temp in ("cold", "warm"):
        rows.append(
            f"{'ms/open_trace ' + temp:<22}"
            + "".join(f"{_results[e][f'open_{temp}_s'] * 1e3:12.3f}" for e in sizes)
        )
    report(
        "", "TABLE 1 — utility speed (paper: sec/event flat from 40k to 11.2M events;",
        "paper convert ~0.83e-4 s/ev, slogmerge ~2.3e-4 s/ev on a 2000 PowerPC;",
        "the .uteidx row is ours: index build + write over the rung's SLOG;",
        "so are the open_trace rows: a fresh interpreter's first open, then a warm one)",
        header, *rows,
    )
    flatness = {
        stage: max(_results[e][stage] for e in sizes) / min(_results[e][stage] for e in sizes)
        for stage in stages
    }
    LADDER_PATH.write_text(json.dumps(_ladder(sizes, flatness), indent=2) + "\n")
    # The reproduction claim: per-event cost roughly constant across the
    # 27x sweep, for the paper's two utilities.
    for utility in ("convert", "slogmerge"):
        assert flatness[utility] < FLATNESS_BOUND, (utility, [_results[e][utility] for e in sizes])


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _ladder(sizes: list[int], flatness: dict[str, float]) -> dict:
    """The ladder as data: where it ran, and per rung the raw-event count,
    each stage's sec/event (the floor of its timed passes) and peak RSS,
    and the cold and warm ``open_trace`` of the rung's SLOG (sec/call)."""
    return {
        "benchmark": "benchmarks/test_table1_utility_speed.py",
        "git_sha": _git("rev-parse", "--short=12", "HEAD"),
        # Uncommitted changes under src/: the tree is that commit's child.
        "git_dirty": bool(_git("status", "--porcelain", "--", "src")),
        "nproc": os.cpu_count(),
        "rungs": [
            {
                "raw_events": e,
                "convert_sec_per_event": _results[e]["convert"],
                "convert_peak_rss_mb": _results[e]["convert_peak_rss_mb"],
                "slogmerge_sec_per_event": _results[e]["slogmerge"],
                "slogmerge_peak_rss_mb": _results[e]["slogmerge_peak_rss_mb"],
                "index_sec_per_event": _results[e]["index"],
                "index_peak_rss_mb": _results[e]["index_peak_rss_mb"],
                "open_cold_s": _results[e]["open_cold_s"],
                "open_warm_s": _results[e]["open_warm_s"],
            }
            for e in sizes
        ],
        "convert.flatness": flatness["convert"],
        "merge.flatness": flatness["slogmerge"],
        "index.flatness": flatness["index"],
    }
