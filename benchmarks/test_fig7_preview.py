"""Figure 7: Jumpshot preview with scalable frame display.

The paper's Figure 7 shows (a) a summary preview of the whole run built
from state counters accumulated during SLOG construction, on which the
initialization, typical-iteration, and termination phases are visible, and
(b) the frame containing a user-selected instant, located via the frame
index — with display time independent of total file size.

Reproduced: the preview from our SLOG counters (phase checks), frame lookup
+ display at a chosen instant, and the scalability claim — frame access
time measured against traces 1x / 4x / 16x the size.
"""

from __future__ import annotations

import time

from benchmarks.conftest import report
from repro.core.atomicio import atomic_write_text
from repro.viz.jumpshot import Jumpshot


def test_figure7_preview_and_frame(benchmark, flash_pipeline):
    slog_path = flash_pipeline["merge"].slog_path

    viewer = Jumpshot(slog_path)
    ranges = viewer.interesting_ranges(threshold=0.2)
    assert len(ranges) >= 3, "init / bursts / termination not visible in preview"
    # Pick an instant inside a middle interesting range, as the Figure 7
    # user picks the "typical" iteration phase.
    lo, hi = ranges[1]
    instant = (lo + hi) / 2

    def preview_and_frame():
        v = Jumpshot(slog_path)
        atomic_write_text(flash_pipeline["out"] / "figure7_preview.svg", v.preview.render_svg())
        return atomic_write_text(
            flash_pipeline["out"] / "figure7_frame.svg",
            v.view_svg_at(instant, kind="thread-connected"),
        )

    benchmark(preview_and_frame)
    frame = viewer.locate(instant)
    report(
        "", "FIGURE 7 — preview + frame display (FLASH-shaped run)",
        "paper: phases identifiable in preview; chosen frame displayed via index",
        f"  interesting ranges (s): {[(round(a, 3), round(b, 3)) for a, b in ranges]}",
        f"  selected t={instant:.3f}s -> frame [{frame.start_time / 1e9:.3f}, "
        f"{frame.end_time / 1e9:.3f}]s with {frame.n_records} records "
        f"({frame.n_pseudo} pseudo)",
    )


def test_figure7_scalability(benchmark, workspace, profile):
    """Frame display cost must not grow with file size (the SLOG design
    goal).  Build merged SLOGs at 1x/4x/16x events; time locate+read."""
    from repro.utils.convert import convert_traces
    from repro.utils.merge import merge_interval_files
    from repro.workloads import run_synthetic
    from repro.workloads.synthetic import SyntheticConfig

    timings: dict[int, float] = {}
    sizes = (150, 600, 2400)
    for rounds in sizes:
        out = workspace / f"fig7-{rounds}"
        run = run_synthetic(out / "raw", SyntheticConfig(rounds=rounds))
        conv = convert_traces(run.raw_paths, out / "ivl")
        merged = merge_interval_files(
            conv.interval_paths, out / "merged.ute", profile,
            slog_path=out / "run.slog", frame_bytes=16 * 1024,
        )
        viewer = Jumpshot(merged.slog_path)
        instant = viewer.slog.time_range[1] / 2 / viewer.slog.ticks_per_sec
        t0 = time.perf_counter()
        repeats = 50
        for _ in range(repeats):
            frame = viewer.locate(instant)
            viewer.batch([frame])
        timings[rounds] = (time.perf_counter() - t0) / repeats

    benchmark.pedantic(
        lambda: Jumpshot(workspace / f"fig7-{sizes[-1]}" / "run.slog"),
        rounds=1, iterations=1,
    )
    rows = ["", "FIGURE 7 scalability — frame locate+read time vs trace size",
            "paper: display time independent of SLOG size (frame index + preview)"]
    for rounds in sizes:
        rows.append(f"  {rounds:>5} rounds: {timings[rounds] * 1e3:8.3f} ms per frame access")
    report(*rows)
    # 16x the data must cost far less than 16x the time; allow generous 4x.
    assert timings[sizes[-1]] < timings[sizes[0]] * 4, timings
