#!/usr/bin/env python
"""Quickstart: the full pipeline of paper Figure 2 on a ping-pong run.

    trace -> raw event files (one per node)
          -> convert  -> per-node interval files + description profile
          -> merge    -> one merged interval file + SLOG
          -> analyze  -> statistics tables, preview, time-space diagram

Run:  python examples/quickstart.py [output-dir]
"""

import sys
from pathlib import Path

from repro.core import IntervalReader, standard_profile
from repro.core.atomicio import atomic_write_text
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.query.columnar import batch_from_records
from repro.utils.stats import predefined_tables
from repro.viz.ansi import render_view_ansi
from repro.viz.jumpshot import Jumpshot
from repro.workloads import run_pingpong


def main(out_dir: str = "quickstart-out") -> None:
    out = Path(out_dir)

    # 1. Trace: execute the program with the tracing library attached.
    run = run_pingpong(out / "raw")
    print(f"simulated {run.elapsed_ns / 1e9:.4f}s on {len(run.raw_paths)} nodes")
    for path in run.raw_paths:
        print(f"  raw trace: {path}")

    # 2. Convert: match events into intervals, unify marker ids.
    result = convert_traces(run.raw_paths, out / "intervals")
    print(f"convert: {result.events_processed} events -> {result.records_written} records")

    # 3. Merge (+SLOG): align clocks, adjust drift, k-way merge.
    profile = standard_profile()
    merged = merge_interval_files(
        result.interval_paths,
        out / "merged.ute",
        profile,
        slog_path=out / "run.slog",
    )
    print(f"merge: {merged.records_out} records, ratios "
          f"{[round(a.ratio, 9) for a in merged.adjustments]}")

    # 4a. Statistics: the pre-defined tables.
    reader = IntervalReader(out / "merged.ute", profile)
    records = list(reader.intervals())
    total_s = reader.totals()[2] / 1e9
    for table in predefined_tables([batch_from_records(records)], total_seconds=total_s):
        path = table.write(out / f"{table.name}.tsv")
        print(f"  stats table: {path}")

    # 4b. Visualization: preview + thread-activity view with arrows.
    viewer = Jumpshot(out / "run.slog")
    print(f"  preview: {atomic_write_text(out / 'preview.svg', viewer.preview.render_svg())}")
    whole_run = viewer.view_svg_window(None, None, kind="thread")
    print(f"  view:    {atomic_write_text(out / 'thread_view.svg', whole_run)}")

    # And a terminal rendering, because why not.
    view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")
    print()
    print(render_view_ansi(view, columns=90))
    print(f"\n{len(view.arrows)} message arrows matched by sequence number")


if __name__ == "__main__":
    main(*sys.argv[1:2])
