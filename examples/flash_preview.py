#!/usr/bin/env python
"""FLASH preview and statistics: reproduce the paper's Figures 6 and 7.

Traces a FLASH-shaped phased run, builds the SLOG file, and then:

* renders the whole-run **preview** (Figure 7's smaller window) from the
  state counters stored in the SLOG header;
* reports the **interesting time ranges** the way the Figure 6 discussion
  reads them off the statistics table;
* picks an instant inside an interesting range and displays the containing
  **frame** via the time index (Figure 7's larger window);
* generates and renders the pre-defined statistics tables (Figure 6).

Run:  python examples/flash_preview.py [output-dir]
"""

import sys
from pathlib import Path

from repro.core import IntervalReader, standard_profile
from repro.core.atomicio import atomic_write_text
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.query.columnar import batch_from_records
from repro.utils.stats import predefined_tables
from repro.viz.jumpshot import Jumpshot
from repro.viz.statviewer import render_binned_table_svg, render_table_svg
from repro.workloads import run_flash
from repro.workloads.flash import FlashConfig


def main(out_dir: str = "flash-out") -> None:
    out = Path(out_dir)
    profile = standard_profile()
    run = run_flash(out / "raw", FlashConfig(iterations=30))
    print(f"simulated {run.elapsed_ns / 1e9:.4f}s")

    result = convert_traces(run.raw_paths, out / "intervals")
    merged = merge_interval_files(
        result.interval_paths, out / "merged.ute", profile,
        slog_path=out / "run.slog", frame_bytes=8 * 1024,
    )
    print(f"{result.events_processed} events -> {merged.records_out} merged records "
          f"(+{merged.pseudo_records} pseudo-intervals)")

    viewer = Jumpshot(out / "run.slog")
    print(f"preview: {atomic_write_text(out / 'figure7_preview.svg', viewer.preview.render_svg())}")

    ranges = viewer.interesting_ranges(threshold=0.2)
    print("interesting time ranges (the Figure 6 reading):")
    for lo, hi in ranges:
        print(f"  {lo:.3f}s .. {hi:.3f}s")

    # Zoom into the middle of the second interesting range, like the user
    # clicking the preview in Figure 7.
    if len(ranges) > 1:
        lo, hi = ranges[1]
        instant = (lo + hi) / 2
        frame = viewer.locate(instant)
        print(f"frame containing t={instant:.3f}s: "
              f"{frame.n_records} records ({frame.n_pseudo} pseudo), "
              f"[{frame.start_time / 1e9:.3f}s, {frame.end_time / 1e9:.3f}s]")
        path = atomic_write_text(
            out / "figure7_frame.svg", viewer.view_svg_at(instant, kind="thread-connected")
        )
        print(f"frame display: {path}")

    # Figure 6: the statistics utility + viewer.
    reader = IntervalReader(out / "merged.ute", profile)
    records = list(reader.intervals())
    total_s = reader.totals()[2] / 1e9
    tables = predefined_tables([batch_from_records(records)], total_seconds=total_s)
    for table in tables:
        print(f"stats: {table.write(out / (table.name + '.tsv'))}")
    binned = next(t for t in tables if t.name == "interesting_by_node_bin")
    print(f"figure 6 viewer: "
          f"{render_binned_table_svg(binned, out / 'figure6_statistics.svg', total_seconds=total_s)}")
    by_type = next(t for t in tables if t.name == "duration_by_type")
    names = {t: profile.record_name(t) for t in profile.record_types()}
    print(f"by-type viewer: "
          f"{render_table_svg(by_type, out / 'duration_by_type.svg', y_label='sum(duration)', name_of=names)}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
