#!/usr/bin/env python
"""sPPM analysis: reproduce the paper's Figures 8 and 9.

Traces an sPPM-shaped run (4 nodes x 8-way SMP, 4 threads per MPI process,
one making MPI calls), then renders:

* the thread-activity view (Figure 8) — expect system activity on non-MPI
  threads and one idle thread;
* the processor-activity view (Figure 9) — expect mostly-idle CPUs and MPI
  threads hopping between processors;
* the thread-processor and processor-thread views derived from the *same*
  interval file.

Run:  python examples/sppm_analysis.py [output-dir]
"""

import sys
from collections import defaultdict
from pathlib import Path

from repro.core import standard_profile
from repro.core.atomicio import atomic_write_text
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.viz.ansi import render_view_ansi
from repro.viz.jumpshot import Jumpshot
from repro.workloads import run_sppm
from repro.workloads.sppm import SppmConfig


def main(out_dir: str = "sppm-out") -> None:
    out = Path(out_dir)
    config = SppmConfig(iterations=4)
    run = run_sppm(out / "raw", config)
    print(f"simulated {run.elapsed_ns / 1e9:.4f}s")

    result = convert_traces(run.raw_paths, out / "intervals")
    merged = merge_interval_files(
        result.interval_paths, out / "merged.ute", standard_profile(),
        slog_path=out / "run.slog",
    )
    print(f"{result.events_processed} events -> {merged.records_out} merged records")

    viewer = Jumpshot(out / "run.slog")
    for kind, figure in [
        ("thread", "figure8_thread_activity"),
        ("processor", "figure9_processor_activity"),
        ("thread-processor", "thread_processor"),
        ("processor-thread", "processor_thread"),
        ("thread-connected", "thread_activity_connected"),
    ]:
        path = atomic_write_text(
            out / f"{figure}.svg", viewer.view_svg_window(None, None, kind=kind)
        )
        print(f"  {kind:>18}: {path}")

    # The Figure 9 observations, computed from the records.
    records = [r for r in viewer.slog.records() if r.duration > 0]
    cpus_of = defaultdict(set)
    busy_cpus = defaultdict(set)
    for r in records:
        cpus_of[(r.node, r.thread)].add(r.cpu)
        busy_cpus[r.node].add(r.cpu)
    migrating = {k: sorted(v) for k, v in cpus_of.items() if len(v) > 1}
    print("\nFigure 9 observations:")
    for node in sorted(busy_cpus):
        total = viewer.slog.node_cpus.get(node, 8)
        print(f"  node {node}: {len(busy_cpus[node])}/{total} CPUs ever busy")
    print(f"  threads that migrated across CPUs: {len(migrating)}")
    for (node, tid), cpus in sorted(migrating.items())[:8]:
        print(f"    node {node} thread {tid}: CPUs {cpus}")

    # Figure 8 in the terminal.
    print()
    view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")
    print(render_view_ansi(view, columns=90))


if __name__ == "__main__":
    main(*sys.argv[1:2])
