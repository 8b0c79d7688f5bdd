#!/usr/bin/env python
"""System-activity profiling: the paper's section 5 extension, working.

"Future extensions with additional system activities, such as I/O, page
miss, etc. may result in even better tools."  This example traces an
I/O-heavy run where two MPI tasks share each node's disk, then shows that
every existing tool handles the new FileIO and PageFault states with zero
changes — the self-defining profile describes them, so convert, merge,
statistics, and all the views just work:

* the thread-activity view shows long FileIO states (mostly blocked time)
  and the serialization of same-node checkpoints on the shared disk;
* the statistics language queries the new ``ioBytes`` field directly;
* page misses show up as brief PageFault states inside compute.

Run:  python examples/io_profiling.py [output-dir]
"""

import sys
from pathlib import Path

from repro.core import IntervalReader, standard_profile
from repro.core.atomicio import atomic_write_text
from repro.core.records import BeBits, IntervalType
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.query.columnar import batch_from_records
from repro.utils.stats import generate_tables
from repro.viz.ansi import render_view_ansi
from repro.viz.jumpshot import Jumpshot
from repro.workloads import run_ioheavy
from repro.workloads.ioheavy import IoHeavyConfig

IO_TABLES = """
table name=io_by_node
      condition=(ioBytes > 0 and (bebits == 0 or bebits == 1))
      x=("node", node)
      y=("bytes", ioBytes, sum)
      y=("operations", ioBytes, count)
table name=fault_counts
      condition=(type == 103 and (bebits == 0 or bebits == 1))
      x=("node", node) x=("thread", thread)
      y=("faults", dura, count)
"""


def main(out_dir: str = "io-out") -> None:
    out = Path(out_dir)
    profile = standard_profile()
    config = IoHeavyConfig(phases=3)
    run = run_ioheavy(out / "raw", config)
    print(f"simulated {run.elapsed_ns / 1e9:.4f}s "
          f"({config.n_tasks} tasks, {config.tasks_per_node} per node/disk)")
    for node in run.cluster.nodes:
        print(f"  node {node.node_id} disk: {node.disk.requests} requests, "
              f"{node.disk.bytes_moved >> 20} MiB, "
              f"{node.disk.utilization(run.elapsed_ns) * 100:.0f}% busy")

    result = convert_traces(run.raw_paths, out / "intervals")
    merged = merge_interval_files(
        result.interval_paths, out / "merged.ute", profile,
        slog_path=out / "run.slog",
    )

    reader = IntervalReader(out / "merged.ute", profile)
    records = list(reader.intervals())

    # Disk-queueing analysis from the trace alone: wall span per write.
    spans = {}
    open_start = {}
    for r in records:
        if r.itype != IntervalType.IO or r.extra.get("ioWrite") != 1:
            continue
        key = (r.node, r.thread)
        if r.bebits is BeBits.BEGIN:
            open_start[key] = r.start
        elif r.bebits is BeBits.END and key in open_start:
            spans.setdefault(key, []).append((r.end - open_start.pop(key)) / 1e6)
        elif r.bebits is BeBits.COMPLETE:
            spans.setdefault(key, []).append(r.duration / 1e6)
    print("\ncheckpoint write wall time per task (ms) — same-node pairs queue:")
    for (node, thread), values in sorted(spans.items()):
        print(f"  node {node} thread {thread}: "
              + ", ".join(f"{v:.1f}" for v in values))

    print("\nstatistics over the extension fields:")
    for table in generate_tables([batch_from_records(records)], IO_TABLES):
        print(f"[{table.name}]")
        print(table.to_tsv())

    viewer = Jumpshot(out / "run.slog")
    whole_run = viewer.view_svg_window(None, None, kind="thread")
    print(f"thread view: {atomic_write_text(out / 'io_thread_view.svg', whole_run)}")
    view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")
    print()
    print(render_view_ansi(view, columns=100))


if __name__ == "__main__":
    main(*sys.argv[1:2])
