#!/usr/bin/env python
"""Blocking analysis: the "performance-analysis applications" of section 4.

Traces the stencil workload, then uses the analysis layer (built purely on
interval records) to answer the questions the views only show:

* Which state types spend their time blocked rather than computing?
  (the call profile — receives and waitalls block; sends don't)
* How busy was each thread and each CPU really?  (the utilization index's
  per-lane busy time over the whole run)
* What did the messages cost?  (latency by size, causality check)

Run:  python examples/blocking_analysis.py [output-dir]
"""

import sys
from pathlib import Path

from repro.analysis import call_profile, message_stats
from repro.analysis.blocking import format_call_profile
from repro.analysis.messages import latency_by_size
from repro.core import standard_profile
from repro.query import build_index, open_trace, split_thread_key
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.query.columnar import concat_batches
from repro.utils.stats import interval_records
from repro.viz.arrows import match_arrows
from repro.workloads import run_stencil
from repro.workloads.stencil import StencilConfig


def lane_busy(util, kind: str) -> dict[tuple[int, int], int]:
    """Busy ticks per (node, thread) or (node, cpu) lane over the whole run."""
    _, cells = util.query(kind, util.t_min, util.t_max, 1)
    return {
        split_thread_key(key): int(cells.busy[lo:hi].sum())
        for key, (lo, hi) in cells.spans.items()
    }


def print_lane(label: str, busy: int, wall: int) -> None:
    fraction = busy / wall if wall else 0.0
    bar = "#" * int(fraction * 40)
    print(f"  {label} {fraction * 100:5.1f}% |{bar:<40}|")


def main(out_dir: str = "blocking-out") -> None:
    out = Path(out_dir)
    profile = standard_profile()
    run = run_stencil(out / "raw", StencilConfig(iterations=8))
    conv = convert_traces(run.raw_paths, out / "intervals")
    merged = merge_interval_files(conv.interval_paths, out / "merged.ute", profile)
    batch = concat_batches(list(interval_records([merged.merged_path], profile)))
    with open_trace(merged.merged_path, profile) as handle:
        util = build_index(handle).utilization
        markers, node_cpus = handle.markers, handle.node_cpus
    wall = util.t_max - util.t_min

    print("=== call profile (worst blockers first) ===")
    rows = call_profile(batch, profile, markers=markers)
    print(format_call_profile(rows))

    print("\n=== thread utilization ===")
    for (node, thread), busy in sorted(lane_busy(util, "thread").items()):
        print_lane(f"node {node} thread {thread}:", busy, wall)

    print("\n=== CPU utilization (idle CPUs included) ===")
    cpus = {(node, cpu): 0 for node, count in node_cpus.items() for cpu in range(count)}
    cpus.update(lane_busy(util, "cpu"))
    for (node, cpu), busy in sorted(cpus.items()):
        print_lane(f"node {node} cpu {cpu}:   ", busy, wall)

    print("\n=== messages ===")
    arrows = match_arrows(batch)
    stats = message_stats(arrows)
    print(f"  {stats.count} messages, {stats.total_bytes >> 10} KiB total, "
          f"latency min/median/max = {stats.min_latency_ns / 1e3:.1f} / "
          f"{stats.median_latency_ns / 1e3:.1f} / {stats.max_latency_ns / 1e3:.1f} us, "
          f"causality violations: {stats.causality_violations}")
    for size, (count, median) in latency_by_size(arrows).items():
        print(f"    {size:>8} B x {count:<3} median visible latency "
              f"{median / 1e3:8.1f} us")


if __name__ == "__main__":
    main(*sys.argv[1:2])
