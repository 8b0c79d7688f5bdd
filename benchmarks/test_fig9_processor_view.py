"""Figure 9: the processor-activity view of the same sPPM run.

"Since each node has eight processors, there may be up to eight timelines
for each node.  Here one can see that the CPUs are mostly idle ..., and
that the MPI threads for processes 0 and 1 jump from one CPU to another on
the same node during this section of the run.  More threads (and/or
processes) are needed to take advantage of the extra CPUs."

Reproduced from the *same* merged interval data as Figure 8 — the
multiple-views-from-one-file property — with the idleness and migration
observations checked numerically.
"""

from __future__ import annotations

from collections import defaultdict

from benchmarks.conftest import report
from repro.core.threadtable import THREAD_TYPE_MPI
from repro.core.atomicio import atomic_write_text
from repro.viz.jumpshot import Jumpshot


def test_figure9_processor_activity(benchmark, sppm_pipeline):
    viewer = Jumpshot(sppm_pipeline["merge"].slog_path)
    records = [r for r in viewer.slog.records() if r.duration > 0]
    view = viewer.build_view(viewer.batch(viewer.slog.frames), "processor")

    def render():
        return atomic_write_text(
            sppm_pipeline["out"] / "figure9.svg", viewer.view_svg_window(None, None, kind="processor")
        )

    svg_path = benchmark(render)

    # Eight timelines per node (idle ones included).
    rows_per_node = defaultdict(int)
    for row in view.rows:
        rows_per_node[row.row_key[0]] += 1
    assert all(n == 8 for n in rows_per_node.values()), rows_per_node

    # CPUs are mostly idle: total busy time is a small fraction of
    # (cpus x wall time).
    wall = viewer.slog.time_range[1] - viewer.slog.time_range[0]
    busy_by_cpu = defaultdict(int)
    for r in records:
        busy_by_cpu[(r.node, r.cpu)] += r.duration
    total_capacity = sum(viewer.slog.node_cpus.values()) * wall
    utilization = sum(busy_by_cpu.values()) / total_capacity
    assert utilization < 0.5, f"CPUs not 'mostly idle': {utilization:.2f}"

    # MPI threads jump between CPUs on the same node.
    mpi_keys = {
        (e.node, e.logical_tid)
        for e in viewer.slog.thread_table.of_type(THREAD_TYPE_MPI)
    }
    cpus_of = defaultdict(set)
    for r in records:
        if (r.node, r.thread) in mpi_keys:
            cpus_of[(r.node, r.thread)].add(r.cpu)
    migrated = {k: sorted(v) for k, v in cpus_of.items() if len(v) > 1}
    assert len(migrated) >= 2, "MPI threads did not migrate"

    ever_busy = defaultdict(set)
    for node, cpu in busy_by_cpu:
        ever_busy[node].add(cpu)
    report(
        "", "FIGURE 9 — processor-activity view of the same sPPM run",
        "paper: up to 8 timelines/node; CPUs mostly idle; MPI threads of",
        "processes 0 and 1 jump between CPUs on the same node",
        f"  view -> {svg_path}",
        f"  aggregate CPU utilization: {utilization * 100:.1f}% (mostly idle)",
        f"  busy CPUs per node: "
        f"{ {n: f'{len(c)}/8' for n, c in sorted(ever_busy.items())} }",
        f"  MPI threads that migrated: "
        f"{ {k: v for k, v in sorted(migrated.items())} }",
    )
