"""Figure 8: the thread-activity view of the sPPM benchmark.

The paper's Figure 8 shows sPPM on 4 nodes of 8-way SMPs, four threads per
MPI process with one making MPI calls.  "One can see system activity on the
non-MPI threads, and observe that one thread is idle during this part of
the computation."

Reproduced: the same view over our sPPM-shaped run, with the figure's three
observations checked from the view model itself.
"""

from __future__ import annotations

from benchmarks.conftest import report
from repro.core.records import IntervalType
from repro.core.threadtable import THREAD_TYPE_MPI, THREAD_TYPE_SYSTEM, THREAD_TYPE_USER
from repro.core.atomicio import atomic_write_text
from repro.viz.jumpshot import Jumpshot


def test_figure8_thread_activity(benchmark, sppm_pipeline):
    viewer = Jumpshot(sppm_pipeline["merge"].slog_path)
    records = viewer.slog.records()
    view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")

    def render():
        return atomic_write_text(
            sppm_pipeline["out"] / "figure8.svg", viewer.view_svg_window(None, None, kind="thread")
        )

    svg_path = benchmark(render)
    table = viewer.slog.thread_table

    # Observation 1: the configuration — 4 nodes, one MPI thread per node
    # making MPI calls, multiple threads per process.
    mpi_threads = table.of_type(THREAD_TYPE_MPI)
    assert len(mpi_threads) == 4
    assert len({e.node for e in mpi_threads}) == 4
    per_node_threads = {}
    for entry in table:
        per_node_threads.setdefault(entry.node, []).append(entry)
    assert all(len(ts) >= 4 for ts in per_node_threads.values())

    # Observation 2: system activity on non-MPI threads (the kprocs run).
    busy_time = {}
    for r in records:
        if r.duration > 0:
            busy_time[(r.node, r.thread)] = busy_time.get((r.node, r.thread), 0) + r.duration
    system_busy = [
        busy_time.get((e.node, e.logical_tid), 0)
        for e in table.of_type(THREAD_TYPE_SYSTEM)
    ]
    assert system_busy and all(t > 0 for t in system_busy)

    # Observation 3: one user thread per process is idle.
    idle_users = [
        e for e in table.of_type(THREAD_TYPE_USER)
        if busy_time.get((e.node, e.logical_tid), 0) == 0
    ]
    assert len(idle_users) == 4  # one per node
    # And the view still shows their (empty) timelines.
    view_rows = {row.row_key for row in view.rows}
    for entry in idle_users:
        assert (entry.node, entry.logical_tid) in view_rows

    # MPI calls appear only on MPI threads.
    mpi_keys = {(e.node, e.logical_tid) for e in mpi_threads}
    for r in records:
        if IntervalType.is_mpi(r.itype):
            assert (r.node, r.thread) in mpi_keys

    report(
        "", "FIGURE 8 — thread-activity view of sPPM (4 nodes x 8-way SMP)",
        "paper: system activity on non-MPI threads; one thread idle",
        f"  view -> {svg_path}",
        f"  threads: {len(table)} total, {len(mpi_threads)} MPI, "
        f"{len(table.of_type(THREAD_TYPE_USER))} user, "
        f"{len(table.of_type(THREAD_TYPE_SYSTEM))} system",
        f"  idle user threads (one per process): {len(idle_users)}",
        f"  system-thread busy time per thread (ms): "
        f"{[round(t / 1e6, 2) for t in system_busy[:4]]}...",
    )
