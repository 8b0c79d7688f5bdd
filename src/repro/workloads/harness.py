"""Common run harness: build a cluster, trace a workload, collect files.

Encapsulates the left half of the paper's Figure 2 — "a user program is
linked with the tracing library so that its execution creates multiple raw
trace files, one on each node".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.cluster import Cluster, ClusterSpec
from repro.mpi import MpiRuntime, MpiTiming, TaskContext
from repro.tracing import TraceFacility, TraceOptions


@dataclass
class TracedRun:
    """Everything a traced execution produced."""

    raw_paths: list[Path]
    cluster: Cluster
    runtime: MpiRuntime
    facility: TraceFacility
    elapsed_ns: int


def live_replay_run(
    run: TracedRun,
    out_path: str | Path,
    *,
    duration_s: float = 2.0,
    publish_interval_s: float = 0.1,
    frame_bytes: int = 8 * 1024,
    flavor: str = "slog",
) -> Path:
    """Replay a traced run through the live pipeline (``ute-trace
    --live``): convert the raw files, merge them, then feed the merged
    record stream through a live writer paced over ``duration_s`` seconds
    of wall clock — one published epoch per ``publish_interval_s``.
    Returns the finished trace's path (``out_path``); while the replay
    runs, followers tail ``out_path``'s live container."""
    from repro.live import replay_live
    from repro.utils.convert import convert_traces
    from repro.utils.merge import merge_interval_files

    out_path = Path(out_path)
    work = out_path.parent / (out_path.name + ".work")
    work.mkdir(parents=True, exist_ok=True)
    from repro.core.profilefmt import Profile

    converted = convert_traces(run.raw_paths, work)
    profile = Profile.read(converted.profile_path)
    merged = merge_interval_files(converted.interval_paths, work / "merged.ute", profile)
    return replay_live(
        merged.merged_path,
        out_path,
        profile=profile,
        duration_s=duration_s,
        publish_interval_s=publish_interval_s,
        frame_bytes=frame_bytes,
        flavor=flavor,
    )


def run_traced_workload(
    body: Callable[[TaskContext], object],
    out_dir: str | Path,
    *,
    n_tasks: int,
    spec: ClusterSpec | None = None,
    tasks_per_node: int | None = None,
    options: TraceOptions | None = None,
    timing: MpiTiming | None = None,
) -> TracedRun:
    """Run ``body`` on ``n_tasks`` MPI tasks with tracing; returns the raw
    trace files (one per node) and the run context."""
    cluster = Cluster(spec or ClusterSpec())
    facility = TraceFacility(cluster, out_dir, options or TraceOptions())
    runtime = MpiRuntime(cluster, facility, timing)
    runtime.launch(n_tasks, body, tasks_per_node=tasks_per_node)
    runtime.run()
    paths = facility.close()
    return TracedRun(
        raw_paths=paths,
        cluster=cluster,
        runtime=runtime,
        facility=facility,
        elapsed_ns=cluster.engine.now,
    )
