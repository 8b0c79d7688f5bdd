"""``live_tail`` — writes beside reads.

A ``LiveSlogWriter`` is fed a 32-lane seeded stream (records pre-built in
set-up).  Phase A: write, ``publish(seal=True)`` every ``epoch_a`` records,
nobody reading.  Phase B: a ``FollowReader`` attaches, and after each
``epoch_b``-record epoch is published it polls the container and runs a
windowed query over what it now holds.  Then ``close()`` assembles the final
``.slog`` and sidecar.  Writer and follower take turns on one thread (no
pacing sleeps, no polling loop, no second thread contending for the
interpreter), and a run replays this whole lifecycle over the same records
until its time is up.

This is SLOG framing and the index/utilization layer used *incrementally*
(``_IncrementalIndex.snapshot`` per epoch) instead of in batch: a
``build_index`` gain bought at the snapshot's expense shows here, and the
other way round.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.difftool.differ import DiffConfig, diff_traces
from repro.live import FollowReader, LiveSlogWriter
from repro.live.container import index_path
from repro.query import Query, TraceHandle, execute, index_path_for, plan_query
from repro.utils.slog import SlogFile, SlogWriter
from repro.workloads import write_big_slog

from benchmarks.e2e.breakdown import SpanTable, rows_from_tracer
from benchmarks.e2e.common import (
    Ctx, Outcome, median, peak_rss_mb, percentile, replay_until,
)
from benchmarks.e2e.spans import Tracer

NAME = "live_tail"

LAYER_METRICS = (
    "live_ingest_records_per_s", "live_publish_to_event_p50_ms",
    "live_finalize_s",
    "live.write_us_per_record", "live.publish_p50_ms", "live.publish_p95_ms",
    "live.publish_growth", "live.epoch_index_bytes_p50",
    "live.follower_refresh_ms", "live.follower_query_ms",
    "live.assemble_s", "live.peak_rss_mb",
)


def setup(ctx: Ctx, out: Path) -> dict:
    """Pre-build the record stream: a bigtrace written in batch, read back
    as records (its own pseudo-records dropped)."""
    sizes = ctx.sizes
    big = write_big_slog(
        out / "stream.slog",
        n_nodes=sizes["n_nodes"], threads_per_node=sizes["threads_per_node"],
        n_records=(sizes["epochs_a"] * sizes["epoch_a"]
                   + sizes["epochs_b"] * sizes["epoch_b"]),
        seed=ctx.seed,
    )
    records = []
    with SlogFile(big.path) as slog:
        for frame in slog.frames:
            records.extend(slog.read_frame(frame)[frame.n_pseudo:])
        return {
            "records": records,
            "profile": slog.profile,
            "thread_table": slog.thread_table,
            "tables": {
                "markers": slog.markers, "node_cpus": slog.node_cpus,
                "field_mask": slog.field_mask,
            },
        }


def teardown(state: dict) -> None:
    return None


def _follower_query(follower: FollowReader, path: Path, tracer) -> None:
    """What the follower does with every event: a windowed query over the
    newest tenth of the trace."""
    with tracer.span("live.follower_query"):
        handle = TraceHandle(path, follower.reader, "slog")
        t_end = max(f.end_time for f in handle.frames)
        query = Query(t0=t_end - t_end // 10)
        plan = plan_query(query, handle.frames, None, index_reason="live")
        execute(handle, query, plan)


@dataclass
class _Lifecycle:
    """What one writer lifecycle measured, epoch by epoch (phase A's epochs,
    then phase B's)."""

    write_s: list[float] = field(default_factory=list)
    publish_s: list[float] = field(default_factory=list)
    #: Phase B only: publish returned -> the follower holds the records,
    #: and the follower's query after that.
    notify_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    finalize_s: float = 0.0
    index_bytes: list[int] = field(default_factory=list)
    index_ratio: float = 0.0


def _lifecycle(ctx: Ctx, state: dict, tracer, out: Path, outcome: Outcome) -> _Lifecycle:
    """One writer, one follower, one thread: the follower polls right after
    each publish returns, so the time from an epoch's first write to the
    follower holding its records is write + publish + poll with no sleeping
    poll loop and no second thread contending for the interpreter in it."""
    sizes = ctx.sizes
    clock = time.perf_counter
    result = _Lifecycle()
    path = out / "live.slog"
    stream = iter(state["records"])
    writer = LiveSlogWriter(
        path, state["profile"], state["thread_table"],
        frame_bytes=sizes["frame_bytes"], **state["tables"],
    )
    tracer.wrap(writer, "publish", "live.publish")
    published: list[int] = []
    written = 0

    def one_epoch(n: int) -> None:
        nonlocal written
        gc.collect()
        start = clock()
        with tracer.span("live.write_batch", items=n):
            for _ in range(n):
                writer.write(next(stream))
        written += n
        mid = clock()
        published.append(writer.publish(seal=True))
        result.write_s.append(mid - start)
        result.publish_s.append(clock() - mid)
        result.index_bytes.append(index_path(writer.live_dir).stat().st_size)

    #: (kind, seq, non-pseudo records) of every follower event.
    events: list[tuple[str, int, int]] = []

    def poll(follower: FollowReader, **args) -> None:
        with tracer.span("live.follower_refresh", **args):
            event = follower.poll()
        if event is None:
            outcome.fail(f"follower saw nothing after epoch {published[-1]}")
            return
        events.append((event.kind, event.seq, len(event.records) - event.n_pseudo))

    follower = None
    try:
        # Phase A: unpaced ingest, nobody reading.
        with tracer.span("op.ingest_unpaced"):
            for _ in range(sizes["epochs_a"]):
                one_epoch(sizes["epoch_a"])
        # Phase B: the follower attaches, drains phase A's backlog (one
        # event, not a latency sample), then reads every epoch as it lands.
        with tracer.span("op.ingest_followed"):
            follower = FollowReader(path)
            poll(follower, backlog=True)
            for _ in range(sizes["epochs_b"]):
                one_epoch(sizes["epoch_b"])
                start = clock()
                poll(follower, backlog=False)
                mid = clock()
                _follower_query(follower, path, tracer)
                result.notify_s.append(mid - start)
                result.query_s.append(clock() - mid)
        with tracer.span("op.finalize"):
            start = clock()
            with tracer.span("live.close"):
                writer.close()
            result.finalize_s = clock() - start
            for _ in range(3):  # at most: the closing epoch, then "final"
                if events and events[-1][0] == "final":
                    break
                poll(follower)
    except BaseException:
        writer.abort()
        raise
    finally:
        tracer.unwrap()
        if follower is not None:
            follower.close()

    # Correctness, outside the timed sections: every epoch of phase B seen
    # exactly once and in order, the stream ends on "final", every record
    # arrived, and the finished file equals a batch writer's.
    outcome.attempted += len(published) + 2
    seen = [seq for kind, seq, _ in events[1:] if kind == "epoch"]
    for seq in published[sizes["epochs_a"]:]:
        if seen.count(seq) != 1:
            outcome.fail(f"epoch {seq} delivered {seen.count(seq)} times")
    if seen != sorted(seen) or not events or events[-1][0] != "final":
        outcome.fail("follower events out of order or not ending on final")
    if sum(n for *_, n in events) != written:
        outcome.fail(f"follower saw {sum(n for *_, n in events)} of {written} records")
    reference = out / "batch.slog"
    with SlogWriter(
        reference, state["profile"], state["thread_table"],
        frame_bytes=sizes["frame_bytes"],
        time_range=(0, state["records"][written - 1].end + 1), **state["tables"],
    ) as batch:
        for record in state["records"][:written]:
            batch.write(record)
    if not diff_traces(path, reference, DiffConfig(ignore_pseudo=True)).identical:
        outcome.fail("finished file differs from a batch SlogWriter of the same records")
    result.index_ratio = index_path_for(path).stat().st_size / path.stat().st_size
    return result


def measure(ctx: Ctx, state: dict, tracer, out: Path, seconds: float) -> Outcome:
    outcome = Outcome()
    sizes = ctx.sizes
    # Every lifecycle streams the same records, so the k-th epochs of the
    # lifecycles are replays of one piece of work.  Lifecycle 0 warms up.
    runs: list[_Lifecycle] = []
    for n in replay_until(seconds):
        (out / f"life-{n}").mkdir()
        run = _lifecycle(ctx, state, tracer if n else Tracer(NAME, False),
                         out / f"life-{n}", outcome)
        if n:
            runs.append(run)
        shutil.rmtree(out / f"life-{n}")

    def floors(attr: str) -> list[float]:
        """Per epoch, the lowest reading over the lifecycles."""
        return [min(xs) for xs in zip(*(getattr(r, attr) for r in runs))]

    first_b = sizes["epochs_a"]
    written = sizes["epochs_a"] * sizes["epoch_a"] + sizes["epochs_b"] * sizes["epoch_b"]
    write, publish, notify = floors("write_s"), floors("publish_s"), floors("notify_s")
    outcome.samples = {"lifecycles": len(runs), "epochs": len(write), "epochs_b": len(notify)}
    outcome.values = {
        # Records per second the writer spent writing and publishing, both
        # phases, and the time from a followed epoch's first write to the
        # follower holding its records, median over those epochs; every
        # piece at its floor over the lifecycles.
        "throughput_per_s": written / (sum(write) + sum(publish)),
        "latency_p50_ms": median(
            w + p + n for w, p, n in zip(write[first_b:], publish[first_b:], notify)
        ) * 1e3,
        "index_bytes_per_trace_byte": runs[-1].index_ratio,
        "live_ingest_records_per_s": median(
            sizes["epochs_a"] * sizes["epoch_a"]
            / (sum(r.write_s[:first_b]) + sum(r.publish_s[:first_b])) for r in runs
        ),
        "live_publish_to_event_p50_ms": median(notify) * 1e3,
        "live_finalize_s": min(r.finalize_s for r in runs),
    }
    if tracer.enabled:
        table = SpanTable(rows_from_tracer(tracer))
        batches = table.select("live.write_batch")
        publish_s = [s for r in runs for s in r.publish_s]
        final_publish = table.within("live.publish", "op.finalize")
        outcome.values.update({
            "live.write_us_per_record": (
                sum(r.seconds for r in batches) / table.items(batches) * 1e6
            ),
            "live.publish_p50_ms": median(publish_s) * 1e3,
            "live.publish_p95_ms": percentile(publish_s, 0.95) * 1e3,
            # Last publish over first, per lifecycle: above 1 means an
            # epoch costs more the longer the trace already is.
            "live.publish_growth": publish[-1] / publish[0],
            "live.epoch_index_bytes_p50": median(b for r in runs for b in r.index_bytes),
            "live.follower_refresh_ms": median(notify) * 1e3,
            "live.follower_query_ms": median(floors("query_s")) * 1e3,
            "live.assemble_s": min(r.finalize_s for r in runs) - min(
                r.seconds for r in final_publish
            ),
            "live.peak_rss_mb": peak_rss_mb(),
        })
    outcome.values["peak_rss_mb"] = peak_rss_mb()
    return outcome
