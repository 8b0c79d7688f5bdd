"""``explore_wide`` — Fig. 7's claim, one analyst, in process.

Set-up writes a wide bigtrace (4 nodes x 32 threads, 44 frames against the
16-frame LRU) and its sidecar.  The measured phase opens it cold in fresh
processes, then runs a seeded closed loop of window queries, full-scan
group-bys, whole-run views (aggregate path), 0.2 %-window views at random
centres (exact path, cache-missing) and at a few revisited centres
(cache-hitting), and one statistics pass.  Index load, planner, byte fetch,
columnar decode, engine, utilization, views and SVG do all the work; the
write path none.  Wide lanes make the sidecar, not the trace, the dominant
bytes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.query import (
    Aggregate, ExecStats, Query, ThreadSel, TraceHandle, build_index, columnar,
    execute, index_path_for, open_trace, plan_query, planned_batch_records,
    write_index,
)
from repro.utils.stats import generate_tables
from repro.viz import jumpshot as jumpshot_module
from repro.viz.jumpshot import Jumpshot
from repro.workloads import write_big_slog

from benchmarks.e2e.breakdown import SpanTable, rows_from_tracer
from benchmarks.e2e.common import (
    Ctx, Outcome, Replays, median, peak_rss_mb, percentile, replay_until, timed,
)
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.spec import HERE, ROOT

NAME = "explore_wide"

LAYER_METRICS = (
    "open_cold_s", "query_window_p50_ms", "query_scan_p50_ms",
    "view_whole_p50_ms", "view_zoom_p50_ms",
    "python.import_ms", "indexfile.load_ms",
    "planner.plan_us", "engine.frames_scanned_per_window_query",
    "engine.bytes_read_per_window_query",
    "bytesource.fetch_us_per_frame", "columnar.decode_us_per_record",
    "engine.reduce_us_per_record",
    "utilization.query_ms", "views.build_aggregate_ms", "svg.render_whole_ms",
    "svg.bytes_whole",
    "views.build_exact_ms", "svg.render_zoom_ms", "slog.cache_hit_ratio",
    "slog.evictions", "view_zoom_hot_p50_ms", "view_zoom_p95_ms",
    "stats.table_us_per_record", "explore.peak_rss_mb",
)

#: The one statistics pass of the loop (``ute-stats``' table language).
STATS_PROGRAM = """
table name=busy_by_node_type
      x=("node", node)
      x=("type", type)
      y=("count", dura, count)
      y=("sum(duration)", dura, sum)
"""

SCAN = Query(
    group_by=("node", "type"), aggregates=(Aggregate("sum", "dura", "sum(dura)"),)
)


def setup(ctx: Ctx, out: Path) -> dict:
    sizes = ctx.sizes
    big = write_big_slog(
        out / "wide.slog",
        n_nodes=sizes["n_nodes"], threads_per_node=sizes["threads_per_node"],
        n_records=sizes["n_records"], frame_bytes=sizes["frame_bytes"],
        seed=ctx.seed,
    )
    with open_trace(big.path) as handle:
        index = build_index(handle)
    sidecar = write_index(index, index_path_for(big.path))
    return {"path": big.path, "sidecar": sidecar, "index": index}


def teardown(state: dict) -> None:
    return None


def _window(rng: random.Random, index, share: float) -> tuple[int, int]:
    """A window ``share`` of the run wide at a uniformly random centre."""
    half = (index.t_max - index.t_min) * share / 2
    centre = rng.uniform(index.t_min + half, index.t_max - half)
    return int(centre - half), int(centre + half)


def _one_block(ctx: Ctx, index, hot: list[tuple[int, int]]) -> list[tuple[str, tuple]]:
    """One block of the loop: always the same mix of ops, shuffled by the
    seed, so blocks are exchangeable."""
    sizes, rng = ctx.sizes, ctx.rng
    ops: list[tuple[str, tuple]] = []
    for _ in range(sizes["ops"]["query_window"]):
        ops.append(("query_window", (
            *_window(rng, index, 0.01),
            rng.randrange(sizes["n_nodes"]), rng.randrange(sizes["threads_per_node"]),
        )))
    ops += [("query_scan", ())] * sizes["ops"]["query_scan"]
    for i in range(sizes["ops"]["view_whole"]):
        ops.append(("view_whole", (("thread", "processor")[i % 2],)))
    for _ in range(sizes["ops"]["view_zoom"]):
        ops.append(("view_zoom", _window(rng, index, 0.002)))
    for _ in range(sizes["ops"]["view_zoom_hot"]):
        ops.append(("view_zoom_hot", rng.choice(hot)))
    rng.shuffle(ops)
    return ops


class _Analyst:
    """The open viewer + query handle the loop's operations run against."""

    def __init__(self, state: dict, tracer) -> None:
        self.tracer = tracer
        self.index = state["index"]
        self.viewer = Jumpshot(state["path"])
        slog = self.viewer.slog
        # The query layer's view of the same file: shares the frame caches.
        self.handle = TraceHandle(state["path"], slog, "slog")
        self.tps = slog.ticks_per_sec
        tracer.wrap(slog, "read_frame_batch", "slog.read_frame_batch")
        tracer.wrap(slog, "read_frame", "slog.read_frame", items=len)
        tracer.wrap(slog.source, "view", "bytesource.view")
        tracer.wrap(slog.source, "fetch", "bytesource.fetch")
        tracer.wrap(columnar, "decode_frame_batch", "columnar.decode_frame_batch",
                    items=lambda batch: batch.n)
        tracer.wrap(jumpshot_module, "utilization_view", "views.utilization_view")
        tracer.wrap(jumpshot_module, "view_svg_string", "svg.view_svg_string", items=len)
        tracer.wrap(self.index.utilization, "query", "utilization.query")
        tracer.wrap(self.viewer, "build_view", "views.build_view")

    def close(self) -> None:
        self.tracer.unwrap()
        self.viewer.close()

    def window_query(self, t0: int, t1: int, node: int, thread: int, *, index):
        query = Query(t0=t0, t1=t1, threads=(ThreadSel(node, thread),))
        stats = ExecStats()
        with self.tracer.span("planner.plan_query"):
            plan = plan_query(query, self.handle.frames, index)
        with self.tracer.span("engine.execute"):
            rows = execute(self.handle, query, plan, stats=stats)
        return rows, stats

    def run(self, kind: str, params: tuple):
        with self.tracer.span(f"op.{kind}"):
            if kind == "query_window":
                return self.window_query(*params, index=self.index)
            if kind == "query_scan":
                with self.tracer.span("planner.plan_query"):
                    plan = plan_query(SCAN, self.handle.frames, self.index)
                with self.tracer.span("engine.execute"):
                    return execute(self.handle, SCAN, plan)
            if kind == "view_whole":
                return self.viewer.view_svg_window(
                    self.index.t_min / self.tps, self.index.t_max / self.tps,
                    kind=params[0], index=self.index,
                )
            if kind in ("view_zoom", "view_zoom_hot"):
                return self.viewer.view_svg_window(
                    params[0] / self.tps, params[1] / self.tps,
                    kind="thread", index=self.index,
                )
            with self.tracer.span("planner.plan_query"):
                plan = plan_query(Query(), self.handle.frames, self.index)
            with self.tracer.span("stats.generate_tables"):
                return generate_tables(
                    planned_batch_records(self.handle, Query(), plan),
                    STATS_PROGRAM, ticks_per_sec=self.tps,
                    thread_table=self.handle.thread_table,
                )


def _cold_open(ctx: Ctx, state: dict, tracer, outcome: Outcome) -> tuple[float, dict]:
    """Fresh process: import -> open_trace -> load_fresh_index -> first
    window query answered.  Timed from the parent, split by the child."""
    index = state["index"]
    t0, t1 = _window(ctx.rng, index, 0.01)
    argv = [
        sys.executable, str(HERE / "cold_open.py"), str(ROOT / "src"),
        str(state["path"]), str(t0), str(t1),
        str(ctx.rng.randrange(ctx.sizes["n_nodes"])),
        str(ctx.rng.randrange(ctx.sizes["threads_per_node"])),
    ]
    outcome.attempted += 1
    with tracer.span("op.open_cold") as span:
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
    if proc.returncode != 0:
        outcome.fail(f"cold open exited {proc.returncode}: {proc.stderr[-200:]}")
        return wall, {}
    report = json.loads(proc.stdout.splitlines()[-1])
    if report["mode"] != "indexed":
        outcome.fail(f"cold open planned {report['mode']}")
    if tracer.enabled:
        # The child's clock is its own: lay its phases out back from the
        # parent span's end; what is left in front is interpreter start-up.
        cursor = span.end - sum(
            report[f"{p}_s"] for p in ("import", "open", "load", "query")
        )
        for phase, name in (
            ("import", "python.import"), ("open", "trace.open_trace"),
            ("load", "indexfile.load_fresh_index"), ("query", "engine.first_query"),
        ):
            tracer.add(name, cursor, cursor + report[f"{phase}_s"], span)
            cursor += report[f"{phase}_s"]
    return wall, report


def measure(ctx: Ctx, state: dict, tracer, out: Path, seconds: float) -> Outcome:
    outcome = Outcome()
    sizes = ctx.sizes
    index = state["index"]

    # The analyst's session: a fixed, seeded list of operations — whole
    # blocks of the mix, then one statistics pass — replayed until the time
    # is up.  A full scan empties the 16-frame LRU several times per replay,
    # so a replay finds the caches as the one before left them and every
    # replay of an operation does the same work.
    hot = [_window(ctx.rng, index, 0.002) for _ in range(sizes["hot_centres"])]
    ops = [
        op for _ in range(sizes["blocks_per_replay"]) for op in _one_block(ctx, index, hot)
    ] + [("stats", ())]
    analyst = _Analyst(state, tracer)
    replays = Replays()
    scanned: list[int] = []
    fetched: list[int] = []
    svg_bytes: list[int] = []

    def run_op(i: int, kind: str, params: tuple, first: bool) -> None:
        io_before = analyst.handle.stats()["bytes_fetched"] if kind == "query_window" else 0
        result, elapsed = timed(lambda: analyst.run(kind, params))
        outcome.attempted += 1
        if not first:
            replays.add((i, kind), elapsed)
        # Correctness, outside the timed section; the expensive comparison
        # with an unindexed scan only in the discarded first replay.
        if kind == "query_window":
            rows, stats = result
            if first:
                scanned.append(stats.frames_scanned)
                fetched.append(analyst.handle.stats()["bytes_fetched"] - io_before)
                if len(scanned) <= sizes["parity_samples"]:
                    full, _ = analyst.window_query(*params, index=None)
                    if rows != full:
                        outcome.fail(f"window query {params} differs from full scan")
        elif kind.startswith("view_"):
            aggregate = kind == "view_whole"
            if analyst.viewer.last_view_aggregate != aggregate or not result.startswith("<svg"):
                outcome.fail(f"{kind} {params}: wrong path or not an SVG")
            if aggregate and first:
                svg_bytes.append(len(result))
        elif not result:
            outcome.fail(f"{kind} returned nothing")

    cold = []
    try:
        for n in replay_until(seconds):
            if n == 1:
                # Replay 0 was the warm-up: its spans and counts are dropped.
                tracer.spans.clear()
                before = analyst.handle.stats()
            for i, (kind, params) in enumerate(ops):
                run_op(i, kind, params, first=n == 0)
        after = analyst.handle.stats()
        # Cold opens cost seconds each, too few fit a run for a steady
        # end-to-end number: they are per-layer only, so a traced run pays.
        if tracer.enabled:
            _cold_open(ctx, state, Tracer(NAME, False), Outcome())  # warm-up
            cold = [
                _cold_open(ctx, state, tracer, outcome)
                for _ in range(sizes["cold_opens"])
            ]
            _probe_warm_scan(state, tracer)
    finally:
        analyst.close()

    def floors_ms(kind: str) -> list[float]:
        return [x * 1e3 for x in replays.floors(lambda key: key[1] == kind)]

    outcome.samples = {
        "replays": len(next(iter(replays.samples.values()))), "cold_opens": len(cold),
        **{kind: len(floors_ms(kind)) for kind in (*sizes["ops"], "stats")},
    }
    outcome.values = {
        # Operations per second of the session, every operation at its floor
        # over the replays, and the median random-centre zoom view likewise.
        "throughput_per_s": len(ops) / sum(replays.floors()),
        "latency_p50_ms": median(floors_ms("view_zoom")),
        "index_bytes_per_trace_byte": (
            state["sidecar"].stat().st_size / state["path"].stat().st_size
        ),
        "query_window_p50_ms": median(floors_ms("query_window")),
        "query_scan_p50_ms": median(floors_ms("query_scan")),
        "view_whole_p50_ms": median(floors_ms("view_whole")),
        "view_zoom_p50_ms": median(floors_ms("view_zoom")),
    }
    if tracer.enabled:
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        n_records = sum(f.n_records for f in analyst.handle.frames)
        outcome.values.update(_layer_metrics(tracer))
        outcome.values.update({
            "open_cold_s": median(wall for wall, _ in cold),
            "python.import_ms": median(r["import_s"] for _, r in cold if r) * 1e3,
            "indexfile.load_ms": median(r["load_s"] for _, r in cold if r) * 1e3,
            "engine.frames_scanned_per_window_query": sum(scanned) / len(scanned),
            "engine.bytes_read_per_window_query": sum(fetched) / len(fetched),
            "svg.bytes_whole": median(svg_bytes),
            "slog.cache_hit_ratio": (after["hits"] - before["hits"]) / lookups,
            "slog.evictions": after["evictions"] - before["evictions"],
            "view_zoom_hot_p50_ms": median(floors_ms("view_zoom_hot")),
            "view_zoom_p95_ms": percentile(floors_ms("view_zoom"), 0.95),
            "stats.table_us_per_record": median(floors_ms("stats")) / n_records * 1e3,
            "explore.peak_rss_mb": peak_rss_mb(),
        })
    outcome.values["peak_rss_mb"] = peak_rss_mb()
    return outcome


def _probe_warm_scan(state: dict, tracer) -> None:
    """The engine's reduce cost alone: the full scan again over a handle
    whose cache holds every frame, so the second run decodes nothing."""
    with open_trace(state["path"], cache_frames=1 << 16) as handle:
        plan = plan_query(SCAN, handle.frames, state["index"])
        execute(handle, SCAN, plan)
        n_records = sum(f.n_records for f in handle.frames)
        with tracer.span("op.probe_warm_scan"):
            with tracer.span("engine.execute_warm", items=n_records):
                execute(handle, SCAN, plan)


def _layer_metrics(tracer) -> dict[str, float]:
    table = SpanTable(rows_from_tracer(tracer))

    def med_ms(name: str, root: str, *, self_time: bool = False) -> float:
        rows = table.within(name, root)
        return median(table.self_of(r) if self_time else r.seconds for r in rows) * 1e3

    fetches = table.select("bytesource.view") + table.select("bytesource.fetch")
    decodes = table.select("columnar.decode_frame_batch")
    warm = table.select("engine.execute_warm")
    return {
        "planner.plan_us": med_ms("planner.plan_query", "op.query_window") * 1e3,
        "bytesource.fetch_us_per_frame": table.self_total(fetches) / len(fetches) * 1e6,
        "columnar.decode_us_per_record": (
            table.self_total(decodes) / table.items(decodes) * 1e6
        ),
        "engine.reduce_us_per_record": (
            sum(r.seconds for r in warm) / table.items(warm) * 1e6
        ),
        "utilization.query_ms": med_ms("utilization.query", "op.view_whole"),
        "views.build_aggregate_ms": med_ms(
            "views.utilization_view", "op.view_whole", self_time=True
        ),
        "svg.render_whole_ms": med_ms("svg.view_svg_string", "op.view_whole"),
        "views.build_exact_ms": med_ms("views.build_view", "op.view_zoom", self_time=True),
        "svg.render_zoom_ms": med_ms("svg.view_svg_string", "op.view_zoom"),
    }
