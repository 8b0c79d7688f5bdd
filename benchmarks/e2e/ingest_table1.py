"""``ingest_table1`` — the paper's Table 1 axis.

The Table 1 program (4 tasks x 4 threads) is traced at two problem sizes in
set-up; the measured phase runs the whole write path on each — ``convert``
-> ``slogmerge`` -> index build + write — several times per rung, closed
loop, one at a time.  Convert, clocksync, merge, the SLOG/interval writers
and the index build do all the work; query, viz and serve do none, so a
read-path change must not move this workload.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

from repro.cluster import Cluster, ClusterSpec
from repro.core import standard_profile
from repro.core.reader import IntervalReader
from repro.core.writer import IntervalFileWriter
from repro.query import (
    UtilizationBuilder, build_index, index_path_for, open_trace, write_index,
)
from repro.query.indexfile import hash_file
from repro.tracing import TraceFacility, TraceOptions
from repro.tracing.hooks import HookId
from repro.tracing.rawfile import RawTraceReader
from repro.utils import merge as merge_module
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.slog import slog_from_interval_file
from repro.utils.validate import validate_files
from repro.workloads import run_synthetic
from repro.workloads.synthetic import SyntheticConfig

from benchmarks.e2e.breakdown import SpanTable, rows_from_tracer
from benchmarks.e2e.common import (
    Ctx, Outcome, Replays, median, peak_rss_mb, replay_until,
)
from benchmarks.e2e.spans import Tracer

NAME = "ingest_table1"
PROFILE = standard_profile()
RUNGS = ("small", "large")

LAYER_METRICS = (
    "ingest_us_per_event",
    "tracing.cut_us", "tracing.filtered_us", "workloads.generate_us_per_event",
    "convert.us_per_event", "convert.us_per_event_small", "convert.flatness",
    "convert.bytes_out_per_event", "clocksync.fit_ms",
    "merge.us_per_event", "merge.us_per_event_small", "merge.flatness",
    "slog.write_us_per_record", "core.reader.decode_us_per_record",
    "core.writer.write_us_per_record", "indexfile.build_us_per_record",
    "utilization.build_us_per_record", "indexfile.write_ms",
    "indexfile.sidecar_bytes", "ingest.peak_rss_mb",
)


def setup(ctx: Ctx, out: Path) -> dict:
    """Trace the Table 1 program at both rungs; message size and compute
    time are jittered from the seed (the event count is not).  The jitter
    is small on purpose: the run's time span decides how many utilization
    bins the sidecar fills, so a wide one would move the index metrics."""
    msg_bytes = 1024 + ctx.rng.randrange(-64, 65)
    compute_ns = 50_000 + ctx.rng.randrange(-500, 501)
    state: dict = {"rungs": {}}
    for rung in RUNGS:
        config = SyntheticConfig(
            rounds=ctx.sizes[f"rounds_{rung}"],
            msg_bytes=msg_bytes, compute_ns=compute_ns,
        )
        start = time.perf_counter()
        run = run_synthetic(out / f"raw-{rung}", config)
        gen_s = time.perf_counter() - start
        events = 0
        for path in run.raw_paths:
            with RawTraceReader(path) as reader:
                events += len(reader)
        state["rungs"][rung] = {
            "raw": run.raw_paths, "events": events, "gen_s": gen_s,
        }
    return state


def teardown(state: dict) -> None:
    return None


#: The pipeline's stages, timed back to back: their sum is the operation.
STAGES = ("convert", "slogmerge", "build_index", "write_index")


def _pipeline(rung: str, raw_paths, out: Path, tracer) -> tuple[dict, list[float]]:
    """One operation: raw traces -> indexed, viewable SLOG.  Returns what it
    made and the ``perf_counter`` readings at the stage boundaries."""
    clock = time.perf_counter
    with tracer.span("op.ingest", rung=rung):
        marks = [clock()]
        with tracer.span("convert.convert_traces", rung=rung):
            conv = convert_traces(raw_paths, out / "ivl")
        marks.append(clock())
        with tracer.span("merge.slogmerge", rung=rung):
            merged = merge_interval_files(
                conv.interval_paths, out / "merged.ute", PROFILE,
                slog_path=out / "run.slog",
            )
        marks.append(clock())
        with open_trace(merged.slog_path) as handle:
            with tracer.span("indexfile.build_index", rung=rung,
                             items=sum(f.n_records for f in handle.frames)):
                index = build_index(handle)
        sidecar = index_path_for(merged.slog_path)
        marks.append(clock())
        with tracer.span("indexfile.write_index", rung=rung):
            write_index(index, sidecar)
        marks.append(clock())
    return {"conv": conv, "merged": merged, "sidecar": sidecar}, marks


def _artifacts(made: dict) -> list[Path]:
    return [
        *made["conv"].interval_paths, made["merged"].merged_path,
        made["merged"].slog_path, made["sidecar"],
    ]


def measure(ctx: Ctx, state: dict, tracer, out: Path, seconds: float) -> Outcome:
    outcome = Outcome()
    replays = Replays()
    walls: dict[str, list[float]] = {rung: [] for rung in RUNGS}
    digests: dict[str, dict[str, bytes]] = {}
    last: dict[str, dict] = {}
    try:
        # One replay runs both rungs, so machine drift lands on both alike.
        # Replay 0 is the warm-up (first use pays imports and fresh memory):
        # checked like the others, its times discarded.
        for n in replay_until(seconds):
            if n == 1:
                tracer.wrap(merge_module, "collect_clock_pairs",
                            "clocksync.collect_clock_pairs")
                tracer.wrap(merge_module, "adjustment_from_pairs",
                            "clocksync.adjustment_from_pairs")
            for rung in RUNGS:
                rep_dir = out / f"{rung}-{n}"
                info = state["rungs"][rung]
                gc.collect()
                made, marks = _pipeline(
                    rung, info["raw"], rep_dir, tracer if n else Tracer(NAME, False)
                )
                if n:
                    walls[rung].append(marks[-1] - marks[0])
                    for stage, start, end in zip(STAGES, marks, marks[1:]):
                        replays.add((rung, stage), end - start)
                # Correctness, outside the timed section: the first repeat of
                # a rung validates clean, every later one hashes identical.
                outcome.attempted += 1
                digest = {p.name: hash_file(p) for p in _artifacts(made)}
                if rung not in digests:
                    digests[rung] = digest
                    reports = validate_files(
                        [*made["conv"].interval_paths, made["merged"].merged_path], PROFILE
                    )
                    bad = [r.summary() for r in reports if not r.ok]
                    if bad or made["conv"].events_processed != info["events"]:
                        outcome.fail(f"{rung}: validate {bad}")
                elif digest != digests[rung]:
                    outcome.fail(f"{rung}: artifacts differ across repeats")
                if rung in last:
                    shutil.rmtree(last[rung]["dir"], ignore_errors=True)
                last[rung] = {**made, "dir": rep_dir}
    finally:
        tracer.unwrap()

    large = state["rungs"]["large"]
    floor = {rung: sum(replays.floor((rung, stage)) for stage in STAGES) for rung in RUNGS}
    slog_bytes = last["large"]["merged"].slog_path.stat().st_size
    sidecar_bytes = last["large"]["sidecar"].stat().st_size
    outcome.samples = {"large": len(walls["large"]), "small": len(walls["small"])}
    outcome.values = {
        # Raw events per second through the large rung, and the wall of the
        # small rung: each the sum of its stages' floors over the replays.
        "throughput_per_s": large["events"] / floor["large"],
        "latency_p50_ms": floor["small"] * 1e3,
        "index_bytes_per_trace_byte": sidecar_bytes / slog_bytes,
        "ingest_us_per_event": median(walls["large"]) / large["events"] * 1e6,
    }
    if tracer.enabled:
        _probe_layers(ctx, state, tracer, last, out)
        outcome.values.update(_layer_metrics(state, tracer, last))
        outcome.values["indexfile.sidecar_bytes"] = sidecar_bytes
    outcome.values["peak_rss_mb"] = peak_rss_mb()
    return outcome


def _probe_layers(ctx: Ctx, state: dict, tracer, last: dict, out: Path) -> None:
    """Layers the pipeline only reaches fused with others, called alone on
    the artifacts the last repeats left behind."""
    for rung in RUNGS:
        with tracer.span("op.probe", rung=rung):
            with tracer.span("merge.merge_only", rung=rung):
                merge_interval_files(
                    last[rung]["conv"].interval_paths,
                    out / f"probe-{rung}.ute", PROFILE,
                )
    merged_path = last["large"]["merged"].merged_path
    with tracer.span("op.probe", rung="large"):
        with tracer.span("slog.slog_from_interval_file"):
            slog_from_interval_file(merged_path, PROFILE, out / "probe.slog")
        with IntervalReader(merged_path, PROFILE) as reader:
            with tracer.span("core.reader.intervals") as span:
                records = list(reader.intervals())
                span.args["items"] = len(records)
            with tracer.span("core.writer.write", items=len(records)):
                with IntervalFileWriter(
                    out / "probe-writer.ute", PROFILE, reader.thread_table,
                    markers=reader.markers, node_cpus=reader.node_cpus,
                    field_mask=reader.header.field_mask,
                ) as writer:
                    for record in records:
                        writer.write(record)
        with tracer.span("utilization.builder", items=len(records)):
            builder = UtilizationBuilder()
            for record in records:
                builder.add(record)
            builder.build()
        # Section 2.1's record-cutting cost: a full cut and a filtered one.
        cluster = Cluster(ClusterSpec(n_nodes=1, cpus_per_node=1))
        facility = TraceFacility(
            cluster, out / "cut-probe",
            TraceOptions(enabled_hooks=frozenset({int(HookId.MARKER_BEGIN)})),
        )
        session = facility.sessions[0]
        calls = ctx.sizes["cut_probe_calls"]
        with tracer.span("tracing.cut", items=calls):
            for _ in range(calls):
                session.cut(int(HookId.MARKER_BEGIN), 1000, 42, 0, (1, 0))
        with tracer.span("tracing.cut_filtered", items=calls):
            for _ in range(calls):
                session.cut(int(HookId.DISPATCH), 1000, 42, 0)
        facility.close()


def _layer_metrics(state: dict, tracer, last: dict) -> dict[str, float]:
    table = SpanTable(rows_from_tracer(tracer))
    events = {rung: state["rungs"][rung]["events"] for rung in RUNGS}

    def us_per_event(name: str, rung: str) -> float:
        return median(r.seconds for r in table.select(name, rung=rung)) / events[rung] * 1e6

    def us_per_item(name: str) -> float:
        rows = table.select(name)
        return sum(r.seconds for r in rows) / table.items(rows) * 1e6

    convert = {rung: us_per_event("convert.convert_traces", rung) for rung in RUNGS}
    merge = {rung: us_per_event("merge.merge_only", rung) for rung in RUNGS}
    # Clock fitting is what slogmerge does before it merges: per large-rung
    # repeat, the pair scans plus the ratio fits.
    fit_ops = table.select("merge.slogmerge", rung="large")
    fit = [
        r for name in ("clocksync.collect_clock_pairs", "clocksync.adjustment_from_pairs")
        for r in table.within(name, "op.ingest", rung="large")
    ]
    build = table.select("indexfile.build_index", rung="large")
    conv_bytes = sum(p.stat().st_size for p in last["large"]["conv"].interval_paths)
    gen_s = sum(state["rungs"][rung]["gen_s"] for rung in RUNGS)
    return {
        "tracing.cut_us": us_per_item("tracing.cut"),
        "tracing.filtered_us": us_per_item("tracing.cut_filtered"),
        "workloads.generate_us_per_event": gen_s / sum(events.values()) * 1e6,
        "convert.us_per_event": convert["large"],
        "convert.us_per_event_small": convert["small"],
        "convert.flatness": convert["large"] / convert["small"],
        "convert.bytes_out_per_event": conv_bytes / events["large"],
        "clocksync.fit_ms": sum(r.seconds for r in fit) / len(fit_ops) * 1e3,
        "merge.us_per_event": merge["large"],
        "merge.us_per_event_small": merge["small"],
        "merge.flatness": merge["large"] / merge["small"],
        "slog.write_us_per_record": (
            sum(r.seconds for r in table.select("slog.slog_from_interval_file"))
            / last["large"]["merged"].records_out * 1e6
        ),
        "core.reader.decode_us_per_record": us_per_item("core.reader.intervals"),
        "core.writer.write_us_per_record": us_per_item("core.writer.write"),
        "indexfile.build_us_per_record": (
            median(r.seconds for r in build) / build[0].args["items"] * 1e6
        ),
        "utilization.build_us_per_record": us_per_item("utilization.builder"),
        "indexfile.write_ms": median(
            r.seconds for r in table.select("indexfile.write_index", rung="large")
        ) * 1e3,
        "ingest.peak_rss_mb": peak_rss_mb(),
    }
