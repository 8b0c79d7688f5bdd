"""Columnar batch execution: wall-clock speedup over the per-record reference.

The bar for the executor: a full-scan group-by over the merged sPPM trace
must run at least 5x faster through ``execute`` (columnar batches) than
through ``engine.reference_rows``, the record-at-a-time reference —
with byte-identical rows, and with ``ute-oracle`` reporting zero findings
between the two over its whole canonical query set.

Both are timed over the same handle and the same plan, so the comparison
isolates the decode/aggregate strategy — same predicates, same
finalize/sort.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import report
from repro.difftool.oracle import run_oracle
from repro.query import Aggregate, Query, open_trace, run_query
from repro.query.engine import execute, reference_rows
from repro.query.planner import plan_query
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files


@pytest.fixture(scope="module")
def long_trace(workspace, profile):
    """A longer sPPM run merged at the default frame size — enough records
    that the per-record constant factor dominates the reference.
    (The pruning benchmark shrinks frames to give the planner something to
    skip; this one keeps the default 32 KiB frames the merge produces,
    which is the configuration batch decode is built for.)"""
    from repro.workloads import run_sppm
    from repro.workloads.sppm import SppmConfig

    out = workspace / "columnar-speedup"
    run = run_sppm(out / "raw", SppmConfig(iterations=40))
    conv = convert_traces(run.raw_paths, out / "ivl")
    merged = merge_interval_files(
        conv.interval_paths, out / "merged.ute", profile,
        slog_path=out / "run.slog",
    )
    return merged.merged_path


#: The benchmark query: a full-scan aggregation over every record.
GROUPED = Query(
    group_by=("node", "type"),
    aggregates=(Aggregate.parse("count"), Aggregate.parse("sum:dura")),
)


def _time_rows(run, handle, query, plan, repeats: int) -> tuple[float, list]:
    """Best-of-N wall time of ``run`` (``execute`` or ``reference_rows``)
    after one warm-up call."""
    rows = run(handle, query, plan)  # warm the page cache (and, for execute, the LRU)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        rows = run(handle, query, plan)
        best = min(best, time.perf_counter() - t0)
    return best, rows


def test_columnar_5x_on_full_scan_group_by(long_trace, profile):
    merged = long_trace
    with open_trace(merged, profile) as handle:
        plan = plan_query(GROUPED, handle.frames, None, index_reason="bench")
        n_records = sum(f.n_records for f in handle.frames)
        record_s, record_rows = _time_rows(reference_rows, handle, GROUPED, plan, 3)
        columnar_s, columnar_rows = _time_rows(execute, handle, GROUPED, plan, 3)

    assert record_rows == columnar_rows, "executor and reference disagree on the benchmark query"
    assert columnar_s > 0
    speedup = record_s / columnar_s
    assert speedup >= 5.0, (
        f"the executor is only {speedup:.1f}x faster than its per-record "
        f"reference ({columnar_s * 1e3:.1f} ms vs {record_s * 1e3:.1f} ms) — "
        "the bar is 5x on a full-scan group-by"
    )
    report(
        "columnar speedup (sPPM merged, full-scan group node x type): "
        f"{record_s * 1e3:.1f} ms record vs {columnar_s * 1e3:.1f} ms "
        f"columnar ({speedup:.1f}x) over {n_records} records, "
        f"{len(columnar_rows)} groups"
    )


def test_oracle_zero_findings_between_executors(long_trace, profile):
    """The oracle's columnar_vs_record check (plus every other pair) over
    the benchmark trace: zero findings."""
    result = run_query(long_trace, GROUPED, profile=profile, index=False)
    assert result.rows, "benchmark trace produced no groups"
    oracle = run_oracle(long_trace, profile, serve=False)
    assert "columnar_vs_record" in oracle.checks
    assert oracle.ok, oracle.summary()
    report(
        "columnar oracle (sPPM merged): "
        f"checks={','.join(oracle.checks)}, 0 findings"
    )
