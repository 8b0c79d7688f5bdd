"""Ablation: does clock synchronization actually restore event causality?

The whole point of section 2.2 is that raw local timestamps break "the
logical order of events": a message can appear to be received before it was
sent.  This bench merges a multi-node trace four ways — no adjustment at
all, and the three single-ratio estimators — and measures *causality* on
the matched send/receive pairs: a violation is an arrow whose receive
completes before its send began.

Expected: the unadjusted merge (clock offsets of milliseconds, network
latency of tens of microseconds) violates causality massively; every
estimator fixes every violation and leaves the minimum arrow latency
positive and physical.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.clocksync.adjust import ClockAdjustment
from repro.core.reader import IntervalReader
from repro.core.records import IntervalRecord, IntervalType
from repro.query.columnar import batch_from_records
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.viz.arrows import match_arrows


def unadjusted_records(paths, profile):
    """Records from all files with raw local timestamps (no sync at all)."""
    out = []
    for path in paths:
        reader = IntervalReader(path, profile)
        out.extend(
            r for r in reader.intervals() if r.itype != IntervalType.CLOCKPAIR
        )
    return out


def causality(records) -> tuple[int, int, float]:
    """(arrows, violations, min latency in us) over matched messages."""
    arrows = match_arrows(batch_from_records(records))
    violations = sum(1 for a in arrows if a.recv_time < a.send_time)
    min_latency = min(
        ((a.recv_time - a.send_time) for a in arrows), default=0
    ) / 1e3
    return len(arrows), violations, min_latency


@pytest.fixture(scope="module")
def traced(workspace, profile):
    from repro.workloads import run_synthetic
    from repro.workloads.synthetic import SyntheticConfig

    out = workspace / "syncmode"
    run = run_synthetic(out / "raw", SyntheticConfig(rounds=120))
    conv = convert_traces(run.raw_paths, out / "ivl")
    return out, conv


def test_sync_restores_causality(benchmark, traced, profile):
    out, conv = traced
    rows = ["", "ABLATION — clock sync vs message causality",
            "paper: without a (virtually) synchronized clock, the logical",
            "order of events cannot be guaranteed",
            f"  {'mode':>14} {'arrows':>7} {'violations':>11} {'min latency (us)':>17}"]
    results = {}

    raw = unadjusted_records(conv.interval_paths, profile)
    results["unadjusted"] = causality(raw)
    rows.append(
        f"  {'unadjusted':>14} {results['unadjusted'][0]:>7} "
        f"{results['unadjusted'][1]:>11} {results['unadjusted'][2]:>17.1f}"
    )

    def merge_mode(mode):
        merged = merge_interval_files(
            conv.interval_paths, out / f"m-{mode}.ute", profile, sync_mode=mode
        )
        reader = IntervalReader(merged.merged_path, profile)
        return causality(list(reader.intervals()))

    for mode in ("rms_segment", "rms_anchored", "last_slope", "piecewise"):
        results[mode] = merge_mode(mode)
        n, v, lat = results[mode]
        rows.append(f"  {mode:>14} {n:>7} {v:>11} {lat:>17.1f}")
    report(*rows)

    benchmark.pedantic(lambda: merge_mode("rms_segment"), rounds=1, iterations=1)

    # The unadjusted merge must exhibit the clock-synchronization problem.
    n_raw, v_raw, lat_raw = results["unadjusted"]
    assert n_raw > 50
    assert v_raw > 0
    assert lat_raw < 0
    # Every estimator restores causality completely.
    for mode in ("rms_segment", "rms_anchored", "last_slope", "piecewise"):
        n, v, lat = results[mode]
        assert n == n_raw, (mode, n, n_raw)
        assert v == 0, (mode, v)
        assert lat > 0, (mode, lat)


def test_adjustment_accuracy_against_truth(benchmark, traced, profile):
    """The adjusted timestamps recover true (global) time to microseconds:
    compare each file's adjustment of its localStart-bearing records against
    the known clock models."""
    from repro.cluster.machine import default_clock_spec
    from repro.cluster.clocks import LocalClock
    from repro.utils.merge import collect_clock_pairs
    from repro.clocksync.adjust import adjustment_from_pairs

    out, conv = traced

    def worst_error():
        worst = 0.0
        for node_id, path in enumerate(conv.interval_paths):
            reader = IntervalReader(path, profile)
            pairs = collect_clock_pairs(reader)
            adj = adjustment_from_pairs(pairs)
            clock = LocalClock(default_clock_spec(node_id))
            # Probe true instants across the run.
            span = pairs[-1].global_ts
            for k in range(1, 20):
                true_ns = span * k // 20
                recovered = adj.adjust(clock.read(true_ns))
                worst = max(worst, abs(recovered - true_ns))
        return worst

    worst = benchmark(worst_error)
    report(
        "", "ABLATION — adjustment accuracy vs ground-truth clocks",
        f"  worst |recovered - true| across nodes and probes: {worst / 1e3:.2f} us",
    )
    assert worst < 10_000  # 10 us over a ~100 ms trace
