"""Aggregate-driven view latency vs. trace size.

The utilization hierarchy's acceptance bar: rendering a whole-run view of
a trace 100x larger must not take more than 2x the small trace's median
latency — the aggregate path answers from O(pixels) cells, so view cost
is a function of the window, not the file.  Alongside the latency pin,
the exactness oracle must stay silent at scale: the hierarchy equals a
direct windowed recompute (``aggregate_vs_exact``).
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import report
from repro.difftool.oracle import OracleReport
from repro.query import build_index, index_path_for, open_trace, write_index
from repro.viz.jumpshot import Jumpshot
from repro.workloads import write_big_slog

#: Small/large record counts — the 100x axis of the scalability claim.
SMALL_RECORDS = 1_000
LARGE_RECORDS = 100_000
#: Same lane population for both sizes, so the comparison is pure density.
N_NODES = 2
THREADS_PER_NODE = 16


@pytest.fixture(scope="module")
def traces(workspace, profile):
    """The small and 100x traces, with sidecar indexes, plus timings."""
    out = workspace / "view-scale"
    out.mkdir(parents=True, exist_ok=True)
    built = {}
    for name, n_records in (("small", SMALL_RECORDS), ("large", LARGE_RECORDS)):
        path = out / f"{name}.slog"
        write_big_slog(
            path,
            n_nodes=N_NODES,
            threads_per_node=THREADS_PER_NODE,
            n_records=n_records,
        )
        t0 = time.perf_counter()
        with open_trace(path, profile) as handle:
            index = build_index(handle)
        write_index(index, index_path_for(path))
        built[name] = {
            "path": path,
            "index": index,
            "records": n_records,
            "index_seconds": time.perf_counter() - t0,
        }
    return built


def _median_view_latency(path, index, *, rounds: int = 9) -> tuple[float, bool]:
    """Median seconds to render the whole run, and whether the aggregate
    path answered."""
    with Jumpshot(path) as viewer:
        tps = viewer.slog.ticks_per_sec
        t0 = min(f.start_time for f in viewer.slog.frames) / tps
        t1 = max(f.end_time for f in viewer.slog.frames) / tps
        samples = []
        for _ in range(rounds):
            begin = time.perf_counter()
            svg = viewer.view_svg_window(t0, t1, kind="thread", index=index)
            samples.append(time.perf_counter() - begin)
            assert svg.startswith("<svg")
        return statistics.median(samples), viewer.last_view_aggregate


def test_view_latency_flat_at_100x(traces):
    small, large = traces["small"], traces["large"]
    p50_small, _ = _median_view_latency(small["path"], small["index"])
    p50_large, aggregate = _median_view_latency(large["path"], large["index"])

    assert aggregate, (
        "the 100x whole-run view decoded records instead of answering "
        "from the utilization hierarchy"
    )
    # Floor the denominator: on a fast machine the small trace renders in
    # well under a millisecond and scheduler noise would dominate a raw
    # ratio.
    budget = 2 * max(p50_small, 0.005)
    assert p50_large <= budget, (
        f"whole-run view of {large['records']} records took {p50_large:.4f}s "
        f"median — over 2x the small trace's {p50_small:.4f}s "
        f"(budget {budget:.4f}s); aggregate path is not flat"
    )
    report(
        "view scale (whole-run thread view, "
        f"{N_NODES * THREADS_PER_NODE} lanes): "
        f"{small['records']} records {p50_small * 1e3:.1f} ms p50 vs "
        f"{large['records']} records {p50_large * 1e3:.1f} ms p50 "
        f"({p50_large / max(p50_small, 1e-9):.2f}x at 100x size, "
        f"aggregate path)",
        f"index build: small {small['index_seconds']:.2f}s, "
        f"large {large['index_seconds']:.2f}s",
    )


def test_aggregate_vs_exact_oracle_silent_at_scale(traces, profile):
    from repro.difftool.oracle import _check_aggregate_vs_exact

    large = traces["large"]
    oracle = OracleReport(str(large["path"]), "slog")
    _check_aggregate_vs_exact(oracle, large["path"], profile)
    assert oracle.ok, oracle.summary()
    report(
        f"aggregate_vs_exact oracle at {large['records']} records: "
        f"{len(oracle.findings)} findings"
    )

