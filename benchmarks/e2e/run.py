"""The benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--seconds S] [--trace [0|1]] [--smoke]

Generates each workload's inputs from the seed, runs it against the public
functions of the layers, checks the outputs outside the timed sections,
prints every metric by name with its unit, writes
``benchmarks/e2e/results/<sha>-<seed>.json`` (never over an earlier file) and
ends with one JSON object per workload — the last line is the driver's
contract: ``correct``, ``attempted``, ``failed``, ``metrics``.

End-to-end metrics are measured with tracing off.  ``--trace`` splits the
measured time into an untraced part and a traced part of the same
operations, derives the per-layer metrics from the traced part's spans, and
writes them as Chrome trace-event JSON beside the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.common import Ctx  # noqa: E402
from benchmarks.e2e.spans import Tracer, span_cost_us, write_chrome_trace  # noqa: E402

#: Set-up is one fixed piece of work too, so it is repeated and read at its
#: floor like everything else: at least ``SETUP_REPEATS[0]`` times, and on
#: until it has used ``SETUP_BUDGET_S`` seconds or run ``SETUP_REPEATS[1]``
#: times (a 50 ms set-up needs more samples than a 5 s one).
SETUP_REPEATS = (2, 9)
SETUP_BUDGET_S = 1.5

#: Measured seconds per workload under ``--smoke``.
SMOKE_SECONDS = 2.0

#: How a traced run divides its measured time: untraced part, traced part.
TRACE_SPLIT = (0.4, 0.6)


def run_workload(name: str, seed: int, sizes: dict, work: Path, declaration: dict, *,
                 trace: bool, seconds: float) -> tuple[dict, Tracer | None]:
    """Set up, measure and check one workload; returns its result record
    (and the tracer holding its spans when traced)."""
    module = importlib.import_module(f"benchmarks.e2e.{name}")
    setup_samples: list[float] = []
    state = None
    while True:
        if state is not None:
            module.teardown(state)
            state = None  # free it before the next one is built
        sub = work / f"setup-{len(setup_samples)}"
        sub.mkdir(parents=True)
        gc.collect()
        start = time.perf_counter()
        state = module.setup(Ctx(seed, sizes), sub)
        setup_samples.append(time.perf_counter() - start)
        n, spent = len(setup_samples), sum(setup_samples)
        if n >= SETUP_REPEATS[0] and (spent >= SETUP_BUDGET_S or n >= SETUP_REPEATS[1]):
            break

    # Everything set-up built stays for the whole run: keep it out of the
    # collector's way so a timed operation never pays to re-scan it.
    gc.collect()
    gc.freeze()
    ctx = Ctx(seed, sizes)
    tracer = Tracer(name, trace)
    overhead = None
    try:
        if trace:
            (work / "untraced").mkdir()
            base = module.measure(ctx, state, Tracer(name, False), work / "untraced",
                                  seconds * TRACE_SPLIT[0])
            (work / "traced").mkdir()
            outcome = module.measure(ctx, state, tracer, work / "traced",
                                     seconds * TRACE_SPLIT[1])
            span_us = span_cost_us()
            overhead = {
                # Measured: the same operations with tracing off and on.
                "untraced_throughput_per_s": base.values["throughput_per_s"],
                "traced_throughput_per_s": outcome.values["throughput_per_s"],
                "overhead_ratio": (
                    base.values["throughput_per_s"] / outcome.values["throughput_per_s"]
                ),
                # Computed: what the recorded spans cost at this machine's
                # per-span price — the steadier reading on a noisy host.
                "span_cost_us": span_us,
                "spans": len(tracer.spans),
                "span_seconds": len(tracer.spans) * span_us / 1e6,
            }
            outcome.attempted += base.attempted
            outcome.failed += base.failed
            outcome.notes += base.notes
        else:
            (work / "measure").mkdir()
            outcome = module.measure(ctx, state, tracer, work / "measure", seconds)
    finally:
        module.teardown(state)
        gc.unfreeze()

    outcome.values["setup_s"] = min(setup_samples)
    outcome.samples["setup"] = len(setup_samples)
    return {
        "trace": trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "values": outcome.values,
        "metrics": spec.emit(outcome.values, declaration, trace=trace,
                             produced_layers=module.LAYER_METRICS),
        "samples": outcome.samples,
        "notes": outcome.notes,
        "sizes": sizes,
        "overhead": overhead,
    }, tracer if trace else None


def _stamp(args: argparse.Namespace, seconds: float) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=spec.ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "nogit"
    return {
        "git_sha": sha,
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.platform(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _new_result_file(stamp: dict) -> Path:
    """``results/<sha>-<seed>.json``, suffixed so no earlier file is ever
    overwritten (exclusive create: concurrent runs cannot collide)."""
    results = spec.HERE / "results"
    results.mkdir(exist_ok=True)
    for n in range(10_000):
        suffix = f"-{n}" if n else ""
        path = results / f"{stamp['git_sha']}-{stamp['seed']}{suffix}.json"
        try:
            path.open("x").close()
            return path
        except FileExistsError:
            continue
    raise SystemExit(f"{results}: too many result files for this sha and seed")


def main(argv: list[str] | None = None) -> int:
    declaration = spec.load_declaration()
    parser = argparse.ArgumentParser("benchmarks/e2e/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=spec.WORKLOADS,
                        help="run only this workload (repeatable; default all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="every generated input derives from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured-phase length (default: run_seconds of "
                        "BENCHMARK.json, which the frozen sizes are calibrated for)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="record spans and print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="schema test, then all workloads at ~1/20 size")
    args = parser.parse_args(argv)

    if args.smoke:
        from benchmarks.e2e import test_schema

        test_schema.main()
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else declaration["run_seconds"]
    )
    all_sizes = spec.SMOKE_SIZES if args.smoke else spec.SIZES
    stamp = _stamp(args, seconds)
    units = {
        m["name"]: m["unit"]
        for m in declaration["end_to_end"] + declaration["per_layer"]
    }

    work_root = spec.HERE / "work" / f"{os.getpid()}"
    records: dict[str, dict] = {}
    tracers: list[Tracer] = []
    try:
        for name in args.workload or spec.WORKLOADS:
            print(f"[{name}] seed {args.seed}, {seconds:g} s"
                  f"{', traced' if args.trace else ''}", file=sys.stderr, flush=True)
            record, tracer = run_workload(
                name, args.seed, all_sizes[name], work_root / name, declaration,
                trace=bool(args.trace), seconds=seconds,
            )
            records[name] = record
            if tracer is not None:
                tracers.append(tracer)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    result_path = _new_result_file(stamp)
    result_path.write_text(json.dumps({"stamp": stamp, "workloads": records}, indent=1))
    print(f"result: {result_path.relative_to(spec.ROOT)}")
    if tracers:
        trace_path = write_chrome_trace(
            result_path.with_suffix(".trace.json"), tracers,
            {"stamp": stamp,
             "workloads": {name: r["overhead"] for name, r in records.items()}},
        )
        print(f"trace:  {trace_path.relative_to(spec.ROOT)}")
    for name, record in records.items():
        print(f"\n== {name}: {record['attempted']} attempted, {record['failed']} failed; "
              f"samples {record['samples']}")
        for note in record["notes"]:
            print(f"   note: {note}")
        for metric, value in record["values"].items():
            print(f"{metric:44s} {value:16.6f} {units[metric]}")
        if record["overhead"]:
            over = record["overhead"]
            print(f"(tracing overhead: untraced/traced throughput {over['overhead_ratio']:.4f}; "
                  f"{over['spans']} spans cost {over['span_seconds']:.4f} s)")
    print()
    for record in records.values():
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"],
        }))
    if args.smoke and not all(r["correct"] for r in records.values()):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
