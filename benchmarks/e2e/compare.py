"""Compare two sets of result files, row by (metric, workload).

    python benchmarks/e2e/compare.py A.json... -- B.json...

``A`` is the base set, ``B`` the set under test (the same commit at another
time for the "two sets agree" check; parent and change when a later PR
claims a gain).  Each end-to-end row prints both medians with their
quartiles and applies the bound ``BENCHMARK.json`` declares:

* **regression** — B's median is worse than A's by more than the bound, or a
  run of B failed an operation;
* **unresolved** — the base set's own inter-quartile spread exceeds the
  bound, so the row can show neither a regression nor its absence (unless
  every run of one side reads better than every run of the other);
* **ok** otherwise.

Per-layer rows (from traced runs) are printed without a verdict: they have
no bound.  Exits non-zero when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import spec  # noqa: E402


def load(paths: list[str]) -> dict[str, list[dict]]:
    """workload -> that workload's records across the set's files."""
    out: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for workload, record in doc["workloads"].items():
            out.setdefault(workload, []).append(record)
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, by how much B's median is worse than A's, as a share)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    worse = sign * (med_b - med_a) / med_a
    separated = (
        max(sign * x for x in b) < min(sign * x for x in a)
        or min(sign * x for x in b) > max(sign * x for x in a)
    )
    if (q3 - q1) / med_a > bound and not separated:
        return "unresolved", worse
    return ("REGRESSION" if worse > bound else "ok"), worse


def compare(base: dict[str, list[dict]], test: dict[str, list[dict]], out=sys.stdout) -> int:
    declaration = spec.load_declaration()
    regressions = 0
    for workload in spec.WORKLOADS:
        runs_a = [r for r in base.get(workload, []) if not r["trace"]]
        runs_b = [r for r in test.get(workload, []) if not r["trace"]]
        if runs_a and runs_b:
            print(f"== {workload}: {len(runs_a)} base runs, {len(runs_b)} test runs", file=out)
            failed = sum(r["failed"] for r in runs_b)
            if failed:
                regressions += 1
                print(f"  REGRESSION: {failed} failed operations in the test set", file=out)
            for metric in declaration["end_to_end"]:
                name = metric["name"]
                a = [r["values"][name] for r in runs_a]
                b = [r["values"][name] for r in runs_b]
                what, worse = verdict(a, b, metric["better"], metric["bound"])
                regressions += what == "REGRESSION"
                (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
                print(f"  {name:30s} {am:12.4f} [{a1:.4f}, {a3:.4f}]  ->  "
                      f"{bm:12.4f} [{b1:.4f}, {b3:.4f}] {metric['unit']:8s} "
                      f"worse by {worse * 100:+6.2f} % (bound {metric['bound'] * 100:.0f} %)  "
                      f"{what}", file=out)
        traced_a = [r for r in base.get(workload, []) if r["trace"]]
        traced_b = [r for r in test.get(workload, []) if r["trace"]]
        if traced_a and traced_b:
            print(f"-- {workload} per layer: {len(traced_a)} base, "
                  f"{len(traced_b)} test traced runs", file=out)
            for metric in declaration["per_layer"]:
                name = metric["name"]
                a = [r["values"][name] for r in traced_a if name in r["values"]]
                b = [r["values"][name] for r in traced_b if name in r["values"]]
                if a and b:
                    print(f"  {name:42s} {statistics.median(a):14.4f}  ->  "
                          f"{statistics.median(b):14.4f} {metric['unit']}", file=out)
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        "compare", description="Compare two sets of benchmarks/e2e result files.",
        usage="compare.py A.json... -- B.json...")
    parser.add_argument("files", nargs="+", help="base files, then --, then test files")
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        parser.error("separate the base set from the test set with --")
    split = argv.index("--")
    base, test = argv[:split], argv[split + 1:]
    if not base or not test:
        parser.error("both sets need at least one file")
    regressions = compare(load(base), load(test))
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
