"""Per-layer breakdown of a traced run, derived from the span table.

``python benchmarks/e2e/breakdown.py results/<sha>-<seed>.trace.json``
prints, per workload, every layer's call count, total and **self** time (a
span's duration minus the part of it its child spans cover), the share of
the measured wall the named layer spans account for, and the tracing
overhead: measured (untraced / traced throughput of the same operations, from
the same run) and computed (spans recorded x what one span costs here).

``run.py`` derives its per-layer metrics through the same functions, so a
number printed by the benchmark is always a query over recorded spans, not
a timer of its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Any, Iterable, NamedTuple


class Row(NamedTuple):
    """One span as the analysis sees it."""

    workload: str
    id: int
    name: str
    parent: int | None
    op: int
    seconds: float
    args: dict


def rows_from_tracer(tracer) -> list[Row]:
    return [
        Row(tracer.workload, s.id, s.name, s.parent, s.op, s.seconds, s.args)
        for s in tracer.spans
    ]


def rows_from_chrome(doc: dict) -> list[Row]:
    """Rows of a Chrome trace written by ``spans.write_chrome_trace``."""
    names = {
        e["pid"]: e["args"]["name"]
        for e in doc["traceEvents"]
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    rows = []
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        args = dict(e["args"])
        sid, parent, op = args.pop("id"), args.pop("parent"), args.pop("op")
        rows.append(Row(
            names.get(e["pid"], str(e["pid"])), sid, e["name"],
            None if parent < 0 else parent, op, e["dur"] / 1e6, args,
        ))
    return rows


def self_seconds(rows: Iterable[Row]) -> dict[tuple[str, int], float]:
    """Self time per span, keyed by (workload, span id).  Children run
    inside their parent on the same thread and never overlap, so their
    summed durations are the covered part."""
    rows = list(rows)
    covered: dict[tuple[str, int], float] = defaultdict(float)
    for row in rows:
        if row.parent is not None:
            covered[(row.workload, row.parent)] += row.seconds
    return {
        (row.workload, row.id): max(row.seconds - covered[(row.workload, row.id)], 0.0)
        for row in rows
    }


class SpanTable:
    """The span rows of one workload with the queries metrics need."""

    def __init__(self, rows: Iterable[Row]) -> None:
        self.rows = list(rows)
        self._self = self_seconds(self.rows)

    def select(self, name: str, **args: Any) -> list[Row]:
        """Spans called ``name`` whose args match."""
        return [
            r for r in self.rows
            if r.name == name and all(r.args.get(k) == v for k, v in args.items())
        ]

    def self_of(self, row: Row) -> float:
        return self._self[(row.workload, row.id)]

    def within(self, name: str, root: str, **root_args: Any) -> list[Row]:
        """Spans called ``name`` belonging to operations rooted at ``root``."""
        ops = {r.op for r in self.select(root, **root_args)}
        return [r for r in self.rows if r.name == name and r.op in ops]

    def self_total(self, rows: Iterable[Row]) -> float:
        return sum(self.self_of(r) for r in rows)

    def items(self, rows: Iterable[Row]) -> int:
        return sum(int(r.args.get("items", 0)) for r in rows)

    def layers(self) -> dict[str, dict[str, float]]:
        """name -> {count, total_s, self_s}."""
        out: dict[str, dict[str, float]] = {}
        for row in self.rows:
            cell = out.setdefault(row.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            cell["count"] += 1
            cell["total_s"] += row.seconds
            cell["self_s"] += self.self_of(row)
        return out

    def wall_seconds(self) -> float:
        """Measured wall: the root (``op.*``) spans, summed."""
        return sum(r.seconds for r in self.rows if r.parent is None)

    def coverage(self) -> float:
        """Share of the measured wall spent inside named layer spans —
        everything except the operation spans' own self time."""
        wall = self.wall_seconds()
        if wall <= 0:
            return 0.0
        unattributed = sum(
            self.self_of(r) for r in self.rows if r.name.startswith("op.")
        )
        return 1.0 - unattributed / wall


def report(doc: dict, out=sys.stdout) -> None:
    rows = rows_from_chrome(doc)
    other = doc.get("otherData", {}).get("workloads", {})
    for workload in sorted({r.workload for r in rows}):
        table = SpanTable(r for r in rows if r.workload == workload)
        wall = table.wall_seconds()
        print(f"== {workload}: measured wall {wall:.3f} s, "
              f"{len(table.rows)} spans, "
              f"{table.coverage() * 100:.1f} % in named layer spans", file=out)
        print(f"{'layer':44s} {'calls':>7s} {'total s':>10s} {'self s':>10s} {'self %':>7s}",
              file=out)
        layers = table.layers()
        for name in sorted(layers, key=lambda n: -layers[n]["self_s"]):
            cell = layers[name]
            share = cell["self_s"] / wall * 100 if wall else 0.0
            print(f"{name:44s} {cell['count']:7d} {cell['total_s']:10.4f} "
                  f"{cell['self_s']:10.4f} {share:7.2f}", file=out)
        info = other.get(workload, {})
        if info:
            print(f"tracing overhead: untraced/traced throughput = "
                  f"{info['overhead_ratio']:.4f} "
                  f"({info['untraced_throughput_per_s']:.4f} / "
                  f"{info['traced_throughput_per_s']:.4f} per s); "
                  f"{info['spans']} spans x {info['span_cost_us']:.2f} us = "
                  f"{info['span_seconds']:.4f} s, "
                  f"{info['span_seconds'] / wall * 100 if wall else 0:.3f} % of the wall",
                  file=out)
        print(file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        "breakdown", description="Self time per layer per workload from a "
        "trace written by run.py --trace.")
    parser.add_argument("trace", help="results/<sha>-<seed>.trace.json")
    args = parser.parse_args(argv)
    with open(args.trace) as fh:
        report(json.load(fh))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
