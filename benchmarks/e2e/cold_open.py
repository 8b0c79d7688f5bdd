"""One cold open, run in a fresh process by ``explore_wide``.

``python cold_open.py SRC TRACE T0 T1 NODE THREAD``: import the query layer,
open the trace, load its sidecar, answer one window query, and report where
the time went as one JSON line.  The parent times the whole process; this
script only splits it.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    src, path, t0, t1, node, thread = argv
    sys.path.insert(0, src)
    from repro.query import (
        Query, ThreadSel, execute, load_fresh_index, open_trace, plan_query,
    )

    marks = {"import": time.perf_counter()}
    with open_trace(path) as handle:
        marks["open"] = time.perf_counter()
        index, reason = load_fresh_index(path)
        marks["load"] = time.perf_counter()
        query = Query(
            t0=int(t0), t1=int(t1), threads=(ThreadSel(int(node), int(thread)),)
        )
        plan = plan_query(query, handle.frames, index, index_reason=reason)
        rows = execute(handle, query, plan)
        marks["query"] = time.perf_counter()
    previous = _START
    report = {"rows": len(rows), "mode": plan.mode}
    for name, mark in marks.items():
        report[f"{name}_s"] = mark - previous
        previous = mark
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
