"""Index-aware record loading for the analysis functions.

The analyses in this package (:func:`~repro.analysis.blocking.call_profile`,
:func:`~repro.analysis.utilization.thread_utilization`, ...) take record
iterables, so they compose with any source; this module is the source that
knows about the sidecar index.  :func:`load_records` opens an interval or
SLOG file, plans the scan against a fresh ``.uteidx`` when one exists (full
scan otherwise), and returns only the records the predicates admit — one
thread's blocking profile over a 2% window no longer decodes the other
98% of the file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.records import IntervalRecord, IntervalType
from repro.query.columnar import planned_batch_records
from repro.query.engine import resolve_index, window_to_ticks
from repro.query.model import Query, ThreadSel
from repro.query.planner import QueryPlan, plan_query
from repro.query.trace import open_trace


def load_records(
    path: str | Path,
    profile=None,
    *,
    window: tuple[float | None, float | None] | None = None,
    threads: tuple[ThreadSel, ...] | None = None,
    nodes: frozenset[int] | set[int] | None = None,
    types: frozenset[int] | set[int] | None = None,
    index: Any = "auto",
    errors: str = "strict",
    drop_clockpairs: bool = True,
) -> tuple[list[IntervalRecord], QueryPlan]:
    """Records of one trace file matching the predicates, plus the plan.

    ``window`` is (t0, t1) in **seconds** (either side ``None`` for open);
    the other predicates follow :class:`~repro.query.model.Query`.  The
    plan says how many frames the scan touched versus pruned.
    """
    loaded, reason = resolve_index(path, index)
    with open_trace(path, profile, errors=errors) as handle:
        t0, t1 = window_to_ticks(window, handle.ticks_per_sec)
        query = Query(
            t0=t0,
            t1=t1,
            threads=tuple(threads or ()),
            nodes=frozenset(nodes or ()),
            types=frozenset(types or ()),
        )
        plan = plan_query(query, handle.frames, loaded, index_reason=reason)
        records = [
            r
            for r in planned_batch_records(handle, query, plan)
            if not (drop_clockpairs and r.itype == IntervalType.CLOCKPAIR)
        ]
        return records, plan
