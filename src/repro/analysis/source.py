"""Index-aware record loading for the analysis functions.

The analyses in this package (:func:`~repro.analysis.blocking.call_profile`,
:func:`~repro.analysis.utilization.thread_utilization`, ...) take record
iterables, so they compose with any source; this module is the source that
knows about the sidecar index.  :func:`load_records` is a caller of the
one :func:`~repro.query.scan.open_scan`: the scan is planned against a fresh
``.uteidx`` when one exists (full scan otherwise) and returns only the
records the predicates admit — with a sidecar, one thread's blocking profile
over a 2% window no longer decodes the other 98% of the file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.core.records import IntervalRecord, IntervalType
from repro.query.model import Query, ThreadSel
from repro.query.planner import QueryPlan
from repro.query.scan import open_scan


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
    query = Query(
        threads=tuple(threads or ()),
        nodes=frozenset(nodes or ()),
        types=frozenset(types or ()),
    )
    with open_scan(
        path, profile, query, window=window, index=index, errors=errors
    ) as s:
        records = [
            r
            for r in s.records()
            if not (drop_clockpairs and r.itype == IntervalType.CLOCKPAIR)
        ]
        return records, s.plan
