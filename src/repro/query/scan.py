"""The scan: the one way a windowed read happens above the frame store.

Every tool that reads the records of a file matching some predicates —
``ute-query``, ``ute-stats`` (and, through its ``interval_records``, the
analyses of :mod:`repro.analysis`), ``ute-profile``, the daemon's
``/api/query`` and ``/api/stats``, the oracle — follows one recipe:
resolve the sidecar index, open the file, turn a seconds window into ticks
with the file's own rate, plan the frames, run, and account the IO.
:class:`Scan` is that recipe held once.  :func:`open_scan` builds it from a
path (and owns the handle for the ``with`` block); :func:`scan` builds it
over a handle the caller already shares, as the serving session does.

``io()`` is one delta between two ``stats()`` snapshots of the handle, the
first taken when the scan is planned (directories and header tables are read
at open, before it, so the delta is exactly what the plan chose to read):
``bytes_read`` and ``fetches`` from the byte source; ``cache_hits`` and
``frames_decoded``, the frame store's hit and miss deltas; and
``frames_scanned``, the frames visited before any ``limit`` short-circuit —
each visit is exactly one lookup, so their sum.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.core.windows import window_to_ticks
from repro.query.columnar import FrameBatch
from repro.query.engine import QueryResult, execute, matched_batches
from repro.query.indexfile import TraceIndex, load_fresh_index
from repro.query.model import Query
from repro.query.planner import QueryPlan, plan_query
from repro.query.trace import TraceHandle, open_trace

Window = tuple[float | None, float | None]


def resolve_index(
    path: str | Path, index: Any
) -> tuple[TraceIndex | None, str]:
    """Normalize the ``index`` argument accepted across the query API.

    * ``"auto"`` — load the sidecar next to ``path`` if it exists and is
      fresh (the default everywhere);
    * ``None`` / ``False`` — ignore any sidecar: force the full scan;
    * a :class:`TraceIndex` — use it as-is (caller vouches for freshness);
    * a path — load that specific sidecar, still freshness-checked.
    """
    if index is None or index is False:
        return None, "disabled"
    if isinstance(index, TraceIndex):
        return index, "fresh"
    if index == "auto":
        return load_fresh_index(path)
    return load_fresh_index(path, index)


def io_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """What a handle read between two ``stats()`` snapshots (the five keys
    of the module docstring)."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "bytes_read": after["bytes_fetched"] - before["bytes_fetched"],
        "fetches": after["fetch_count"] - before["fetch_count"],
        "cache_hits": hits,
        "frames_decoded": misses,
        "frames_scanned": hits + misses,
    }


@dataclass
class Scan:
    """One planned read of one open trace: the handle, the final query
    (window already in ticks), the frame plan, and the handle's ``stats()``
    as they stood when the plan was made."""

    handle: TraceHandle
    query: Query
    plan: QueryPlan
    before: dict[str, int]

    def batches(self) -> Iterator[tuple[FrameBatch, np.ndarray]]:
        """Each planned frame's columnar batch with its predicate mask,
        frames without a match skipped."""
        return matched_batches(self.handle, self.query, self.plan)

    def rows(self) -> list[tuple]:
        """The query's result rows (projection, or grouped aggregates)."""
        return execute(self.handle, self.query, self.plan)

    def io(self) -> dict[str, int]:
        """What the handle has read since the scan was planned."""
        return io_delta(self.before, self.handle.stats())

    def result(self, file: str | None = None) -> QueryResult:
        """Run :meth:`rows` and wrap them with the plan and the IO delta;
        ``file`` labels the result (default: the handle's path)."""
        rows = self.rows()
        return QueryResult(
            self.query.output_columns(), rows, self.plan, self.io(),
            self.handle.ticks_per_sec, file or str(self.handle.path),
        )


def scan(
    handle: TraceHandle,
    query: Query = Query(),
    *,
    window: Window | None = None,
    index: TraceIndex | None = None,
    index_reason: str = "missing",
) -> Scan:
    """Plan one read over an open handle.

    ``window`` is an optional (t0, t1) in **seconds**; it is converted with
    the file's own ``ticks_per_sec`` and overrides the query's tick bounds.
    ``index`` is a *fresh* index or ``None`` (full scan; ``index_reason``
    says why and lands in the plan)."""
    if window is not None:
        t0, t1 = window_to_ticks(window, handle.ticks_per_sec)
        query = replace(query, t0=t0, t1=t1)
    plan = plan_query(query, handle.frames, index, index_reason=index_reason)
    return Scan(handle, query, plan, handle.stats())


@contextmanager
def open_scan(
    path: str | Path,
    profile=None,
    query: Query = Query(),
    *,
    window: Window | None = None,
    index: Any = "auto",
    errors: str = "strict",
) -> Iterator[Scan]:
    """Resolve the index (see :func:`resolve_index`), open ``path`` and
    plan one read over it; the handle closes with the ``with`` block."""
    loaded, reason = resolve_index(path, index)
    with open_trace(path, profile, errors=errors) as handle:
        yield scan(handle, query, window=window, index=loaded, index_reason=reason)


def run_query(
    path: str | Path,
    query: Query,
    *,
    profile=None,
    index: Any = "auto",
    errors: str = "strict",
    window: Window | None = None,
) -> QueryResult:
    """Open, plan, and execute one query; the one-call API.

    ``window`` is in seconds (see :func:`scan`) — the convenience the CLI
    and server need, since they see seconds but the file's tick rate only
    exists after open.  ``io`` in the result is the scan's delta (module
    docstring): what the executor really read and decoded, not what the
    plan promised — cache hits and limit short-circuits decode fewer."""
    with open_scan(
        path, profile, query, window=window, index=index, errors=errors
    ) as s:
        return s.result()
