"""Columnar trace tables: the Pipit-style analysis surface.

Analyses that walk record objects pay per record; the columnar query layer
(:mod:`repro.query.columnar`) already decodes frames into parallel arrays,
so this module exposes them directly.  :func:`load_table` opens a trace
through the one :func:`~repro.query.scan.open_scan` (pruned by the
``.uteidx`` sidecar when a fresh one exists) and concatenates the matching
frames' batches into one
:class:`TraceTable` — int64 core columns over the whole selection.

The table follows the filter/slice idiom of dataframe-centric trace tools
(Pipit et al.): every refinement returns a *new* table over views of the
same arrays, so chains like
``load_table(p).slice_time(0.5, 1.0).filter(node=2)`` stay cheap.  The
time-resolved metrics in :mod:`repro.analysis.metrics` consume these
tables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.core.records import IntervalType
from repro.core.windows import window_to_ticks
from repro.errors import FormatError
from repro.query.model import Query, ThreadSel
from repro.query.planner import QueryPlan
from repro.query.scan import open_scan

__all__ = ["TraceTable", "load_table"]

#: Columns every table carries, in presentation order.
TABLE_COLUMNS = ("start", "end", "dura", "node", "cpu", "thread", "type", "bebits")


class TraceTable:
    """Interval records as parallel int64 arrays plus file metadata."""

    __slots__ = ("start", "end", "dura", "node", "cpu", "thread", "type",
                 "bebits", "ticks_per_sec", "plan")

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        ticks_per_sec: float,
        plan: QueryPlan | None = None,
    ) -> None:
        for name in TABLE_COLUMNS:
            setattr(self, name, columns[name])
        self.ticks_per_sec = ticks_per_sec
        self.plan = plan

    # ------------------------------------------------------------------ API

    def __len__(self) -> int:
        return len(self.start)

    def column(self, name: str) -> np.ndarray:
        """One core column by name (see :data:`TABLE_COLUMNS`)."""
        if name not in TABLE_COLUMNS:
            raise FormatError(
                f"{name!r} is not a table column; pick one of {TABLE_COLUMNS}"
            )
        return getattr(self, name)

    def where(self, mask: np.ndarray) -> "TraceTable":
        """A new table keeping only the rows where ``mask`` is true — the
        escape hatch behind every other refinement."""
        return TraceTable(
            {name: getattr(self, name)[mask] for name in TABLE_COLUMNS},
            self.ticks_per_sec,
            self.plan,
        )

    def filter(
        self,
        *,
        node: int | Iterable[int] | None = None,
        thread: int | Iterable[int] | None = None,
        type: int | Iterable[int] | None = None,
    ) -> "TraceTable":
        """Rows matching every given predicate (each accepts one value or
        an iterable of values)."""
        mask = np.ones(len(self), dtype=bool)
        for name, wanted in (("node", node), ("thread", thread), ("type", type)):
            if wanted is None:
                continue
            values = [wanted] if isinstance(wanted, int) else list(wanted)
            mask &= np.isin(getattr(self, name), np.array(values, dtype=np.int64))
        return self.where(mask)

    def slice_time(
        self, t0: float | None, t1: float | None, *, ticks: bool = False
    ) -> "TraceTable":
        """Rows overlapping the closed window [t0, t1] — in seconds by
        default (converted with the file's tick rate), raw ticks with
        ``ticks=True``; either bound ``None`` leaves that side open."""
        if not ticks:
            t0, t1 = window_to_ticks((t0, t1), self.ticks_per_sec)
        mask = np.ones(len(self), dtype=bool)
        if t0 is not None:
            mask &= self.end >= t0
        if t1 is not None:
            mask &= self.start <= t1
        return self.where(mask)

    def time_range(self) -> tuple[int, int]:
        """(min start, max end) in ticks; (0, 0) for an empty table."""
        if not len(self):
            return (0, 0)
        return (int(self.start.min()), int(self.end.max()))

    def thread_keys(self) -> list[tuple[int, int]]:
        """Distinct (node, thread) pairs, sorted."""
        if not len(self):
            return []
        keys = np.unique(np.stack([self.node, self.thread], axis=1), axis=0)
        return [tuple(k) for k in keys.tolist()]


def load_table(
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
) -> TraceTable:
    """Load one trace file's matching records as a :class:`TraceTable`.

    The predicate surface mirrors :func:`repro.analysis.source.load_records`
    (``window`` in seconds), and the scan is pruned the same way: with a
    fresh sidecar index a table over a 2% window decodes O(window) frames;
    without one every frame is decoded and only the records are filtered.
    Frames decode as columnar batches; record objects are never built.
    """
    query = Query(
        threads=tuple(threads or ()),
        nodes=frozenset(nodes or ()),
        types=frozenset(types or ()),
    )
    with open_scan(
        path, profile, query, window=window, index=index, errors=errors
    ) as s:
        parts: dict[str, list[np.ndarray]] = {name: [] for name in TABLE_COLUMNS}
        for batch, mask in s.batches():
            if drop_clockpairs:
                mask = mask & (batch.itype != IntervalType.CLOCKPAIR)
                if not mask.any():
                    continue
            for name in TABLE_COLUMNS:
                parts[name].append(batch.core_array(name)[mask])
        columns = {
            name: (
                np.concatenate(chunks) if chunks else np.empty(0, np.int64)
            )
            for name, chunks in parts.items()
        }
        return TraceTable(columns, s.handle.ticks_per_sec, s.plan)
