"""The query executor: pruned frame scans with predicate pushdown.

:func:`run_query` is the one-call API — open the file, load a fresh
sidecar index when one exists, plan, scan only the planned frames, push
the query's predicates down onto each decoded record, and return rows (or
grouped aggregates) plus the plan and the exact bytes-read accounting from
the byte source.  :func:`execute` and
:func:`~repro.query.columnar.planned_batch_records` are the lower-level
pieces the serving daemon and the stats/analysis integrations reuse over
an already-open handle.

Two executors produce the same rows from the same plan:

* ``"columnar"`` (the default) decodes each planned frame into a
  :class:`~repro.query.columnar.FrameBatch` of parallel arrays and runs
  predicates, projections, and group-by/aggregates vectorized;
* ``"record"`` is the parity reference: a record-at-a-time loop over
  frames decoded by the uncached reference decoder, sharing nothing with
  the batch decode or the frame cache — ``ute-oracle`` cross-checks the
  two on every canonical query.

Result discipline: rows come back in file order (frame order, record
order within a frame) and grouped output is sorted by group key — so two
executions of the same query over the same file bytes produce identical
output, indexed or not, whichever executor ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.core.records import IntervalRecord
from repro.core.windows import window_to_ticks as _window_to_ticks
from repro.errors import FormatError
from repro.query.indexfile import TraceIndex, load_fresh_index
from repro.query.model import (
    Aggregate,
    Query,
    accumulate,
    accumulate_value,
    finalize,
    new_accumulator,
    record_value,
)
from repro.query.planner import QueryPlan, plan_query
from repro.query.trace import TraceHandle, open_trace

#: Recognized ``executor`` arguments across the query API.
EXECUTORS = ("columnar", "record")

#: Core columns the columnar executor can group/aggregate without touching
#: Python values (always-present int64 arrays on every batch).
_NUMERIC_CORE = frozenset(
    ("start", "end", "dura", "node", "cpu", "thread", "type", "bebits", "rectype")
)


def format_value(value: Any) -> str:
    """One cell as TSV text (floats via ``%.9g``, ``None`` empty)."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _sort_key(group: tuple) -> tuple:
    """Deterministic ordering for possibly mixed-type group keys."""
    return tuple(
        (0, v, "") if isinstance(v, (int, float)) else (1, 0, str(v))
        for v in group
    )


@dataclass
class ExecStats:
    """Out-parameter of :func:`execute`: what the executor actually did
    (as opposed to what the plan promised)."""

    frames_scanned: int = 0


@dataclass
class QueryResult:
    """Rows plus everything needed to explain how they were produced."""

    columns: tuple[str, ...]
    rows: list[tuple]
    plan: QueryPlan
    io: dict[str, int]
    ticks_per_sec: float
    path: str
    executor: str = "columnar"

    def to_tsv(self) -> str:
        """Header line plus one tab-separated line per row."""
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append("\t".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_payload(self) -> dict[str, Any]:
        """JSON-friendly form (``ute-query --format json``, ``/api/query``)."""
        return {
            "file": self.path,
            "ticks_per_sec": self.ticks_per_sec,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "plan": self.plan.describe(),
            "io": dict(self.io),
            "executor": self.executor,
        }


def execute(
    handle: TraceHandle,
    query: Query,
    plan: QueryPlan,
    *,
    executor: str = "columnar",
    stats: ExecStats | None = None,
) -> list[tuple]:
    """Run one planned query over an open handle; returns result rows.

    ``executor`` picks the engine (see :data:`EXECUTORS`); both produce
    identical rows.  ``stats``, when given, receives what actually
    happened (frames scanned before any limit short-circuit).
    """
    if executor not in EXECUTORS:
        raise FormatError(
            f"unknown executor {executor!r}; pick one of {EXECUTORS}"
        )
    if executor == "record":
        return _execute_record(handle, query, plan, stats)
    return _execute_columnar(handle, query, plan, stats)


# ------------------------------------------------------------------ record


def reference_scan(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None = None
) -> Iterator[IntervalRecord]:
    """The record executor's scan: every planned frame decoded one record
    at a time by the uncached reference decoder
    (:meth:`TraceHandle.reference_frame`, never a batch), predicates applied
    per record.  Independent of the columnar path by construction — which
    is what makes ``columnar_vs_record`` a check and not a tautology."""
    for ordinal in plan.frames:
        if stats is not None:
            stats.frames_scanned += 1
        for record in handle.reference_frame(ordinal):
            if query.matches(record):
                yield record


def _execute_record(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> list[tuple]:
    """The record-at-a-time reference executor."""
    records = reference_scan(handle, query, plan, stats)
    if query.grouped:
        groups: dict[tuple, dict] = {}
        for record in records:
            key = tuple(record_value(record, name) for name in query.group_by)
            state = groups.get(key)
            if state is None:
                state = groups[key] = new_accumulator(query.aggregates)
            accumulate(state, query.aggregates, record)
        return _grouped_rows(groups, query)
    rows: list[tuple] = []
    for record in records:
        rows.append(tuple(record_value(record, name) for name in query.columns))
        if query.limit is not None and len(rows) >= query.limit:
            break
    return rows


# ---------------------------------------------------------------- columnar


def _grouped_rows(groups: dict[tuple, dict], query: Query) -> list[tuple]:
    """Finalize and order grouped state — shared by both executors so the
    sort and the null semantics cannot drift apart."""
    rows = [
        key + finalize(state, query.aggregates)
        for key, state in sorted(groups.items(), key=lambda kv: _sort_key(kv[0]))
    ]
    return rows[: query.limit] if query.limit is not None else rows


def _matched_batches(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> Iterator[tuple[Any, np.ndarray]]:
    """The columnar scan: each planned frame's batch with its predicate
    mask (one vectorized pass), frames without a match skipped."""
    for ordinal in plan.frames:
        if stats is not None:
            stats.frames_scanned += 1
        batch = handle.read_frame_batch(ordinal)
        if batch.n == 0:
            continue
        mask = batch.match(query)
        if mask.any():
            yield batch, mask


def _positions(batch, mask: np.ndarray) -> range | list[int]:
    """Positions selected by a (non-empty) predicate mask."""
    return range(batch.n) if mask.all() else np.nonzero(mask)[0].tolist()


def _columnar_raw(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> list[tuple]:
    rows: list[tuple] = []
    for batch, mask in _matched_batches(handle, query, plan, stats):
        cols = [batch.column_values(name) for name in query.columns]
        for i in _positions(batch, mask):
            rows.append(tuple(col[i] for col in cols))
            if query.limit is not None and len(rows) >= query.limit:
                return rows
    return rows


#: Matched rows buffered across frames before one vectorized group-reduce
#: (bounds the fast path's memory while amortizing numpy call overhead
#: over many small frames).
_GROUP_FLUSH_ROWS = 1 << 18


def _group_order(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds) grouping rows with equal key tuples contiguously.

    The key columns are packed into one int64 per row when their value
    ranges fit (one cheap integer sort; ``np.unique(axis=0)``'s void-dtype
    sort is ~20x slower), falling back to a lexsort otherwise.  ``bounds``
    are the start offsets of each group's run in ``order``.
    """
    n = len(cols[0])
    mins = [int(c.min()) for c in cols]
    spans = [int(c.max()) - mn + 1 for c, mn in zip(cols, mins)]
    capacity = 1
    for span in spans:
        capacity *= span
    if capacity < (1 << 62):
        packed = np.zeros(n, np.int64)
        for c, mn, span in zip(cols, mins, spans):
            packed *= span
            packed += c - mn
        order = np.argsort(packed)
        sorted_key = packed[order]
        change = sorted_key[:-1] != sorted_key[1:]
    else:
        order = np.lexsort(cols[::-1])
        change = np.zeros(max(n - 1, 0), dtype=bool)
        for c in cols:
            sc = c[order]
            change |= sc[:-1] != sc[1:]
    bounds = np.concatenate(
        [np.zeros(1, np.intp), (np.nonzero(change)[0] + 1).astype(np.intp)]
    )
    return order, bounds


def _reduce_chunk(
    groups: dict[tuple, dict],
    query: Query,
    fns: list[tuple[str, str | None]],
    key_chunks: list[list[np.ndarray]],
    val_chunks: list[list[np.ndarray] | None],
) -> None:
    """One vectorized group-reduce over buffered columns, merged into the
    shared accumulator state (int64-exact, matching the record path's
    Python-int arithmetic)."""
    cols = [np.concatenate(chunks) for chunks in key_chunks]
    n = len(cols[0])
    order, bounds = _group_order(cols)
    firsts = order[bounds]
    counts = np.diff(np.append(bounds, n)).tolist()
    uniq = np.stack([c[firsts] for c in cols], axis=1)
    partials: list[tuple[list, list, list] | None] = []
    for chunks in val_chunks:
        if chunks is None:
            partials.append(None)  # bare count: only needs `counts`
            continue
        vals = np.concatenate(chunks)[order]
        partials.append((
            np.add.reduceat(vals, bounds).tolist(),
            np.minimum.reduceat(vals, bounds).tolist(),
            np.maximum.reduceat(vals, bounds).tolist(),
        ))
    for gi, key_list in enumerate(uniq.tolist()):
        key = tuple(key_list)
        state = groups.get(key)
        if state is None:
            state = groups[key] = new_accumulator(query.aggregates)
        state["rows"] += counts[gi]
        for slot, (fn, _), part in zip(state["slots"], fns, partials):
            if part is None:
                continue
            sums, mins, maxs = part
            slot["n"] += counts[gi]  # core fields are never null
            if fn in ("sum", "avg"):
                slot["sum"] += sums[gi]
            elif fn == "min":
                slot["min"] = (
                    mins[gi] if slot["min"] is None else min(slot["min"], mins[gi])
                )
            elif fn == "max":
                slot["max"] = (
                    maxs[gi] if slot["max"] is None else max(slot["max"], maxs[gi])
                )


def _columnar_grouped_fast(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> list[tuple]:
    """All group-by fields and aggregate sources are numeric core columns:
    buffer the matched columns across frames and group-reduce them in
    bounded vectorized chunks, merging partials into the shared
    accumulator state."""
    groups: dict[tuple, dict] = {}
    fns = [(agg.fn, agg.source) for agg in query.aggregates]
    key_chunks: list[list[np.ndarray]] = [[] for _ in query.group_by]
    val_chunks: list[list[np.ndarray] | None] = [
        [] if source is not None else None for _, source in fns
    ]
    buffered = 0

    def flush() -> None:
        nonlocal buffered
        if buffered:
            _reduce_chunk(groups, query, fns, key_chunks, val_chunks)
        for chunks in key_chunks:
            chunks.clear()
        for chunks in val_chunks:
            if chunks is not None:
                chunks.clear()
        buffered = 0

    for batch, mask in _matched_batches(handle, query, plan, stats):
        if mask.all():
            sel = slice(None)
            matched = batch.n
        else:
            sel = mask
            matched = int(mask.sum())
        for chunks, name in zip(key_chunks, query.group_by):
            chunks.append(batch.core_array(name)[sel])
        for chunks, (_, source) in zip(val_chunks, fns):
            if chunks is not None:
                chunks.append(batch.core_array(source)[sel])
        buffered += matched
        if buffered >= _GROUP_FLUSH_ROWS:
            flush()
    flush()
    return _grouped_rows(groups, query)


def _columnar_grouped_slow(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> list[tuple]:
    """Some group-by field or aggregate source is an extra (possibly-null)
    field: group over Python value columns, still one decoded batch and one
    vectorized predicate pass per frame."""
    groups: dict[tuple, dict] = {}
    for batch, mask in _matched_batches(handle, query, plan, stats):
        keycols = [batch.column_values(name) for name in query.group_by]
        aggcols = [
            batch.column_values(agg.source) if agg.source is not None else None
            for agg in query.aggregates
        ]
        for i in _positions(batch, mask):
            key = tuple(col[i] for col in keycols)
            state = groups.get(key)
            if state is None:
                state = groups[key] = new_accumulator(query.aggregates)
            state["rows"] += 1
            for slot, agg, col in zip(state["slots"], query.aggregates, aggcols):
                if col is None:
                    continue
                accumulate_value(slot, agg.fn, col[i])
    return _grouped_rows(groups, query)


def _execute_columnar(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> list[tuple]:
    """The batched executor: one :class:`FrameBatch` per planned frame."""
    if not query.grouped:
        return _columnar_raw(handle, query, plan, stats)
    all_core = all(name in _NUMERIC_CORE for name in query.group_by) and all(
        agg.source is None or agg.source in _NUMERIC_CORE
        for agg in query.aggregates
    )
    if all_core:
        return _columnar_grouped_fast(handle, query, plan, stats)
    return _columnar_grouped_slow(handle, query, plan, stats)


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


def run_query(
    path: str | Path,
    query: Query,
    *,
    profile=None,
    index: Any = "auto",
    errors: str = "strict",
    mode: str = "auto",
    executor: str = "columnar",
    window: tuple[float | None, float | None] | None = None,
) -> QueryResult:
    """Open, plan, and execute one query; the one-call API.

    ``window`` is an optional (t0, t1) in **seconds**; it is converted with
    the file's own ``ticks_per_sec`` and overrides the query's tick bounds —
    the convenience the CLI and server need, since they see seconds but the
    file's tick rate only exists after open.

    ``io`` in the result is the byte-source fetch delta across the scan
    itself (directories and header tables are read at open, before the
    snapshot), so it measures exactly what the plan chose to decode.
    ``frames_decoded`` is the frame store's miss delta — frames the
    executor really decoded, not what the plan promised (cache hits and
    limit short-circuits decode fewer; the ``record`` executor never
    caches, so it decodes every frame it visits); ``frames_scanned`` counts
    frames the executor visited before any short-circuit.
    """
    loaded, reason = resolve_index(path, index)
    with open_trace(path, profile, errors=errors, mode=mode) as handle:
        if window is not None:
            t0, t1 = window_to_ticks(window, handle.ticks_per_sec)
            query = replace(query, t0=t0, t1=t1)
        plan = plan_query(query, handle.frames, loaded, index_reason=reason)
        before = handle.stats()
        exec_stats = ExecStats()
        rows = execute(handle, query, plan, executor=executor, stats=exec_stats)
        after = handle.stats()
        io = {
            "bytes_read": after["bytes_fetched"] - before["bytes_fetched"],
            "fetches": after["fetch_count"] - before["fetch_count"],
            "cache_hits": after["hits"] - before["hits"],
            "frames_decoded": after["misses"] - before["misses"],
            "frames_scanned": exec_stats.frames_scanned,
        }
        return QueryResult(
            query.output_columns(), rows, plan, io,
            handle.ticks_per_sec, str(path), executor,
        )


# Re-exported here for the query layer's callers; the one definition lives
# in core so every read path converts seconds the same way.
window_to_ticks = _window_to_ticks
