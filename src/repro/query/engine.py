"""The query executor: pruned frame scans with predicate pushdown.

:func:`execute` runs one planned query over an open handle: it decodes only
the planned frames, pushes the query's predicates down onto each decoded
record, and returns rows (or grouped aggregates).  Resolving the index,
opening, planning and IO accounting around it are :mod:`repro.query.scan`'s
job — :func:`~repro.query.scan.run_query` is the one-call API.

The executor is columnar: each planned frame is decoded into a
:class:`~repro.query.columnar.FrameBatch` of parallel arrays, and
predicates, projections and group-by/aggregates run vectorized.
:func:`reference_rows` is its parity reference, not an alternative: a
record-at-a-time loop over frames decoded by the uncached reference
decoder, sharing nothing with the batch decode or the frame cache —
``ute-oracle``'s ``columnar_vs_record`` holds :func:`execute` to it on
every canonical query.

Result discipline: rows come back in file order (frame order, record
order within a frame) and grouped output is sorted by group key — so two
executions of the same query over the same file bytes produce identical
output, indexed or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.core.records import IntervalRecord
from repro.query.columnar import pack_keys
from repro.query.model import (
    Query,
    accumulate,
    accumulate_value,
    finalize,
    new_accumulator,
    record_value,
)
from repro.query.planner import QueryPlan
from repro.query.trace import TraceHandle

#: Core columns the executor can group/aggregate without touching
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


def rows_tsv(columns, rows) -> str:
    """Result rows as TSV: a header line, then one line per row — the one
    renderer behind :meth:`QueryResult.to_tsv`, ``/api/query?format=tsv``
    and a remote ``ute-query`` holding only the JSON payload."""
    lines = ["\t".join(columns)]
    lines.extend("\t".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


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

    def to_tsv(self) -> str:
        """Header line plus one tab-separated line per row."""
        return rows_tsv(self.columns, self.rows)

    def to_payload(self) -> dict[str, Any]:
        """JSON-friendly form (``ute-query --format json``, ``/api/query``)."""
        return {
            "file": self.path,
            "ticks_per_sec": self.ticks_per_sec,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "plan": self.plan.describe(),
            "io": dict(self.io),
        }


def execute(
    handle: TraceHandle,
    query: Query,
    plan: QueryPlan,
    *,
    stats: ExecStats | None = None,
) -> list[tuple]:
    """Run one planned query over an open handle; returns result rows:
    one :class:`FrameBatch` per planned frame.

    ``stats``, when given, receives what actually happened (frames
    scanned before any limit short-circuit).
    """
    if query.limit == 0:
        return []
    if not query.grouped:
        return _columnar_raw(handle, query, plan, stats)
    all_core = all(name in _NUMERIC_CORE for name in query.group_by) and all(
        agg.source is None or agg.source in _NUMERIC_CORE
        for agg in query.aggregates
    )
    if all_core:
        return _columnar_grouped_fast(handle, query, plan, stats)
    return _columnar_grouped_slow(handle, query, plan, stats)


# --------------------------------------------------------------- reference


def reference_scan(
    handle: TraceHandle, query: Query, plan: QueryPlan
) -> Iterator[IntervalRecord]:
    """The reference scan: every planned frame decoded one record at a
    time by the uncached reference decoder
    (:meth:`TraceHandle.reference_frame`, never a batch), predicates applied
    per record.  Independent of the columnar path by construction — which
    is what makes ``columnar_vs_record`` a check and not a tautology."""
    for ordinal in plan.frames:
        for record in handle.reference_frame(ordinal):
            if query.matches(record):
                yield record


def reference_rows(handle: TraceHandle, query: Query, plan: QueryPlan) -> list[tuple]:
    """The rows :func:`execute` must return, computed record at a time
    over :func:`reference_scan` — what ``ute-oracle``'s
    ``columnar_vs_record`` and the parity tests compare it with.  Shares
    the plan, the predicate definitions and :func:`_grouped_rows` with the
    executor; no decode, cache or reduction code."""
    if query.limit == 0:
        return []
    records = reference_scan(handle, query, plan)
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
    """Finalize and order grouped state — shared by the executor and
    :func:`reference_rows` so the sort and the null semantics cannot drift
    apart."""
    rows = [
        key + finalize(state, query.aggregates)
        for key, state in sorted(groups.items(), key=lambda kv: _sort_key(kv[0]))
    ]
    return rows[: query.limit] if query.limit is not None else rows


def matched_batches(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None = None
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


def planned_batch_records(handle: TraceHandle, query: Query, plan: QueryPlan) -> Iterator[Any]:
    """The rows of the planned frames that pass the query's predicates, one
    batch per frame with a match (:meth:`FrameBatch.where` of
    :func:`matched_batches`)."""
    for batch, mask in matched_batches(handle, query, plan):
        yield batch.where(mask)


def _positions(batch, mask: np.ndarray) -> range | list[int]:
    """Positions selected by a (non-empty) predicate mask."""
    return range(batch.n) if mask.all() else np.nonzero(mask)[0].tolist()


def _columnar_raw(
    handle: TraceHandle, query: Query, plan: QueryPlan, stats: ExecStats | None
) -> list[tuple]:
    rows: list[tuple] = []
    for batch, mask in matched_batches(handle, query, plan, stats):
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


def group_order(
    cols: list[np.ndarray], kind: str = "quicksort"
) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds) grouping rows with equal key tuples contiguously,
    groups in key order.

    The key columns are packed into one int64 per row when their value
    ranges fit (:func:`~repro.query.columnar.pack_keys`: one cheap integer
    sort, unstable unless ``kind="stable"``, which keeps each group's rows
    in row order), falling back to a (stable) lexsort otherwise.
    ``bounds`` are the start offsets of each group's run in ``order``.
    """
    n = len(cols[0])
    if not n:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    packed = pack_keys(cols)
    if packed is not None:
        order = np.argsort(packed, kind=kind)
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
    order, bounds = group_order(cols)
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

    for batch, mask in matched_batches(handle, query, plan, stats):
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
    for batch, mask in matched_batches(handle, query, plan, stats):
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
