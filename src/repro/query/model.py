"""The query model: what a trace query asks for.

A :class:`Query` is a declarative description of a scan over one interval
or SLOG file — a time window, predicates on thread / node / state type, a
projection (which fields come back), and an optional group-by/aggregate
step.  The model is deliberately small: everything in it can be answered
by intersecting the predicates against the sidecar index
(:mod:`repro.query.indexfile`) to prune whole frames, then pushing the
same predicates down onto each decoded record.

Times are in **ticks** (the file's native unit); the CLI and server
convert from seconds using the file's ``ticks_per_sec`` before building
the query, so the engine never guesses units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.windows import overlaps_window
from repro.errors import FormatError

#: Fields every record answers, in the default projection order.
CORE_COLUMNS = ("start", "end", "dura", "node", "cpu", "thread", "type", "bebits")

#: Recognized aggregate functions for the y side of a group-by.
AGGREGATES = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class ThreadSel:
    """One thread predicate: an exact (node, thread) pair, or a thread id
    on any node (``node is None``)."""

    node: int | None
    thread: int

    @classmethod
    def parse(cls, text: str) -> "ThreadSel":
        """Parse ``"TID"`` or ``"NODE:TID"``."""
        try:
            if ":" in text:
                node_s, tid_s = text.split(":", 1)
                return cls(int(node_s), int(tid_s))
            return cls(None, int(text))
        except ValueError:
            raise FormatError(
                f"bad thread selector {text!r}; expected TID or NODE:TID"
            ) from None

    def matches(self, node: int, thread: int) -> bool:
        return self.thread == thread and (self.node is None or self.node == node)

    def __str__(self) -> str:
        """The text :meth:`parse` reads back."""
        return str(self.thread) if self.node is None else f"{self.node}:{self.thread}"


@dataclass(frozen=True)
class Aggregate:
    """One aggregate column: ``fn`` over ``source`` labelled ``label``.

    A ``None`` source is the bare ``count``: it counts every matched record
    of the group, unconditionally.  ``count:FIELD`` is the non-null-field
    variant — it counts only records whose type carries ``FIELD`` (the SQL
    ``COUNT(column)`` vs ``COUNT(*)`` distinction).
    """

    fn: str
    source: str | None
    label: str

    @classmethod
    def parse(cls, text: str) -> "Aggregate":
        """Parse ``"count"`` or ``"fn:field"`` (e.g. ``sum:dura``)."""
        fn, _, source = text.partition(":")
        if fn == "count" and not source:
            return cls("count", None, "count")
        if fn not in AGGREGATES:
            raise FormatError(
                f"unknown aggregate {fn!r}; pick one of {AGGREGATES}"
            )
        if not source:
            raise FormatError(f"aggregate {fn!r} needs a field: {fn}:FIELD")
        return cls(fn, source, f"{fn}({source})")

    def __str__(self) -> str:
        """The text :meth:`parse` reads back (the label is derived)."""
        return self.fn if self.source is None else f"{self.fn}:{self.source}"


def _items(params: Mapping[str, str], name: str) -> list[str]:
    """The comma-separated items of one text parameter (blanks dropped)."""
    return [p.strip() for p in params.get(name, "").split(",") if p.strip()]


def _ints(params: Mapping[str, str], name: str) -> list[int]:
    try:
        return [int(p, 0) for p in _items(params, name)]
    except ValueError:
        raise FormatError(
            f"query parameter {name!r} must be integers, got {params[name]!r}"
        ) from None


@dataclass(frozen=True)
class Query:
    """One declarative scan over a trace file.

    ``t0``/``t1`` bound a closed time window in ticks (records *overlapping*
    the window match, the :meth:`~repro.core.reader.IntervalReader.
    intervals_between` convention); ``None`` leaves that side open.
    ``threads`` / ``nodes`` / ``types`` are disjunctive within themselves
    and conjunctive across predicates.  ``columns`` is the projection;
    ``group_by`` + ``aggregates`` switch the result from raw rows to an
    aggregation keyed by the group-by fields.
    """

    t0: int | None = None
    t1: int | None = None
    threads: tuple[ThreadSel, ...] = ()
    nodes: frozenset[int] = frozenset()
    types: frozenset[int] = frozenset()
    columns: tuple[str, ...] = CORE_COLUMNS
    group_by: tuple[str, ...] = ()
    aggregates: tuple[Aggregate, ...] = ()
    limit: int | None = None

    def __post_init__(self) -> None:
        if self.t0 is not None and self.t1 is not None and self.t1 < self.t0:
            raise FormatError(f"empty time window [{self.t0}, {self.t1}]")
        if self.group_by and not self.aggregates:
            raise FormatError("group_by requires at least one aggregate")
        if self.aggregates and not self.group_by:
            raise FormatError("aggregates require group_by fields")
        if self.limit is not None and self.limit < 0:
            raise FormatError(f"negative limit {self.limit}")

    # ------------------------------------------------------------ text form

    @classmethod
    def from_params(cls, params: Mapping[str, str]) -> "Query":
        """Build a query from its text form — the ``/api/query`` parameters,
        which ``ute-query`` also fills from its flags: ``thread``, ``node``,
        ``type``, ``select``, ``group_by`` and ``agg`` are comma-separated
        lists, ``limit`` an integer; absent or blank means the default.
        The time window is not part of it: it travels in seconds
        (:func:`~repro.core.windows.parse_window`) and becomes ticks only
        once the file's tick rate is known.  Other keys are ignored."""
        limit = params.get("limit", "").strip()
        try:
            limit = int(limit) if limit else None
        except ValueError:
            raise FormatError(
                f"limit must be an integer, got {params['limit']!r}"
            ) from None
        return cls(
            threads=tuple(ThreadSel.parse(p) for p in _items(params, "thread")),
            nodes=frozenset(_ints(params, "node")),
            types=frozenset(_ints(params, "type")),
            columns=tuple(_items(params, "select")) or CORE_COLUMNS,
            group_by=tuple(_items(params, "group_by")),
            aggregates=tuple(Aggregate.parse(p) for p in _items(params, "agg")),
            limit=limit,
        )

    def to_params(self) -> dict[str, str]:
        """The text form :meth:`from_params` reads back (defaults omitted;
        the tick window is not carried, see there)."""
        lists = {
            "thread": self.threads,
            "node": sorted(self.nodes),
            "type": sorted(self.types),
            "select": () if self.columns == CORE_COLUMNS else self.columns,
            "group_by": self.group_by,
            "agg": self.aggregates,
            "limit": () if self.limit is None else (self.limit,),
        }
        return {k: ",".join(map(str, v)) for k, v in lists.items() if v}

    # ----------------------------------------------------------- predicates

    @property
    def windowed(self) -> bool:
        """Whether any time bound is set."""
        return self.t0 is not None or self.t1 is not None

    @property
    def grouped(self) -> bool:
        """Whether the query aggregates instead of returning raw rows."""
        return bool(self.group_by)

    def matches(self, record) -> bool:
        """Predicate pushdown: whether one decoded record satisfies every
        predicate of this query — the per-record definition ``reference_scan``
        applies and ``columnar_vs_record`` holds ``FrameBatch.match`` to."""
        if not overlaps_window(record.start, record.end, self.t0, self.t1):
            return False
        if self.nodes and record.node not in self.nodes:
            return False
        if self.threads and not any(
            sel.matches(record.node, record.thread) for sel in self.threads
        ):
            return False
        if self.types and record.itype not in self.types:
            return False
        return True

    def output_columns(self) -> tuple[str, ...]:
        """The labels of the result columns (projection or aggregation)."""
        if self.grouped:
            return self.group_by + tuple(a.label for a in self.aggregates)
        return self.columns

    def describe(self) -> dict[str, Any]:
        """JSON-friendly summary (the ``query`` half of an explain)."""
        return {
            "window": [self.t0, self.t1] if self.windowed else None,
            "threads": [str(s) for s in self.threads],
            "nodes": sorted(self.nodes),
            "types": sorted(self.types),
            "columns": list(self.output_columns()),
            "group_by": list(self.group_by),
            "limit": self.limit,
        }


def record_value(record, name: str) -> Any:
    """Read one projected field off a record; ``None`` when the record's
    type does not carry that field (different types carry different
    extras).  ``decode_parity`` holds ``FrameBatch.column_values`` to it."""
    if name == "end":
        return record.end
    if name == "type":
        return record.itype
    if name == "bebits":
        return int(record.bebits)
    if name == "dura":
        return record.duration
    try:
        return record.get(name)
    except FormatError:
        return None


_AccState = dict


def new_accumulator(aggregates: tuple[Aggregate, ...]) -> _AccState:
    """Fresh aggregation state: the group's matched-record count plus one
    slot per aggregate column."""
    return {
        "rows": 0,
        "slots": [{"n": 0, "sum": 0, "min": None, "max": None} for _ in aggregates],
    }


def accumulate_value(slot: dict, fn: str, value) -> None:
    """Fold one field value into one aggregate slot (``None`` — the
    record's type lacks the field — is skipped)."""
    if value is None:
        return
    slot["n"] += 1
    if fn in ("sum", "avg"):
        slot["sum"] += value
    elif fn == "min":
        slot["min"] = value if slot["min"] is None else min(slot["min"], value)
    elif fn == "max":
        slot["max"] = value if slot["max"] is None else max(slot["max"], value)


def accumulate(state: _AccState, aggregates: tuple[Aggregate, ...], record) -> None:
    """Fold one record into a group's aggregation state (records whose
    type lacks a source field are skipped for that column only — the
    matched-record count always advances).  ``reference_rows``' reduction,
    which ``columnar_vs_record`` holds the vectorized group-reduce to."""
    state["rows"] += 1
    for slot, agg in zip(state["slots"], aggregates):
        if agg.source is None:
            continue  # bare count: needs no per-field work
        accumulate_value(slot, agg.fn, record_value(record, agg.source))


def finalize(state: _AccState, aggregates: tuple[Aggregate, ...]) -> tuple:
    """Render a group's aggregation state as result values.

    ``min``/``max``/``avg`` over a group where no record carried the source
    field are ``None`` (an empty TSV cell, JSON ``null``) — not a
    fabricated ``0``.  ``sum`` of no values is 0, matching its additive
    identity; bare ``count`` is the matched-record count regardless of any
    field."""
    out = []
    for slot, agg in zip(state["slots"], aggregates):
        if agg.fn == "count":
            out.append(state["rows"] if agg.source is None else slot["n"])
        elif agg.fn == "sum":
            out.append(slot["sum"])
        elif agg.fn == "avg":
            out.append(slot["sum"] / slot["n"] if slot["n"] else None)
        elif agg.fn == "min":
            out.append(slot["min"])
        else:
            out.append(slot["max"])
    return tuple(out)
