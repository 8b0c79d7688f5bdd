"""The statistics generation utility (paper section 3.2).

Reads one or more interval files and generates tables specified in the
declarative language of :mod:`repro.utils.statlang`.  Output tables are
tab-separated-value text, exactly as the paper describes.

Given no user program, the utility generates the paper's pre-defined
tables, including the Figure 6 table: "the sum of the duration of
interesting intervals per node and per 50 equally sized time bins", where an
interesting interval is any state other than the default Running state.

Tables are computed from frame columns.  :func:`generate_tables` reads its
input as :class:`~repro.query.columnar.FrameBatch` es — what the scans
yield (:func:`interval_records`), or record lists wrapped by
:func:`~repro.query.columnar.batch_from_records` — and per batch and table
evaluates the condition, x and y expressions once each as columns
(:meth:`~repro.utils.statlang.Expr.columns`), groups the kept rows on their
x tuple (one packed integer per row, :func:`~repro.query.columnar.pack_keys`)
and folds each group's count, sum and extreme into the table's state, which
lives across batches: x tuple -> accumulators, in first-occurrence order.
The result is exactly :func:`reference_tables`', the record-at-a-time loop:
table names and labels, row keys and values and the Python type of each,
row order, and the exception type and message where the loop raises.

* A sum is the loop's ``0.0 + v1 + v2 + ...`` in row order:
  ``np.bincount`` over each group's carried total followed by the batch's
  values adds them one by one (``np.add.reduceat`` sums pairwise, which
  rounds differently).
* ``min``/``max`` keep the first extreme row's own value.
* A batch the column evaluator cannot prove equal to the loop — a vector
  or char value in a field a table reads, an int past 2**53 meeting a
  float in ``/`` or a comparison, a possible int64 overflow, a zero
  divisor, bad ``bin()`` parameters or a non-finite ``bin()`` operand, a
  NaN key or a NaN ``min``/``max`` value
  (:class:`~repro.utils.statlang.NeedsRows`) — goes through the loop for
  all of its tables, into the same state.  Nothing else selects a path.

``ute-oracle``'s ``stats_parity`` check and ``tests/test_stats_columnar.py``
hold the two equal; :func:`reference_tables` is reached from them and from
that fallback only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.atomicio import atomic_write_bytes
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.errors import StatsError
from repro.query.columnar import FrameBatch, pack_keys
from repro.utils.statlang import (
    Column,
    NeedsRows,
    TableProgram,
    parse_program,
    require_key,
    require_number,
)

#: Number of time bins in the pre-defined per-bin tables (Figure 6).
PREVIEW_BINS = 50


@dataclass
class StatsTable:
    """One generated table: labels, rows keyed by the x tuple."""

    name: str
    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    rows: dict[tuple, tuple] = field(default_factory=dict)

    def to_tsv(self) -> str:
        """Render as tab-separated values with a header line."""
        lines = ["\t".join(self.x_labels + self.y_labels)]
        for key in sorted(self.rows):
            values = self.rows[key]
            lines.append(
                "\t".join(_fmt(v) for v in key) + "\t" + "\t".join(_fmt(v) for v in values)
            )
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> Path:
        """Write the TSV file (crash-safe: a write that fails leaves any
        previous file whole); returns its path."""
        return atomic_write_bytes(path, self.to_tsv().encode())

    def column(self, y_label: str) -> dict[tuple, Any]:
        """One dependent column keyed by x tuple (for tests and the viewer)."""
        idx = self.y_labels.index(y_label)
        return {k: v[idx] for k, v in self.rows.items()}


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


class _Accumulator:
    """Aggregation state for one (row, y) cell."""

    __slots__ = ("agg", "count", "total", "low", "high")

    def __init__(self, agg: str) -> None:
        self.agg = agg
        self.count = 0
        self.total = 0.0
        self.low: float | None = None
        self.high: float | None = None

    def add(self, value: Any) -> None:
        self.merge(1, self.total + value if self.agg in ("sum", "avg") else value)

    def merge(self, count: int, value: Any) -> None:
        """Fold ``count`` rows in at once: ``value`` is the running total
        with their values added (sum, avg) or the first of them holding
        their extreme (min, max)."""
        self.count += count
        if self.agg in ("sum", "avg"):
            self.total = value
        elif self.agg == "min":
            self.low = value if self.low is None else min(self.low, value)
        elif self.agg == "max":
            self.high = value if self.high is None else max(self.high, value)

    def result(self) -> Any:
        if self.agg == "count":
            return self.count
        if self.agg == "sum":
            return self.total
        if self.agg == "avg":
            return self.total / self.count if self.count else 0.0
        if self.agg == "min":
            return self.low if self.low is not None else 0
        return self.high if self.high is not None else 0


def record_env(
    record: IntervalRecord,
    ticks_per_sec: float,
    thread_table=None,
) -> dict[str, Any]:
    """The evaluation environment one record presents to expressions.

    Time fields are exposed in seconds; ``type`` and ``bebits`` are
    synthesized from the record's type word.  With a thread table, ``task``
    (the MPI task id of the record's thread, -1 for non-MPI threads) is
    synthesized too, so tables can aggregate per rank rather than per
    (node, thread).
    """
    env: dict[str, Any] = {
        "start": record.start / ticks_per_sec,
        "dura": record.duration / ticks_per_sec,
        "node": record.node,
        "cpu": record.cpu,
        "thread": record.thread,
        "type": record.itype,
        "bebits": int(record.bebits),
    }
    if thread_table is not None:
        try:
            env["task"] = thread_table.lookup(record.node, record.thread).mpi_task
        except Exception:
            env["task"] = -1
    for name, value in record.extra.items():
        if name == "localStart":
            env[name] = value / ticks_per_sec
        else:
            env[name] = value
    return env


#: Table state: per table, x tuple -> one accumulator per y, in the order
#: the tuples first occurred.
Cells = list[dict[tuple, list[_Accumulator]]]


def _parsed(programs: Iterable[TableProgram] | str) -> list[TableProgram]:
    return parse_program(programs) if isinstance(programs, str) else list(programs)


def _finish(programs: list[TableProgram], cells: Cells) -> list[StatsTable]:
    return [
        StatsTable(
            p.name,
            tuple(label for label, _ in p.xs),
            tuple(label for label, _, _ in p.ys),
            {k: tuple(acc.result() for acc in row) for k, row in cell.items()},
        )
        for p, cell in zip(programs, cells)
    ]


def _row_loop(records: Iterable[IntervalRecord], programs: list[TableProgram],
              cells: Cells, ticks_per_sec: float, thread_table) -> None:
    """Fold ``records`` into ``cells`` one record at a time.  A record whose
    environment lacks a field a table reads is skipped for that table."""
    for record in records:
        # One environment per record, shared by every program.
        env = record_env(record, ticks_per_sec, thread_table)
        for program, cell in zip(programs, cells):
            try:
                if program.condition is not None and not program.condition.eval(env):
                    continue
                key = tuple(expr.eval(env) for _, expr in program.xs)
                values = [expr.eval(env) for _, expr, _ in program.ys]
            except StatsError as exc:
                if "has no field" in str(exc):
                    continue
                raise
            for (_, expr), value in zip(program.xs, key):
                require_key(expr, value)
            for (_, expr, agg), value in zip(program.ys, values):
                if agg != "count":
                    require_number(expr, value, agg)
            row = cell.get(key)
            if row is None:
                row = cell[key] = [_Accumulator(agg) for _, _, agg in program.ys]
            for acc, value in zip(row, values):
                acc.add(value)


def reference_tables(
    records: Iterable[IntervalRecord],
    programs: Iterable[TableProgram] | str,
    *,
    ticks_per_sec: float = 1e9,
    thread_table=None,
) -> list[StatsTable]:
    """The tables :func:`generate_tables` must return, computed record at a
    time — what ``ute-oracle``'s ``stats_parity`` and the parity tests
    compare it with, and what a batch the columns cannot prove runs."""
    programs = _parsed(programs)
    cells: Cells = [{} for _ in programs]
    _row_loop(records, programs, cells, ticks_per_sec, thread_table)
    return _finish(programs, cells)


def generate_tables(
    batches: Iterable[FrameBatch],
    programs: Iterable[TableProgram] | str,
    *,
    ticks_per_sec: float = 1e9,
    thread_table=None,
) -> list[StatsTable]:
    """Run table programs over frame batches, batch by batch.

    ``programs`` may be a program string (parsed here) or pre-parsed
    specifications.  Records whose environment lacks a referenced field are
    skipped for that table (different record types carry different fields).
    Pass a ``thread_table`` to make the synthesized ``task`` field available
    in expressions.  The tables equal :func:`reference_tables`' (see the
    module docstring).
    """
    programs = _parsed(programs)
    cells: Cells = [{} for _ in programs]
    tasks: dict[tuple[int, int], Any] = {}
    for batch in batches:
        if not batch.n:
            continue
        try:
            with np.errstate(all="ignore"):
                env = _BatchEnv(batch, ticks_per_sec, thread_table, tasks)
                folds = [_evaluate(program, env) for program in programs]
        except NeedsRows:
            _row_loop(batch.to_records(), programs, cells, ticks_per_sec, thread_table)
            continue
        for fold, cell in zip(folds, cells):
            if fold is not None:
                fold.into(cell)
    return _finish(programs, cells)


#: The fields every record presents (``record_env``), by batch column.
_CORE = {"node": "node", "cpu": "cpu", "thread": "thread", "type": "itype",
         "bebits": "bebits", "start": "start", "dura": "dura"}


class _BatchEnv:
    """One batch's fields as :class:`~repro.utils.statlang.Column` s — what
    :func:`record_env` presents, row by row (a ``ColumnEnv``)."""

    def __init__(self, batch: FrameBatch, ticks_per_sec: Any, thread_table,
                 tasks: dict) -> None:
        rate = ticks_per_sec
        if not (
            type(rate) is float and rate != 0
            or type(rate) is int and 0 < abs(rate) <= 1 << 53
        ):
            raise NeedsRows  # record_env divides by it: zero raises, other types round apart
        self.batch = batch
        self.n = batch.n
        self.scope: np.ndarray | None = None
        self.rate = float(rate)
        self.int_rate = type(rate) is int
        self.thread_table = thread_table
        self.tasks = tasks
        self._fields: dict[str, Column] = {}
        # record_env converts every record's localStart, read or not.
        if batch.has_extra("localStart"):
            self.field("localStart")

    def field(self, name: str) -> Column:
        col = self._fields.get(name)
        if col is None:
            col = self._fields[name] = self._column(name)
        return col

    def _column(self, name: str) -> Column:
        if not (name in _CORE or name == "task" and self.thread_table is not None):
            extra = self.batch.extra_array(name)
            if extra is None:
                raise NeedsRows  # vector, char or mixed values
            values, present = extra
            kind = "float" if values.dtype == np.float64 else "int"
            if name == "localStart":
                return self._seconds(values, kind, present)
            return Column(values, kind, present)
        if self.batch.has_extra(name):
            raise NeedsRows  # an extra field overrides the synthesized one
        if name == "task":
            return Column(self._tasks(), "int")
        values = self.batch.core_array(_CORE[name])
        if values.dtype != np.int64:
            raise NeedsRows  # times past int64 sit in object columns
        if name in ("start", "dura"):
            return self._seconds(values, "int", None)
        return Column(values, "int")

    def _seconds(self, ticks: np.ndarray, kind: str, present) -> Column:
        """``ticks / ticks_per_sec`` as Python divides it."""
        if kind == "int" and self.int_rate:
            live = ticks if present is None else ticks[present]
            if len(live) and max(-int(live.min()), int(live.max())) > 1 << 53:
                raise NeedsRows  # int / int rounds the exact quotient once
        return Column(ticks.astype(np.float64) / self.rate, "float", present)

    def _tasks(self) -> np.ndarray:
        """The MPI task of each row's thread (-1 where the lookup fails)."""
        node, thread = self.batch.node, self.batch.thread
        pairs = pack_keys([node, thread])
        if pairs is None:
            raise NeedsRows
        _, first, inverse = np.unique(pairs, return_index=True, return_inverse=True)
        tasks = [
            self._task(key)
            for key in zip(node[first].tolist(), thread[first].tolist())
        ]
        if any(type(task) is not int for task in tasks):
            raise NeedsRows
        try:
            return np.array(tasks, dtype=np.int64)[inverse]
        except OverflowError:
            raise NeedsRows from None

    def _task(self, key: tuple[int, int]) -> Any:
        if key not in self.tasks:
            try:
                self.tasks[key] = self.thread_table.lookup(*key).mpi_task
            except Exception:
                self.tasks[key] = -1
        return self.tasks[key]


def _evaluate(program: TableProgram, env: _BatchEnv) -> "_Fold | None":
    """One table over one batch: the kept rows grouped on their x tuple,
    with the y columns (None when no row is kept)."""
    env.scope = None
    keep = None
    if program.condition is not None:
        cond = program.condition.columns(env)
        keep = cond.values if cond.kind == "bool" else cond.values != 0
        if cond.present is not None:
            keep = keep & cond.present
    # x and y are evaluated only where the condition held.
    env.scope = keep
    xs = [expr.columns(env) for _, expr in program.xs]
    ys = [expr.columns(env) for _, expr, _ in program.ys]
    for col in xs + ys:
        if col.present is not None:
            keep = col.present if keep is None else keep & col.present
    rows = None if keep is None or keep.all() else np.nonzero(keep)[0]
    if rows is not None and not len(rows):
        return None

    def kept(col: Column) -> np.ndarray:
        return col.values if rows is None else col.values[rows]

    keys = [(col.kind, kept(col)) for col in xs]
    values = [(agg, col.kind, kept(col)) for (_, _, agg), col in zip(program.ys, ys)]
    if any(
        kind == "float" and np.isnan(v).any()
        for kind, v in keys + [(kind, v) for agg, kind, v in values if agg in ("min", "max")]
    ):
        raise NeedsRows  # NaN keys and extremes depend on row order
    return _Fold(keys, values)


class _Fold:
    """One table's kept rows of one batch, grouped: the distinct x tuples in
    first-occurrence order, each row's group, and the y values."""

    def __init__(self, keys: list[tuple[str, np.ndarray]],
                 values: list[tuple[str, str, np.ndarray]]) -> None:
        codes = [
            np.unique(v, return_inverse=True)[1] if kind == "float" else v.astype(np.int64)
            for kind, v in keys
        ]
        packed = pack_keys(codes)
        if packed is None:  # too wide to pack at once: pack dense codes pairwise
            packed = np.zeros(len(codes[0]), dtype=np.int64)
            for code in codes:
                packed = pack_keys([_dense(packed), _dense(code)])
        _, first, inverse = np.unique(packed, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        firsts = first[order]
        self.keys = list(zip(*(v[firsts].tolist() for _, v in keys)))
        self.group = rank[inverse]
        self.values = values

    def into(self, cell: dict[tuple, list[_Accumulator]]) -> None:
        """Fold the batch into a table's state."""
        rows = []
        for key in self.keys:
            row = cell.get(key)
            if row is None:
                row = cell[key] = [_Accumulator(agg) for agg, _, _ in self.values]
            rows.append(row)
        counts = np.bincount(self.group, minlength=len(rows))
        for j, (agg, kind, values) in enumerate(self.values):
            accs = [row[j] for row in rows]
            if agg in ("sum", "avg"):
                folded = _running_totals([acc.total for acc in accs], values, self.group)
            elif agg in ("min", "max"):
                folded = _extremes(agg, kind, values, self.group, counts)
            else:
                folded = [None] * len(accs)
            for acc, count, value in zip(accs, counts.tolist(), folded):
                acc.merge(count, value)


def _running_totals(carried: list[float], values: np.ndarray, group: np.ndarray) -> list:
    """Each group's running total with its rows' values added in row order,
    one at a time as the loop adds them: bincount walks the carried totals
    first, then the rows."""
    return np.bincount(
        np.concatenate([np.arange(len(carried)), group]),
        np.concatenate([np.array(carried, dtype=np.float64), values.astype(np.float64)]),
        minlength=len(carried),
    ).tolist()


def _dense(codes: np.ndarray) -> np.ndarray:
    return np.unique(codes, return_inverse=True)[1]


def _extremes(agg: str, kind: str, values: np.ndarray, group: np.ndarray,
              counts: np.ndarray) -> list:
    """Per group, the value of its first row holding the minimum (maximum)."""
    order_by = values.astype(np.int64) if kind == "bool" else values
    ends = np.cumsum(counts)
    if agg == "min":
        # A stable sort keeps equal values in row order: take each group's first.
        pick = np.lexsort((order_by, group))[ends - counts]
    else:
        # Ties in descending row order: each group's last is its first maximum.
        pick = np.lexsort((-np.arange(len(values)), order_by, group))[ends - 1]
    return values[pick].tolist()


def drop_clock_pairs(batches: Iterable[FrameBatch]) -> Iterator[FrameBatch]:
    """``batches`` without their clock-pair rows (the statistics input);
    batches left empty are dropped."""
    for batch in batches:
        batch = batch.where(batch.itype != IntervalType.CLOCKPAIR)
        if batch.n:
            yield batch


def interval_records(
    paths: Iterable[str | Path],
    profile,
    *,
    window: tuple[float | None, float | None] | None = None,
    index: Any = "auto",
    io_log: dict[str, dict] | None = None,
) -> Iterator[FrameBatch]:
    """The records of several interval files (clock pairs dropped), as
    frame batches: each planned frame's matching rows, file after file.

    ``window`` is (t0, t1) in seconds; when set, records are filtered to
    it, and frames outside it are pruned when a fresh sidecar index sits
    next to the file (without one every frame is decoded — the frame
    directory alone never prunes).
    Pass a dict as ``io_log`` to collect **per-file** read accounting:
    once the batches are exhausted it maps each path to its reader's
    ``stats()`` (bytes fetched, fetch count, cache hits/misses) plus the
    plan mode and frame counts — every file's numbers, not just the last
    one's.  ``frames_decoded`` there is the cache-miss delta: frames the
    scan really decoded, not what the plan listed.
    """
    from repro.query.scan import open_scan

    for path in list(paths):
        with open_scan(path, profile, window=window, index=index) as s:
            yield from drop_clock_pairs(batch.where(mask) for batch, mask in s.batches())
            if io_log is not None:
                io_log[str(path)] = {
                    **s.handle.stats(),
                    "plan": s.plan.mode,
                    "frames_total": s.plan.total_frames,
                    "frames_decoded": s.io()["frames_decoded"],
                }


class CombinedThreadTable:
    """Thread lookup across several files' tables (first match wins).

    Pre-merge per-node interval files each carry only their own node's
    threads; stats over several of them needs one lookup surface so the
    synthesized ``task`` field resolves for every record.
    """

    def __init__(self, tables: Iterable[Any]) -> None:
        self.tables = [t for t in tables if t is not None]

    def lookup(self, node: int, logical_tid: int):
        for table in self.tables:
            try:
                return table.lookup(node, logical_tid)
            except Exception:
                continue
        raise StatsError(f"no thread entry for node {node} ltid {logical_tid}")


def source_metadata(
    paths: Iterable[str | Path], profile
) -> tuple[float, CombinedThreadTable]:
    """The tick rate and combined thread table of the stats inputs.

    All inputs must agree on ``ticks_per_sec`` (a 1 MHz file summed with a
    1 GHz file would silently mix units); disagreement raises
    :class:`StatsError`.  Only headers and tables are read — no records.
    """
    from repro.query.trace import open_trace

    rates: dict[float, str] = {}
    tables = []
    for path in paths:
        with open_trace(path, profile) as handle:
            rates.setdefault(handle.ticks_per_sec, str(path))
            tables.append(handle.thread_table)
    if len(rates) > 1:
        described = ", ".join(f"{p}={r:g}" for r, p in sorted(rates.items()))
        raise StatsError(f"inputs disagree on ticks_per_sec: {described}")
    rate = next(iter(rates), 1e9)
    return rate, CombinedThreadTable(tables)


def predefined_program(
    total_seconds: float, *, bins: int = PREVIEW_BINS, comm: bool = False
) -> str:
    """The program of :func:`predefined_tables` (``comm``: with the
    ``comm_matrix`` table, which needs a thread table).  The bin edge is
    written without an exponent, which the table language's numbers lack,
    and reads back as the same float."""
    if total_seconds <= 0:
        raise StatsError(f"total_seconds must be positive, got {total_seconds}")
    program = f"""
table name=interesting_by_node_bin
      condition=(type != {IntervalType.RUNNING})
      x=("node", node)
      x=("bin", bin(start, 0, {np.format_float_positional(total_seconds, unique=True)}, {bins}))
      y=("sum(duration)", dura, sum)
table name=duration_by_type
      x=("type", type)
      y=("count", dura, count)
      y=("sum(duration)", dura, sum)
      y=("avg(duration)", dura, avg)
table name=calls_by_node_type
      condition=(bebits == {int(BeBits.COMPLETE)} or bebits == {int(BeBits.BEGIN)})
      x=("node", node)
      x=("type", type)
      y=("calls", dura, count)
table name=bytes_by_node
      condition=(msgSizeSent > 0)
      x=("node", node)
      y=("bytesSent", msgSizeSent, sum)
      y=("messages", msgSizeSent, count)
"""
    if comm:
        program += f"""
table name=comm_matrix
      condition=(msgSizeSent > 0 and (bebits == {int(BeBits.COMPLETE)} or bebits == {int(BeBits.BEGIN)}))
      x=("srcTask", task)
      x=("dstTask", peer)
      y=("bytes", msgSizeSent, sum)
      y=("messages", msgSizeSent, count)
"""
    return program


def predefined_tables(
    batches: Iterable[FrameBatch],
    *,
    total_seconds: float,
    ticks_per_sec: float = 1e9,
    bins: int = PREVIEW_BINS,
    thread_table=None,
) -> list[StatsTable]:
    """The utility's pre-defined tables (generated when no user program is
    given), led by the Figure 6 table.

    * ``interesting_by_node_bin`` — sum of interesting-interval duration per
      node per ``bins`` equal time bins (interesting = not Running);
    * ``duration_by_type`` — count / total / average duration per state;
    * ``calls_by_node_type`` — properly counted calls per node per state
      (counting begin and complete pieces only, the bebits' purpose);
    * ``bytes_by_node`` — message bytes sent per node;
    * ``comm_matrix`` (with a thread table) — bytes and messages per
      (sending task, receiving task) pair.
    """
    program = predefined_program(
        total_seconds, bins=bins, comm=thread_table is not None
    )
    return generate_tables(
        batches, program, ticks_per_sec=ticks_per_sec, thread_table=thread_table
    )


def exact_rows(table: StatsTable) -> list[tuple[str, str]]:
    """A table's rows as ``(repr(key), repr(values))`` in insertion order —
    equal exactly when the keys, the values (to the bit), the Python type
    of each and the row order are."""
    return [(repr(key), repr(values)) for key, values in table.rows.items()]
