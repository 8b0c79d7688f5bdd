"""The statistics generation utility (paper section 3.2).

Reads one or more interval files and generates tables specified in the
declarative language of :mod:`repro.utils.statlang`.  Output tables are
tab-separated-value text, exactly as the paper describes.

Given no user program, the utility generates the paper's pre-defined
tables, including the Figure 6 table: "the sum of the duration of
interesting intervals per node and per 50 equally sized time bins", where an
interesting interval is any state other than the default Running state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.errors import StatsError
from repro.utils.statlang import TableProgram, parse_program

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
        """Write the TSV file; returns its path."""
        path = Path(path)
        path.write_text(self.to_tsv())
        return path

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
        self.count += 1
        if self.agg in ("sum", "avg"):
            self.total += value
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


def generate_tables(
    records: Iterable[IntervalRecord],
    programs: Iterable[TableProgram] | str,
    *,
    ticks_per_sec: float = 1e9,
    thread_table=None,
) -> list[StatsTable]:
    """Run table programs over a record stream.

    ``programs`` may be a program string (parsed here) or pre-parsed
    specifications.  Records whose environment lacks a referenced field are
    skipped for that table (different record types carry different fields).
    Pass a ``thread_table`` to make the synthesized ``task`` field
    available in expressions.
    """
    if isinstance(programs, str):
        programs = parse_program(programs)
    programs = list(programs)
    tables = [
        StatsTable(
            p.name,
            tuple(label for label, _ in p.xs),
            tuple(label for label, _, _ in p.ys),
        )
        for p in programs
    ]
    cells: list[dict[tuple, list[_Accumulator]]] = [{} for _ in programs]
    for record in records:
        # One environment per record, shared by every program.
        env = record_env(record, ticks_per_sec, thread_table)
        for p_idx, program in enumerate(programs):
            try:
                if program.condition is not None and not program.condition.eval(env):
                    continue
                key = tuple(expr.eval(env) for _, expr in program.xs)
                values = [expr.eval(env) for _, expr, _ in program.ys]
            except StatsError as exc:
                if "has no field" in str(exc):
                    continue
                raise
            row = cells[p_idx].get(key)
            if row is None:
                row = [_Accumulator(agg) for _, _, agg in program.ys]
                cells[p_idx][key] = row
            for acc, value in zip(row, values):
                acc.add(value)
    for table, cell in zip(tables, cells):
        table.rows = {k: tuple(acc.result() for acc in row) for k, row in cell.items()}
    return tables


def interval_records(
    paths: Iterable[str | Path],
    profile,
    *,
    window: tuple[float | None, float | None] | None = None,
    index: Any = "auto",
    io_log: dict[str, dict] | None = None,
) -> Iterator[IntervalRecord]:
    """Stream records from several interval files (clock pairs dropped).

    ``window`` is (t0, t1) in seconds; when set, records are filtered to
    it, and frames outside it are pruned when a fresh sidecar index sits
    next to the file (without one every frame is decoded — the frame
    directory alone never prunes).
    Pass a dict as ``io_log`` to collect **per-file** read accounting:
    after the stream is exhausted it maps each path to its reader's
    ``stats()`` (bytes fetched, fetch count, cache hits/misses) plus the
    plan mode and frame counts — every file's numbers, not just the last
    one's.  ``frames_decoded`` there is the cache-miss delta: frames the
    scan really decoded, not what the plan listed.
    """
    from repro.query.scan import open_scan

    for path in paths:
        with open_scan(path, profile, window=window, index=index) as s:
            for record in s.records():
                if record.itype != IntervalType.CLOCKPAIR:
                    yield record
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


def predefined_tables(
    records: Iterable[IntervalRecord],
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
    if total_seconds <= 0:
        raise StatsError(f"total_seconds must be positive, got {total_seconds}")
    program = f"""
table name=interesting_by_node_bin
      condition=(type != {IntervalType.RUNNING})
      x=("node", node)
      x=("bin", bin(start, 0, {total_seconds!r}, {bins}))
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
    if thread_table is not None:
        program += f"""
table name=comm_matrix
      condition=(msgSizeSent > 0 and (bebits == {int(BeBits.COMPLETE)} or bebits == {int(BeBits.BEGIN)}))
      x=("srcTask", task)
      x=("dstTask", peer)
      y=("bytes", msgSizeSent, sum)
      y=("messages", msgSizeSent, count)
"""
    return generate_tables(
        records, program, ticks_per_sec=ticks_per_sec, thread_table=thread_table
    )
