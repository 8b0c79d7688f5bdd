"""The pipeline oracle behind ``ute-oracle``.

The repo has several pairs of read paths that must answer identically over
the same trace; the oracle runs each pair and reports any disagreement as
a structured :class:`Finding`:

=====================  ====================================================
check                  the two paths compared
=====================  ====================================================
``strict_vs_salvage``  strict decode vs. ``errors="salvage"`` on clean
                       input (raw / interval / SLOG)
``indexed_vs_full``    the query engine with a freshly built index vs. the
                       forced full scan, over a canonical query set
``decode_parity``      the frame store (columnar batch decode, records
                       materialised from the batch) vs. the uncached
                       per-record reference decoder, on every frame:
                       record values, ``extra`` key order, batch columns —
                       and back: the batch re-encoded by the columnar
                       encoder vs. the frame's stored bytes
``columnar_vs_record`` the query executor (columnar batches) vs.
                       ``engine.reference_rows`` (record at a time through
                       the reference decoder), same plan, over the same
                       canonical query set (rows and rendered TSV must be
                       byte-identical)
``dump_vs_query``      ``ute-dump --window`` record selection vs. a
                       ``ute-query`` window over the same range
``aggregate_vs_exact`` the sidecar's utilization hierarchy (busy/count
                       cells at every level) vs. a brute-force
                       per-record, per-bin recompute on the same
                       absolute grid
``stats_parity``       ``generate_tables`` (columns, batch by batch) vs.
                       ``reference_tables`` (record at a time) for
                       ``ORACLE_PROGRAM`` and the pre-defined tables:
                       names, labels, rows, row order and the Python
                       type of every value — or the error both raise
``stats_vs_serve``     the in-process ``ute-stats`` path vs. the daemon's
                       ``/api/stats`` (SLOG only; spins an ephemeral
                       server on 127.0.0.1)
``payload_parity``     the two routes to one daemon payload (SLOG only):
                       ``/api/frame``'s and ``/api/utilization``'s bodies
                       as the daemon writes them from columns
                       (``frame_json``, ``utilization_json``) vs.
                       ``json.dumps`` of the in-process dict payloads, on
                       every frame (plain and with each view kind on the
                       first, middle and last) and both lane kinds at
                       four resolutions, whole run and windowed — the
                       bytes must be equal
``adjust_parity``      :class:`ClockAdjustment` vs.
                       :class:`PiecewiseAdjustment` on constant-rate
                       clock-pair sets (they must agree within one tick
                       of rounding)
``export_import_roundtrip``
                       every foreign-format adapter pair (Chrome
                       trace-event JSON, OTF2-style text): export ->
                       import -> ``ute-diff`` against the original must
                       be divergence-free modulo the adapter's declared
                       mask (pseudo-records, frame boundaries)
``convert_parity``     ``convert_one`` (event matching as column
                       arithmetic) vs. ``reference_convert_one`` (the
                       per-event state machine) on a raw trace: record
                       counts, marker table and the interval file's
                       bytes — or the error both refuse the trace with
=====================  ====================================================

A clean pipeline yields zero findings; any finding is a consistency bug.
The oracle never writes next to the input — indexes are built in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any

from repro.difftool.differ import (
    DiffConfig,
    DiffReport,
    diff_fieldmaps,
    load_comparable,
    sniff_kind,
)

#: The statlang program every stats comparison runs: core fields only, so
#: every record contributes and the tables exercise grouping + aggregation.
ORACLE_PROGRAM = (
    'table name=oracle_by_thread x=("node", node) x=("thread", thread) '
    'y=("pieces", dura, count) y=("busy", dura, sum)\n'
    'table name=oracle_by_type x=("type", type) '
    'y=("count", dura, count) y=("total", dura, sum)\n'
)


@dataclass
class Finding:
    """One observed disagreement between two equivalent paths."""

    check: str
    subject: str
    detail: str
    data: dict[str, Any] = dataclass_field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "subject": self.subject,
            "detail": self.detail,
            "data": self.data,
        }


@dataclass
class OracleReport:
    """Everything one oracle run over one trace observed."""

    path: str
    kind: str
    checks: list[str] = dataclass_field(default_factory=list)
    findings: list[Finding] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "kind": self.kind,
            "checks": list(self.checks),
            "ok": self.ok,
            "findings": [f.as_dict() for f in self.findings],
        }

    def summary(self) -> str:
        lines = [f"{self.path} ({self.kind}): checks={','.join(self.checks)}"]
        if self.ok:
            lines.append("  ok: all paths agree")
        for f in self.findings:
            lines.append(f"  FINDING [{f.check}] {f.subject}: {f.detail}")
        return "\n".join(lines)


# ----------------------------------------------------------------- checks


def _divergence_finding(check: str, subject: str, report: DiffReport) -> Finding:
    return Finding(
        check,
        subject,
        f"paths disagree: first divergence {report.first}",
        report.as_dict(),
    )


def _check_strict_vs_salvage(report: OracleReport, path: Path, profile) -> None:
    """Salvage mode on a clean file must see exactly what strict mode sees."""
    report.checks.append("strict_vs_salvage")
    kind, strict_rows = load_comparable(path, profile, errors="strict")
    _, salvage_rows = load_comparable(path, profile, errors="salvage")
    config = DiffConfig()
    diff = DiffReport(f"{path}[strict]", f"{path}[salvage]", kind, kind, config)
    diff_fieldmaps(
        [fields for fields, _ in strict_rows],
        [fields for fields, _ in salvage_rows],
        config,
        diff,
    )
    if not diff.identical:
        report.add(_divergence_finding("strict_vs_salvage", str(path), diff))


def _canonical_queries(path: Path, profile) -> list:
    """A query set covering the planner's pruning steps: plain scan,
    mid-trace window, a thread filter, a type filter, and a group-by —
    plus ``limit=0`` on a projection and on a grouped query (no rows)."""
    from repro.query.model import Aggregate, Query, ThreadSel
    from repro.query.trace import open_trace

    with open_trace(path, profile) as handle:
        if not handle.frames:
            span = (0, 0)
            thread = None
            itype = None
        else:
            t_min = min(f.start_time for f in handle.frames)
            t_max = max(f.end_time for f in handle.frames)
            third = (t_max - t_min) // 3
            span = (t_min + third, t_max - third)
            first = handle.read_frame(0)
            thread = (first[0].node, first[0].thread) if first else None
            itype = first[0].itype if first else None
    queries = [
        Query(),
        Query(t0=span[0], t1=max(span[0], span[1])),
        Query(
            group_by=("node",),
            aggregates=(
                Aggregate("count", "dura", "pieces"),
                Aggregate("sum", "dura", "busy"),
            ),
        ),
        # Sparse aggregates: msgSizeSent only exists on a few MPI types, so
        # groups without it must render empty cells (not fabricated zeros)
        # while the bare count still counts every matched record.
        Query(
            group_by=("type",),
            aggregates=(
                Aggregate("count", None, "count"),
                Aggregate("min", "msgSizeSent", "min(msgSizeSent)"),
                Aggregate("max", "msgSizeSent", "max(msgSizeSent)"),
                Aggregate("avg", "msgSizeSent", "avg(msgSizeSent)"),
            ),
        ),
        Query(limit=0),
        Query(
            group_by=("node",), aggregates=(Aggregate("count", None, "count"),), limit=0
        ),
    ]
    if thread is not None:
        queries.append(Query(threads=(ThreadSel(thread[0], thread[1]),)))
    if itype is not None:
        queries.append(Query(types=frozenset({itype})))
    return queries


def _check_indexed_vs_full(report: OracleReport, path: Path, profile) -> None:
    """A fresh in-memory index must never change query results."""
    from repro.query.indexfile import build_index
    from repro.query.scan import run_query
    from repro.query.trace import open_trace

    report.checks.append("indexed_vs_full")
    with open_trace(path, profile) as handle:
        index = build_index(handle)
    for i, query in enumerate(_canonical_queries(path, profile)):
        indexed = run_query(path, query, profile=profile, index=index)
        full = run_query(path, query, profile=profile, index=False)
        if indexed.rows != full.rows:
            report.add(
                Finding(
                    "indexed_vs_full",
                    f"{path} query#{i}",
                    f"indexed scan returned {len(indexed.rows)} rows, "
                    f"full scan {len(full.rows)} (or differing content)",
                    {
                        "query": query.describe(),
                        "indexed_plan": indexed.plan.describe(),
                        "full_plan": full.plan.describe(),
                    },
                )
            )


_CORE_COLUMNS = ("start", "dura", "end", "node", "cpu", "thread", "type", "bebits")


def _decode_mismatch(want: list, got: list, batch) -> str | None:
    """How one frame's store output differs from the reference decoder's
    records (``None`` when it does not)."""
    from repro.query.model import record_value

    if len(got) != len(want) or batch.n != len(want):
        return (
            f"reference decoded {len(want)} records, store {len(got)}, "
            f"batch {batch.n}"
        )
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            return f"record {i}: reference {a!r}, store {b!r}"
        if list(a.extra) != list(b.extra):
            return (
                f"record {i}: extra key order {list(b.extra)}, "
                f"reference {list(a.extra)}"
            )
    extras = dict.fromkeys(key for r in want for key in r.extra)
    for name in (*_CORE_COLUMNS, *extras):
        if batch.column_values(name) != [record_value(r, name) for r in want]:
            return f"batch column {name!r} differs from the reference records"
    return None


def _reencode_mismatch(stored: bytes, batch, profile, mask: int) -> str | None:
    """How ``batch`` re-encoded differs from the frame bytes it was decoded
    from (``None`` when it does not): the first differing record."""
    from repro.query.columnar import encode_frame_batch

    blob, sizes = encode_frame_batch(batch, profile, mask)
    if blob == stored:
        return None
    at = 0
    for i, size in enumerate(sizes.tolist()):
        if blob[at : at + size] != stored[at : at + size]:
            return (
                f"record {i}: re-encoded as {blob[at : at + size].hex()}, "
                f"stored {stored[at : at + size].hex()}"
            )
        at += size
    return f"re-encoded to {len(blob)} bytes, the frame stores {len(stored)}"


def _check_decode_parity(report: OracleReport, path: Path, profile) -> None:
    """Everything the frame store hands out must equal what the reference
    decoder reads from the same bytes — the store's batch decode is the
    only decode product paths use, so this is the check under all others —
    and must encode back to those bytes: the columnar encoder is the
    decoder's inverse, and what convert and slogmerge write through."""
    from repro.query.trace import open_trace

    report.checks.append("decode_parity")
    with open_trace(path, profile) as handle:
        for frame in handle.frames:
            batch = handle.read_frame_batch(frame.ordinal)
            problem = _decode_mismatch(
                handle.reference_frame(frame.ordinal),
                handle.read_frame(frame.ordinal),
                batch,
            ) or _reencode_mismatch(
                handle.source.fetch(frame.offset, frame.size),
                batch, handle.profile, handle.field_mask,
            )
            if problem is not None:
                report.add(
                    Finding("decode_parity", f"{path} frame {frame.ordinal}", problem)
                )


def _check_columnar_vs_record(report: OracleReport, path: Path, profile) -> None:
    """The executor must return exactly :func:`engine.reference_rows`'
    rows — and render the identical TSV — for every canonical query, both
    run over the same open scan."""
    from repro.query.engine import reference_rows, rows_tsv
    from repro.query.scan import open_scan

    report.checks.append("columnar_vs_record")
    for i, query in enumerate(_canonical_queries(path, profile)):
        with open_scan(path, profile, query, index=False) as s:
            record = reference_rows(s.handle, s.query, s.plan)
            columnar = s.rows()
        columns = query.output_columns()
        same_text = rows_tsv(columns, record) == rows_tsv(columns, columnar)
        if record != columnar or not same_text:
            mismatch = next(
                (
                    {"row": j, "record": list(a), "columnar": list(b)}
                    for j, (a, b) in enumerate(zip(record, columnar))
                    if a != b
                ),
                None,
            )
            report.add(
                Finding(
                    "columnar_vs_record",
                    f"{path} query#{i}",
                    f"reference returned {len(record)} rows, "
                    f"columnar {len(columnar)} (or differing content)",
                    {"query": query.describe(), "first_mismatch": mismatch},
                )
            )


def _window_for(path: Path, profile) -> tuple[float, float] | None:
    """A mid-trace window in seconds (middle third), None for empty files."""
    from repro.query.trace import open_trace

    with open_trace(path, profile) as handle:
        if not handle.frames:
            return None
        t_min = min(f.start_time for f in handle.frames)
        t_max = max(f.end_time for f in handle.frames)
        tps = handle.ticks_per_sec
    third = (t_max - t_min) / 3
    return ((t_min + third) / tps, (t_max - third) / tps)


def _dump_window_records(path: Path, profile, window) -> list[dict[str, Any]]:
    """The records ``ute-dump --window`` selects, as comparable field maps
    (the dump path's own frame selection + record predicate, unformatted)."""
    from repro.difftool.differ import _interval_fields
    from repro.query.trace import open_reader
    from repro.utils.dump import selected_records

    reader, _kind = open_reader(path, profile)
    with reader:
        _, records = selected_records(reader, None, window, path)
        return [_interval_fields(r) for r in records]


def _check_dump_vs_query(report: OracleReport, path: Path, profile) -> None:
    """The dump path's windowed record selection must equal the query
    engine's for the same window."""
    from repro.difftool.differ import _interval_fields
    from repro.query.scan import open_scan

    report.checks.append("dump_vs_query")
    window = _window_for(path, profile)
    if window is None:
        return
    dump_rows = _dump_window_records(path, profile, window)
    # index=None: the forced full scan, whatever sidecar sits next to the file.
    with open_scan(path, profile, window=window, index=None) as s:
        query_rows = [
            _interval_fields(r)
            for batch, mask in s.batches() for r in batch.where(mask).to_records()
        ]
    config = DiffConfig()
    diff = DiffReport(
        f"{path}[dump]", f"{path}[query]", report.kind, report.kind, config
    )
    diff_fieldmaps(dump_rows, query_rows, config, diff)
    if not diff.identical:
        report.add(_divergence_finding("dump_vs_query", str(path), diff))


def _tables_outcome(generate, records, program: str, **kwargs) -> tuple:
    """What one table generator gives: its tables row by row (exactly, see
    ``exact_rows``), or the type and message of what it raised."""
    from repro.errors import ReproError
    from repro.utils.stats import exact_rows

    try:
        tables = generate(records, program, **kwargs)
    except (ReproError, ArithmeticError, TypeError, ValueError) as exc:
        return ("raised", type(exc).__name__, str(exc))
    return tuple((t.name, t.x_labels, t.y_labels, exact_rows(t)) for t in tables)


def _check_stats_parity(report: OracleReport, path: Path, profile) -> None:
    """The columnar table generator must answer exactly as the
    record-at-a-time reference, on the oracle program and the pre-defined
    tables (a condition, ``bin()``, ``avg``, message fields, ``task``)."""
    from repro.utils.stats import (
        generate_tables,
        interval_records,
        predefined_program,
        reference_tables,
        source_metadata,
    )

    report.checks.append("stats_parity")
    ticks_per_sec, thread_table = source_metadata([path], profile)
    batches = list(interval_records([path], profile))
    end = max((int(b.end.max()) for b in batches), default=1)
    programs = {"oracle": ORACLE_PROGRAM}
    if end > 0:
        programs["predefined"] = predefined_program(end / ticks_per_sec, comm=True)
    kwargs = {"ticks_per_sec": ticks_per_sec, "thread_table": thread_table}
    for name, program in programs.items():
        columnar = _tables_outcome(generate_tables, batches, program, **kwargs)
        reference = _tables_outcome(
            reference_tables, [r for b in batches for r in b.to_records()], program, **kwargs
        )
        if columnar != reference:
            report.add(
                Finding(
                    "stats_parity",
                    f"{path}[{name}]",
                    "generate_tables differs from reference_tables",
                    {"columnar": repr(columnar), "reference": repr(reference)},
                )
            )


def _check_stats_vs_serve(report: OracleReport, path: Path, profile) -> None:
    """In-process stats over a SLOG must match the daemon's /api/stats."""
    import urllib.parse
    import urllib.request

    from repro.serve.app import ServerConfig, ServerThread
    from repro.utils.stats import generate_tables, interval_records, source_metadata

    report.checks.append("stats_vs_serve")
    ticks_per_sec, thread_table = source_metadata([path], profile)
    local = {
        t.name: [
            list(k) + list(t.rows[k]) for k in sorted(t.rows)
        ]
        for t in generate_tables(
            interval_records([path], profile),
            ORACLE_PROGRAM,
            ticks_per_sec=ticks_per_sec,
            thread_table=thread_table,
        )
    }
    with ServerThread(path, ServerConfig(port=0)) as server:
        url = (
            f"{server.base_url}/api/stats?format=json&table="
            + urllib.parse.quote(ORACLE_PROGRAM)
        )
        with urllib.request.urlopen(url) as response:
            payload = json.loads(response.read().decode())
    served = {t["name"]: [list(row) for row in t["rows"]] for t in payload["tables"]}
    if local != served:
        report.add(
            Finding(
                "stats_vs_serve",
                str(path),
                "ute-stats tables differ from /api/stats tables",
                {"local": local, "served": served},
            )
        )


def _check_payload_parity(report: OracleReport, path: Path, profile) -> None:
    """What the daemon writes from columns must be ``json.dumps`` of the
    dict payload it stands for, byte for byte.  The session reads the file
    as the daemon does; the index is built in memory."""
    from repro.query.indexfile import build_index
    from repro.serve.session import TraceSession
    from repro.viz.jumpshot import VIEW_KINDS

    report.checks.append("payload_parity")

    def compare(what: str, written: str, payload: Any) -> None:
        want = json.dumps(payload)
        if written != want:
            at = next(
                (i for i, (a, b) in enumerate(zip(written, want)) if a != b),
                min(len(written), len(want)),
            )
            report.add(Finding(
                "payload_parity", f"{path}: {what}",
                f"written body differs from json.dumps of the dict payload at byte {at}",
                {"written": written[max(at - 40, 0):at + 40],
                 "dumped": want[max(at - 40, 0):at + 40]},
            ))

    session = TraceSession(path)
    try:
        session.index = build_index(session.handle)
        count = session.frame_count()
        for index in range(count):
            compare(f"frame {index}", session.frame_json(index), session.frame_payload(index))
        for index in sorted({0, count // 2, count - 1} if count else ()):
            for kind in VIEW_KINDS:
                compare(
                    f"frame {index} view={kind}",
                    session.frame_json(index, view=kind),
                    session.frame_payload(index, view=kind),
                )
        if session.index.utilization is None:
            return  # a trace without records has no hierarchy to answer from
        window = _window_for(path, profile)
        for kind in ("thread", "cpu"):
            for bins in (1, 64, 512, 8192):
                for where in (None, window):
                    compare(
                        f"utilization lane={kind} bins={bins} window={where}",
                        session.utilization_json(kind, window=where, max_bins=bins),
                        session.utilization_payload(kind, window=where, max_bins=bins),
                    )
    finally:
        session.close()


def _check_export_import_roundtrip(report: OracleReport, path: Path, profile) -> None:
    """Every foreign-format adapter must round-trip the trace without
    divergence, modulo its declared mask.  Exports and reimports happen in
    a temp directory (the oracle never writes next to the input)."""
    import tempfile

    from repro.difftool.differ import diff_traces
    from repro.interop import (
        CHROME_ROUNDTRIP_CONFIG,
        OTF2_ROUNDTRIP_CONFIG,
        export_chrome_json,
        export_otf2_text,
        import_chrome_json,
        import_otf2_text,
    )
    from repro.query.trace import open_trace

    report.checks.append("export_import_roundtrip")
    with open_trace(path, profile) as handle:
        # Imported files are written against the original's own profile so
        # the differ's version check compares like against like.
        trace_profile = handle.profile
    with tempfile.TemporaryDirectory(prefix="ute-oracle-") as tmp:
        tmp_path = Path(tmp)
        adapters = (
            (
                "chrome-json",
                tmp_path / "export.json",
                export_chrome_json,
                import_chrome_json,
                CHROME_ROUNDTRIP_CONFIG,
            ),
            (
                "otf2-text",
                tmp_path / "export.txt",
                export_otf2_text,
                import_otf2_text,
                OTF2_ROUNDTRIP_CONFIG,
            ),
        )
        for name, foreign, exporter, importer, config in adapters:
            reimported = tmp_path / f"reimport-{name}.ute"
            exporter(path, foreign, profile=profile)
            importer(foreign, reimported, profile=trace_profile)
            diff = diff_traces(path, reimported, config, profile=trace_profile)
            if not diff.identical:
                report.add(
                    _divergence_finding(
                        "export_import_roundtrip", f"{path} via {name}", diff
                    )
                )


def _check_convert_parity(report: OracleReport, path: Path, profile) -> None:
    """Converting a raw trace as columns must write what the per-event
    state machine writes (into a temp directory, not next to the input)."""
    import tempfile

    from repro.core import standard_profile
    from repro.errors import ReproError
    from repro.tracing.rawfile import RawTraceReader
    from repro.utils.convert import MarkerUnifier, convert_one, reference_convert_one

    report.checks.append("convert_parity")
    profile = profile or standard_profile()
    outcomes = []
    with tempfile.TemporaryDirectory(prefix="ute-oracle-") as tmp:
        for convert in (convert_one, reference_convert_one):
            out = Path(tmp) / f"{convert.__name__}.ute"
            unifier = MarkerUnifier()
            try:
                with RawTraceReader(path) as reader:
                    counts = convert(reader, out, profile, unifier)
            except ReproError as exc:
                outcomes.append({"error": f"{type(exc).__name__}: {exc}"})
            else:
                outcomes.append(
                    {"counts": counts, "markers": unifier.table(), "bytes": out.read_bytes()}
                )
    columnar, reference = outcomes
    differing = [key for key in columnar.keys() | reference.keys()
                 if columnar.get(key) != reference.get(key)]
    if differing:
        report.add(Finding(
            "convert_parity", str(path),
            f"convert_one and reference_convert_one differ in {sorted(differing)}",
            {
                side: {k: v for k, v in outcome.items() if k != "bytes"}
                for side, outcome in (("columnar", columnar), ("reference", reference))
            },
        ))


#: Constant-rate clock-pair scenarios for the adjuster parity check:
#: (ratio, global origin, local origin) — drift-free, fast, and slow clocks.
ADJUST_SCENARIOS = ((1.0, 0, 0), (0.5, 1_000, 40), (2.0, 77, 123), (0.999, 5, 5))


def _check_aggregate_vs_exact(report: OracleReport, path: Path, profile) -> None:
    """The sidecar's utilization hierarchy vs. a direct recompute over
    columnar frame batches.

    Per finest-level cell: the per-state busy durations must equal the
    clipped overlap of every busy record with that bin, and the cell count
    must equal the number of busy records *starting* in the bin.  Every
    coarser level must be the exact sum of its two children.  Any
    difference means an aggregate-driven view would lie about the records
    below it.

    The recompute is deliberately brute force (per record, per bin) and
    reads the index only through :meth:`UtilizationIndex.level_cells`.
    """
    from repro.core.records import IntervalType
    from repro.query.indexfile import build_index
    from repro.query.trace import open_trace
    from repro.query.utilization import cpu_key, thread_key

    report.checks.append("aggregate_vs_exact")
    with open_trace(path, profile) as handle:
        util = build_index(handle).utilization
        if util is None:
            return
        k = util.base_shift
        exact: dict[str, dict[int, dict[int, list]]] = {"thread": {}, "cpu": {}}
        for frame in handle.frames:
            batch = handle.read_frame_batch(frame.ordinal)
            rows = zip(
                batch.start.tolist(), batch.end.tolist(), batch.dura.tolist(),
                batch.node.tolist(), batch.cpu.tolist(), batch.thread.tolist(),
                batch.itype.tolist(),
            )
            for start, end, dura, node, cpu, thread, itype in rows:
                if dura <= 0 or itype == IntervalType.CLOCKPAIR:
                    continue
                for lane_kind, key in (
                    ("thread", thread_key(node, thread)),
                    ("cpu", cpu_key(node, cpu)),
                ):
                    cells = exact[lane_kind].setdefault(key, {})
                    first, last = start >> k, (end - 1) >> k
                    for idx in range(first, last + 1):
                        bin_lo = idx << k
                        overlap = min(end, bin_lo + (1 << k)) - max(start, bin_lo)
                        cell = cells.get(idx)
                        if cell is None:
                            cell = cells[idx] = [0, {}]
                        states = cell[1]
                        states[itype] = states.get(itype, 0) + overlap
                    cells[first][0] += 1
        for lane_kind, want in exact.items():
            for level in range(util.n_levels):
                if level:
                    want = {key: _fold_exact(cells) for key, cells in want.items()}
                got = util.level_cells(lane_kind, level)
                want_cells = {
                    key: {idx: (c[0], c[1]) for idx, c in cells.items()}
                    for key, cells in want.items()
                }
                if got == want_cells:
                    continue
                bad = next(
                    key for key in sorted(set(got) | set(want_cells))
                    if got.get(key) != want_cells.get(key)
                )
                report.add(
                    Finding(
                        "aggregate_vs_exact",
                        f"{path} lane={lane_kind} key={bad} level={level}",
                        f"utilization level-{level} cells differ from the exact "
                        "windowed recompute",
                        {
                            "aggregate": repr(got.get(bad)),
                            "exact": repr(want_cells.get(bad)),
                        },
                    )
                )


def _fold_exact(cells: dict[int, list]) -> dict[int, list]:
    """One level up, by the definition: a parent bin is the exact sum of
    its two children (counts add, per-state busy adds)."""
    out: dict[int, list] = {}
    for idx, (count, states) in cells.items():
        parent = out.setdefault(idx >> 1, [0, {}])
        parent[0] += count
        for state, busy in states.items():
            parent[1][state] = parent[1].get(state, 0) + busy
    return out


def _check_adjust_parity(report: OracleReport) -> None:
    """On constant-rate clocks the piecewise adjuster must agree with the
    single-ratio adjuster: same adjust() within one tick of rounding, same
    adjust_duration() at every anchor."""
    from repro.clocksync.adjust import ClockAdjustment, PiecewiseAdjustment
    from repro.clocksync.ratio import ClockPair

    report.checks.append("adjust_parity")
    for ratio, g0, l0 in ADJUST_SCENARIOS:
        pairs = [
            ClockPair(global_ts=g0 + round(ratio * k * 10_000), local_ts=l0 + k * 10_000)
            for k in range(5)
        ]
        single = ClockAdjustment(pairs[0].global_ts, pairs[0].local_ts, ratio)
        piecewise = PiecewiseAdjustment(pairs)
        samples = [l0 - 5_000, l0, l0 + 3_333, l0 + 25_000, l0 + 49_999, l0 + 80_000]
        for ts in samples:
            delta = abs(single.adjust(ts) - piecewise.adjust(ts))
            if delta > 1:
                report.add(
                    Finding(
                        "adjust_parity",
                        f"ratio={ratio} ts={ts}",
                        f"adjust() differs by {delta} ticks on a constant-rate clock",
                        {"single": single.adjust(ts), "piecewise": piecewise.adjust(ts)},
                    )
                )
        for ts in samples:
            d_single = single.adjust_duration(9_999, at_local_ts=ts)
            d_piece = piecewise.adjust_duration(9_999, at_local_ts=ts)
            if d_single != d_piece:
                report.add(
                    Finding(
                        "adjust_parity",
                        f"ratio={ratio} at_local_ts={ts}",
                        f"adjust_duration() differs: {d_single} vs {d_piece}",
                        {},
                    )
                )


# -------------------------------------------------------------------- run


def run_oracle(
    path: str | Path,
    profile=None,
    *,
    serve: bool = True,
) -> OracleReport:
    """Run every applicable path-pair check over one trace artifact.

    Raw traces get the strict-vs-salvage, convert-parity and adjuster
    checks; interval and SLOG files get all the others (``payload_parity``
    and ``stats_vs_serve`` are SLOG-only, the latter skipped when ``serve``
    is false — e.g. in sandboxes without sockets).
    """
    path = Path(path)
    kind = sniff_kind(path)
    report = OracleReport(str(path), kind)
    _check_strict_vs_salvage(report, path, profile)
    if kind == "raw":
        _check_convert_parity(report, path, profile)
    if kind in ("interval", "slog"):
        _check_indexed_vs_full(report, path, profile)
        _check_decode_parity(report, path, profile)
        _check_columnar_vs_record(report, path, profile)
        _check_dump_vs_query(report, path, profile)
        _check_aggregate_vs_exact(report, path, profile)
        _check_export_import_roundtrip(report, path, profile)
        _check_stats_parity(report, path, profile)
    if kind == "slog":
        _check_payload_parity(report, path, profile)
    if kind == "slog" and serve:
        _check_stats_vs_serve(report, path, profile)
    _check_adjust_parity(report)
    return report
