"""Chrome trace-event JSON: export and import.

The export produces the `trace-event JSON object format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
that Perfetto and ``chrome://tracing`` open directly:

* one complete event (``"ph": "X"``) per interval record, on the
  ``pid``/``tid`` track of its node/thread, timestamped in microseconds
  derived from the file's tick rate;
* flow events (``"ph": "s"`` / ``"ph": "f"``) for every matched message
  arrow (the pairing of :class:`repro.viz.arrows.ArrowMatcher`);
* ``process_name`` / ``thread_name`` metadata records from the node and
  thread tables.

**Precision.** Microsecond floats cannot carry a 64-bit tick count: above
2\\ :sup:`53` ticks a JSON double silently rounds.  Every ``X`` event
therefore carries the *exact* tick values in ``args`` — ``startTicks`` and
``durTicks`` — emitted as JSON integers below 2\\ :sup:`53` and as decimal
strings at or above it (the pinned choice; see ``docs/INTEROP.md``).  The
importer reads those back, so the round trip is tick-exact regardless of
magnitude; ``ts``/``dur`` stay floats for the viewers.

**Streaming.** :func:`iter_chrome_chunks` emits the document frame by
frame without materializing the record stream: memory is one decoded
frame plus the (small) unmatched message-arrow state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.core.atomicio import AtomicFile
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.profilefmt import standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import (
    MAX_THREADS_PER_NODE,
    THREAD_TYPE_USER,
    ThreadEntry,
    ThreadTable,
)
from repro.core.writer import IntervalFileWriter
from repro.errors import FormatError
from repro.viz.arrows import ArrowMatcher

#: Ticks at or above this magnitude are emitted as decimal strings: a JSON
#: double (and therefore any JavaScript consumer) holds integers exactly
#: only below 2**53.
TICK_STRING_THRESHOLD = 2 ** 53

#: ``args`` keys the exporter owns; everything else in ``args`` is a
#: record extra field.
_RESERVED_ARGS = frozenset({"type", "bebits", "cpu", "startTicks", "durTicks"})


def _tick_value(ticks: int) -> int | str:
    """A tick count as a JSON-safe value (int, or string beyond 2**53)."""
    if -TICK_STRING_THRESHOLD < ticks < TICK_STRING_THRESHOLD:
        return ticks
    return str(ticks)


def _micros(ticks: int, ticks_per_sec: float) -> float:
    return ticks * 1e6 / ticks_per_sec


def _category(itype: int) -> str:
    if IntervalType.is_mpi(itype):
        return "mpi"
    if itype == IntervalType.MARKER:
        return "marker"
    if itype == IntervalType.CLOCKPAIR:
        return "clock"
    if itype == IntervalType.IO:
        return "io"
    if itype == IntervalType.PAGEFAULT:
        return "fault"
    return "state"


def _record_name(record: IntervalRecord, profile, markers: dict[int, str]) -> str:
    if record.itype == IntervalType.MARKER:
        marker = markers.get(record.extra.get("markerId", 0))
        if marker:
            return marker
    try:
        return profile.record_name(record.itype)
    except (FormatError, KeyError, IndexError):
        return f"type{record.itype}"


def _x_event(
    record: IntervalRecord, profile, markers: dict[int, str], ticks_per_sec: float
) -> dict[str, Any]:
    args: dict[str, Any] = {
        "type": record.itype,
        "bebits": int(record.bebits),
        "cpu": record.cpu,
        "startTicks": _tick_value(record.start),
        "durTicks": _tick_value(record.duration),
    }
    for key, value in record.extra.items():
        args[key] = list(value) if isinstance(value, (list, tuple)) else value
    return {
        "name": _record_name(record, profile, markers),
        "cat": _category(record.itype),
        "ph": "X",
        "pid": record.node,
        "tid": record.thread,
        "ts": _micros(record.start, ticks_per_sec),
        "dur": _micros(record.duration, ticks_per_sec),
        "args": args,
    }


def _metadata_events(thread_table, node_cpus) -> Iterator[dict[str, Any]]:
    nodes = set(node_cpus) | {e.node for e in thread_table}
    for node in sorted(nodes):
        yield {
            "name": "process_name", "ph": "M", "pid": node,
            "args": {"name": f"node{node}"},
        }
    for entry in thread_table:
        yield {
            "name": "thread_name", "ph": "M",
            "pid": entry.node, "tid": entry.logical_tid,
            "args": {"name": entry.name or f"thread{entry.logical_tid}"},
        }


def iter_chrome_chunks(
    handle,
    *,
    source_name: str | None = None,
    lock=None,
) -> Iterator[bytes]:
    """Stream one trace as Chrome trace-event JSON, in UTF-8 chunks.

    ``handle`` is a :class:`~repro.query.trace.TraceHandle`; each frame is
    decoded (under ``lock``, when given) only when its chunk is produced,
    so the whole trace is never resident.  The concatenated chunks are one
    valid JSON document.
    """
    profile = handle.profile
    ticks_per_sec = handle.ticks_per_sec
    markers = dict(handle.markers)
    other = {
        "generator": "ute-convert",
        "source": source_name or Path(handle.path).name,
        "ticksPerSec": ticks_per_sec,
        "fieldMask": handle.field_mask,
        "markers": {str(k): v for k, v in sorted(markers.items())},
        "nodeCpus": {str(k): v for k, v in sorted(handle.node_cpus.items())},
        "threads": [
            [e.mpi_task, e.pid, e.system_tid, e.node, e.logical_tid,
             e.thread_type, e.name]
            for e in handle.thread_table
        ],
    }
    head = (
        '{"displayTimeUnit": "ms",\n "otherData": '
        + json.dumps(other)
        + ',\n "traceEvents": [\n'
    )
    parts = [head]
    first = True
    for event in _metadata_events(handle.thread_table, handle.node_cpus):
        parts.append(("" if first else ",\n") + json.dumps(event))
        first = False
    yield "".join(parts).encode()

    flows = ArrowMatcher()
    for frame in handle.frames:
        if lock is not None:
            with lock:
                batch = handle.read_frame_batch(frame.ordinal)
        else:
            batch = handle.read_frame_batch(frame.ordinal)
        batch = batch.where((batch.bebits != BeBits.CONTINUATION) | (batch.dura != 0))
        flows.observe(batch)
        parts = []
        for record in batch.to_records():
            event = _x_event(record, profile, markers, ticks_per_sec)
            parts.append(("" if first else ",\n") + json.dumps(event))
            first = False
        if parts:
            yield "".join(parts).encode()

    parts = []
    for arrow in flows.arrows():
        common = {"name": "msg", "cat": "msg", "id": arrow.seqno}
        for event in (
            {
                **common, "ph": "s", "pid": arrow.src_row[0], "tid": arrow.src_row[1],
                "ts": _micros(arrow.send_time, ticks_per_sec),
            },
            {
                **common, "ph": "f", "bp": "e", "pid": arrow.dst_row[0],
                "tid": arrow.dst_row[1], "ts": _micros(arrow.recv_time, ticks_per_sec),
            },
        ):
            parts.append(("" if first else ",\n") + json.dumps(event))
            first = False
    parts.append("\n]}\n")
    yield "".join(parts).encode()


@dataclass
class ChromeExportResult:
    """What one export produced."""

    out_path: Path
    events: int
    records: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "out": str(self.out_path), "events": self.events,
            "records": self.records,
        }


def export_chrome_json(
    trace_path: str | Path,
    out_path: str | Path,
    *,
    profile=None,
) -> ChromeExportResult:
    """Export one ``.ute``/``.slog`` file to Chrome trace-event JSON.

    Streams frame by frame through :func:`iter_chrome_chunks` and
    publishes the document atomically (temp sibling + rename)."""
    from repro.query.trace import open_trace

    records = events = 0
    with open_trace(trace_path, profile) as handle:
        with AtomicFile(out_path) as out:
            for chunk in iter_chrome_chunks(handle):
                out.write(chunk)
                events += chunk.count(b'"ph"')
                records += chunk.count(b'"ph": "X"')
    return ChromeExportResult(Path(out_path), events, records)


# ---------------------------------------------------------------- import


@dataclass
class ChromeImportResult:
    """What one import produced and what salvage skipped."""

    out_path: Path
    records_written: int
    events_total: int
    events_skipped: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "out": str(self.out_path),
            "records": self.records_written,
            "events": self.events_total,
            "skipped": self.events_skipped,
        }


def _tick_int(value: Any, what: str) -> int:
    """An exact tick count back from its JSON spelling (int or string)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise FormatError(f"{what}: not a tick value: {value!r}")
    try:
        return int(value)
    except ValueError:
        raise FormatError(f"{what}: not a tick value: {value!r}") from None


def _type_by_name(profile) -> dict[str, int]:
    return {
        profile.record_name(itype): itype for itype in profile.record_types()
    }


class _ThreadAllocator:
    """Dense (node, logical_tid) assignment for foreign traces whose
    ``pid``/``tid`` values are arbitrary OS identifiers."""

    def __init__(self) -> None:
        self._map: dict[tuple[int, int], tuple[int, int]] = {}
        self._per_node: dict[int, int] = {}

    def key_for(self, pid: int, tid: int) -> tuple[int, int]:
        key = (pid, tid)
        if key not in self._map:
            logical = self._per_node.get(pid, 0)
            if logical >= MAX_THREADS_PER_NODE:
                raise FormatError(
                    f"more than {MAX_THREADS_PER_NODE} threads on pid {pid}"
                )
            self._per_node[pid] = logical + 1
            self._map[key] = (pid, logical)
        return self._map[key]

    def table(self) -> ThreadTable:
        table = ThreadTable()
        for (pid, tid), (node, logical) in sorted(
            self._map.items(), key=lambda kv: kv[1]
        ):
            table.add(
                ThreadEntry(
                    -1, pid, tid, node, logical, THREAD_TYPE_USER,
                    f"tid{tid}",
                )
            )
        return table


def _load_events(src_path: str | Path) -> tuple[list, dict[str, Any]]:
    try:
        with open(src_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{src_path}: not Chrome trace JSON: {exc}") from None
    if isinstance(doc, list):
        return doc, {}
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise FormatError(f"{src_path}: no traceEvents array")
        other = doc.get("otherData")
        return events, other if isinstance(other, dict) else {}
    raise FormatError(f"{src_path}: not Chrome trace JSON (top level {type(doc).__name__})")


def import_chrome_json(
    src_path: str | Path,
    out_path: str | Path,
    *,
    profile=None,
    errors: str = "strict",
    frame_bytes: int = 32 * 1024,
) -> ChromeImportResult:
    """Import a Chrome trace-event JSON file into an interval file.

    Files produced by :func:`export_chrome_json` round-trip exactly: the
    ``otherData`` block restores tick rate, field mask, and the thread /
    marker / node tables, and ``args`` restores every record field from
    exact tick integers.  Foreign Chrome traces are accepted on a
    best-effort basis: ``pid``/``tid`` become dense node/thread keys,
    event names map to record types by profile name (unknown names become
    marker regions), and timestamps are recovered from ``ts``/``dur``
    microseconds.  With ``errors="salvage"`` malformed events are skipped
    and counted instead of failing the file.
    """
    if errors not in ("strict", "salvage"):
        raise ValueError(f"errors must be 'strict' or 'salvage', not {errors!r}")
    profile = profile or standard_profile()
    events, other = _load_events(src_path)

    ticks_per_sec = float(other.get("ticksPerSec", 1e9))
    field_mask = int(other.get("fieldMask", MASK_ALL_PER_NODE))
    markers = {int(k): str(v) for k, v in (other.get("markers") or {}).items()}
    node_cpus = {int(k): int(v) for k, v in (other.get("nodeCpus") or {}).items()}
    exact_tables = isinstance(other.get("threads"), list)
    table = ThreadTable()
    if exact_tables:
        for row in other["threads"]:
            table.add(ThreadEntry(*row[:6], str(row[6])))
    allocator = _ThreadAllocator()
    types = _type_by_name(profile)
    next_marker = max(markers, default=0) + 1

    records: list[IntervalRecord] = []
    skipped = 0
    for index, event in enumerate(events):
        try:
            if not isinstance(event, dict) or event.get("ph") != "X":
                continue
            args = event.get("args") or {}
            pid = int(event.get("pid", 0))
            tid = int(event.get("tid", 0))
            if exact_tables:
                node, thread = pid, tid
            else:
                node, thread = allocator.key_for(pid, tid)
            if "startTicks" in args:
                start = _tick_int(args["startTicks"], "startTicks")
                duration = _tick_int(args.get("durTicks", 0), "durTicks")
            else:
                start = round(float(event["ts"]) * ticks_per_sec / 1e6)
                duration = round(float(event.get("dur", 0)) * ticks_per_sec / 1e6)
            extra = {
                k: (tuple_to_list(v))
                for k, v in args.items()
                if k not in _RESERVED_ARGS
            }
            if "type" in args:
                itype = int(args["type"])
            else:
                name = str(event.get("name", ""))
                itype = types.get(name, -1)
                if itype < 0:
                    itype = IntervalType.MARKER
                    marker_id = next(
                        (k for k, v in markers.items() if v == name), 0
                    )
                    if not marker_id:
                        marker_id = next_marker
                        markers[marker_id] = name
                        next_marker += 1
                    extra.setdefault("markerId", marker_id)
            bebits = BeBits(int(args.get("bebits", 0)))
            records.append(
                IntervalRecord(itype, bebits, start, duration, node,
                               int(args.get("cpu", 0)), thread, extra)
            )
        except (FormatError, KeyError, TypeError, ValueError) as exc:
            if errors == "strict":
                raise FormatError(
                    f"{src_path}: bad trace event #{index}: {exc}"
                ) from None
            skipped += 1
    if not exact_tables:
        table = allocator.table()

    # A stable sort restores the interval-file invariant (ascending end
    # time) while preserving the source order of ties — files produced by
    # our exporter come back in their exact original record order.
    records.sort(key=lambda r: r.end)
    with IntervalFileWriter(
        out_path, profile, table, markers=markers, node_cpus=node_cpus,
        field_mask=field_mask, frame_bytes=frame_bytes,
        ticks_per_sec=ticks_per_sec,
    ) as writer:
        for record in records:
            writer.write(record)
    return ChromeImportResult(Path(out_path), len(records), len(events), skipped)


def tuple_to_list(value: Any) -> Any:
    """JSON arrays become the list values vector fields decode to."""
    if isinstance(value, tuple):
        return list(value)
    return value
