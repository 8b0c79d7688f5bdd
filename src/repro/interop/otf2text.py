"""OTF2-style text event streams: export and import.

The dialect is the one ``otf2-print`` produces and downstream tools parse:
definition lines, then one event per line —

.. code-block:: text

    ENTER  1026  183003  Region: "MPI_Send"
      ADDITIONAL ATTRIBUTES: ("peer" <3>; INT64; 1), ("msgSizeSent" <4>; INT64; 4096)
    LEAVE  1026  183514  Region: "MPI_Send"

``ENTER``/``LEAVE`` carry a location (a global thread id), an integer
timestamp in ticks, and a region name; attribute lines ride on the event
above them.  Message events (``MPI_SEND``/``MPI_RECV``) are informational
— well-formed but unknown event types are counted and skipped, exactly
like real ``otf2-print`` output full of event types we don't model.

**Export** writes each interval record as an adjacent ``ENTER``/``LEAVE``
pair in file order, with the record's type, bebits, cpu, and every extra
field spelled out in ``ADDITIONAL ATTRIBUTES`` as exact integers (floats
via ``repr``) — so the importer rebuilds records tick-exactly and the
round trip is divergence-free modulo pseudo-records.

**Import** runs a per-location state machine: attributed pairs become
records directly; plain foreign ``ENTER``/``LEAVE`` nesting is resolved
with the converter's semantics (entering an inner region *suspends* the
outer one, producing BEGIN/CONTINUATION/END pieces).  ``errors="salvage"``
skips and counts malformed lines, unmatched ``LEAVE``\\ s, and auto-closes
regions left open by truncation; ``errors="strict"`` raises
:class:`~repro.errors.FormatError` on the first defect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO

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

# ------------------------------------------------------------------ lines

#: event-name, location, timestamp, attribute tail.
_EVENT_RE = re.compile(r"^(\S+)\s+(\d+)\s+(-?\d+)\s+(.*?)\s*$")
_REGION_RE = re.compile(r'Region:\s*"([^"]*)"')
_ADD_ATTR_LINE_RE = re.compile(r"^\s+ADDITIONAL ATTRIBUTES:\s*(.*?)\s*$")
_ADD_ATTR_SPLIT_RE = re.compile(r"\),\s*\(")
_ADD_ATTR_RE = re.compile(r'^\(?"([^"]*)"\s*<\d+>;\s*([^;]+);\s*([^\)]*)\)?$')

_CLOCK_RE = re.compile(
    r"^CLOCK_PROPERTIES\s+TicksPerSecond:\s*(\S+)(?:\s+FieldMask:\s*(\d+))?\s*$"
)
_MARKER_RE = re.compile(r'^MARKER\s+(\d+)\s+Name:\s*"([^"]*)"\s*$')
_GROUP_RE = re.compile(
    r'^LOCATION_GROUP\s+(\d+)\s+Name:\s*"([^"]*)"\s+Cpus:\s*(\d+)\s*$'
)
_LOCATION_RE = re.compile(
    r"^LOCATION\s+(\d+)\s+Group:\s*(-?\d+)\s+Thread:\s*(\d+)"
    r"\s+MpiTask:\s*(-?\d+)\s+Pid:\s*(\d+)\s+SystemTid:\s*(\d+)"
    r'\s+ThreadType:\s*(\d+)\s+Name:\s*"([^"]*)"\s*$'
)

#: Attribute names the exporter owns (everything else is a record extra).
_ATTR_TYPE = "ute::type"
_ATTR_BEBITS = "ute::bebits"
_ATTR_CPU = "ute::cpu"
_RESERVED_ATTRS = frozenset({_ATTR_TYPE, _ATTR_BEBITS, _ATTR_CPU})


def _loc_id(node: int, thread: int) -> int:
    """The global location id of a (node, logical thread) pair."""
    return node * MAX_THREADS_PER_NODE + thread


def _format_attr_value(value: Any) -> tuple[str, str]:
    """(TYPE token, value text) for one attribute value."""
    if isinstance(value, (list, tuple)):
        return "INT64[]", ", ".join(str(int(v)) for v in value)
    if isinstance(value, bool):
        return "INT64", str(int(value))
    if isinstance(value, int):
        return "INT64", str(value)
    if isinstance(value, float):
        return "DOUBLE", repr(value)
    return "STRING", '"%s"' % str(value)


def _parse_attr_value(type_token: str, text: str, what: str) -> Any:
    token = type_token.strip().upper()
    try:
        if token.endswith("[]"):
            text = text.strip()
            if not text:
                return []
            base = token[:-2]
            cast = float if base == "DOUBLE" else int
            return [cast(part.strip()) for part in text.split(",")]
        if token == "DOUBLE" or token == "FLOAT":
            return float(text)
        if token == "STRING":
            text = text.strip()
            if len(text) >= 2 and text[0] == '"' and text[-1] == '"':
                return text[1:-1]
            return text
        return int(text)
    except ValueError:
        raise FormatError(f"{what}: bad {token} attribute value {text!r}") from None


# ----------------------------------------------------------------- export


@dataclass
class Otf2ExportResult:
    """What one export produced."""

    out_path: Path
    records: int
    events: int
    lines: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "out": str(self.out_path), "records": self.records,
            "events": self.events, "lines": self.lines,
        }


def _attr_line(attrs: list[tuple[str, Any]], attr_ids: dict[str, int]) -> str:
    parts = []
    for name, value in attrs:
        if name not in attr_ids:
            attr_ids[name] = len(attr_ids)
        token, text = _format_attr_value(value)
        parts.append(f'("{name}" <{attr_ids[name]}>; {token}; {text})')
    return "  ADDITIONAL ATTRIBUTES: " + ", ".join(parts)


def iter_otf2_chunks(
    handle,
    *,
    source_name: str | None = None,
    lock=None,
) -> Iterator[bytes]:
    """Stream one trace as OTF2-style text, in UTF-8 chunks.

    ``handle`` is a :class:`~repro.query.trace.TraceHandle`; each frame is
    decoded (under ``lock``, when given) only when its chunk is produced.
    """
    profile = handle.profile
    markers = dict(handle.markers)
    lines = [
        "# OTF2-style text event stream exported by ute-convert from "
        + (source_name or Path(handle.path).name),
        "CLOCK_PROPERTIES TicksPerSecond: %s FieldMask: %d"
        % (repr(handle.ticks_per_sec), handle.field_mask),
    ]
    for marker_id in sorted(markers):
        lines.append('MARKER %d Name: "%s"' % (marker_id, markers[marker_id]))
    for node, cpus in sorted(handle.node_cpus.items()):
        lines.append('LOCATION_GROUP %d Name: "node%d" Cpus: %d' % (node, node, cpus))
    for e in handle.thread_table:
        lines.append(
            'LOCATION %d Group: %d Thread: %d MpiTask: %d Pid: %d '
            'SystemTid: %d ThreadType: %d Name: "%s"'
            % (_loc_id(e.node, e.logical_tid), e.node, e.logical_tid,
               e.mpi_task, e.pid, e.system_tid, e.thread_type, e.name)
        )
    yield ("\n".join(lines) + "\n").encode()

    attr_ids: dict[str, int] = {}
    for frame in handle.frames:
        if lock is not None:
            with lock:
                records = handle.read_frame(frame.ordinal)
        else:
            records = handle.read_frame(frame.ordinal)
        lines = []
        for record in records:
            if record.is_pseudo:
                continue
            loc = _loc_id(record.node, record.thread)
            if record.itype == IntervalType.MARKER:
                region = markers.get(record.extra.get("markerId", 0), "Marker")
            else:
                try:
                    region = profile.record_name(record.itype)
                except FormatError:
                    region = f"type{record.itype}"
            attrs = [
                (_ATTR_TYPE, record.itype),
                (_ATTR_BEBITS, int(record.bebits)),
                (_ATTR_CPU, record.cpu),
            ]
            attrs.extend(record.extra.items())
            lines.append('ENTER %d %d Region: "%s"' % (loc, record.start, region))
            lines.append(_attr_line(attrs, attr_ids))
            # Informational message events, the way otf2-print shows them;
            # importers skip-and-count these (they are derivable from the
            # attributed intervals).
            if record.extra.get("msgSizeSent", 0) > 0:
                lines.append(
                    "MPI_SEND %d %d Receiver: %d, Tag: %d, Length: %d"
                    % (loc, record.start, record.extra.get("peer", 0),
                       record.extra.get("tag", 0), record.extra["msgSizeSent"])
                )
            if record.extra.get("msgSizeRecv", 0) > 0:
                lines.append(
                    "MPI_RECV %d %d Sender: %d, Tag: %d, Length: %d"
                    % (loc, record.end, record.extra.get("peer", 0),
                       record.extra.get("tag", 0), record.extra["msgSizeRecv"])
                )
            lines.append('LEAVE %d %d Region: "%s"' % (loc, record.end, region))
        if lines:
            yield ("\n".join(lines) + "\n").encode()


def export_otf2_text(
    trace_path: str | Path,
    out_path: str | Path,
    *,
    profile=None,
) -> Otf2ExportResult:
    """Export one ``.ute``/``.slog`` file to OTF2-style text (atomic)."""
    from repro.query.trace import open_trace

    records = events = lines = 0
    with open_trace(trace_path, profile) as handle:
        with AtomicFile(out_path) as out:
            for chunk in iter_otf2_chunks(handle):
                out.write(chunk)
                lines += chunk.count(b"\n")
                events += chunk.count(b"\nENTER ") + chunk.count(b"\nLEAVE ")
                records += chunk.count(b"\nLEAVE ")
                if chunk.startswith(b"ENTER "):
                    events += 1
                if chunk.startswith(b"LEAVE "):
                    events += 1
                    records += 1
    return Otf2ExportResult(Path(out_path), records, events, lines)


# ----------------------------------------------------------------- import


@dataclass
class TextSalvageReport:
    """What salvage-mode import skipped or repaired."""

    lines_total: int = 0
    events: int = 0
    ignored_events: int = 0
    malformed_lines: int = 0
    unmatched_leaves: int = 0
    autoclosed_regions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "lines_total": self.lines_total,
            "events": self.events,
            "ignored_events": self.ignored_events,
            "malformed_lines": self.malformed_lines,
            "unmatched_leaves": self.unmatched_leaves,
            "autoclosed_regions": self.autoclosed_regions,
        }


@dataclass
class Otf2ImportResult:
    """What one import produced."""

    out_path: Path
    records_written: int
    salvage: TextSalvageReport

    def as_dict(self) -> dict[str, Any]:
        return {
            "out": str(self.out_path),
            "records": self.records_written,
            "salvage": self.salvage.as_dict(),
        }


@dataclass
class _OpenRegion:
    """One entry of a location's region stack."""

    region: str
    enter_ts: int
    attrs: dict[str, Any]
    direct: bool
    #: Completed (start, end) pieces of a suspended foreign region.
    pieces: list = dataclass_field(default_factory=list)
    #: Start of the currently running piece (None while suspended).
    piece_start: int | None = None


class _LocationMachine:
    """Per-location region-stack state machine (converter semantics:
    entering an inner region suspends the outer one)."""

    def __init__(self, loc: int) -> None:
        self.loc = loc
        self.stack: list[_OpenRegion] = []
        self.last_ts = 0

    def enter(self, ts: int, region: str, attrs: dict[str, Any]) -> None:
        self.last_ts = max(self.last_ts, ts)
        direct = _ATTR_TYPE in attrs
        if self.stack and not direct:
            top = self.stack[-1]
            if not top.direct and top.piece_start is not None:
                if ts > top.piece_start:
                    top.pieces.append((top.piece_start, ts))
                top.piece_start = None
        self.stack.append(
            _OpenRegion(region, ts, attrs, direct,
                        piece_start=None if direct else ts)
        )

    def leave(self, ts: int, region: str) -> _OpenRegion | None:
        """Close the top region; returns it, or ``None`` on a mismatch."""
        self.last_ts = max(self.last_ts, ts)
        if not self.stack or self.stack[-1].region != region:
            return None
        top = self.stack.pop()
        if not top.direct:
            start = top.piece_start if top.piece_start is not None else ts
            if ts > start or not top.pieces:
                top.pieces.append((start, ts))
            if self.stack and not self.stack[-1].direct:
                self.stack[-1].piece_start = ts
        return top


class _Importer:
    def __init__(self, profile, errors: str) -> None:
        self.profile = profile
        self.errors = errors
        self.report = TextSalvageReport()
        self.ticks_per_sec = 1e9
        self.field_mask = MASK_ALL_PER_NODE
        self.markers: dict[int, str] = {}
        self.node_cpus: dict[int, int] = {}
        self.locations: dict[int, tuple[int, int]] = {}
        self.table = ThreadTable()
        self.machines: dict[int, _LocationMachine] = {}
        self.records: list[tuple[int, IntervalRecord]] = []
        self._order = 0
        self._types = {
            profile.record_name(t): t for t in profile.record_types()
        }
        self._next_marker = 1

    # -------------------------------------------------------------- helpers

    def _fail(self, lineno: int, message: str) -> bool:
        """Strict: raise.  Salvage: count the malformed line, move on."""
        if self.errors == "strict":
            raise FormatError(f"line {lineno}: {message}")
        self.report.malformed_lines += 1
        return False

    def _machine(self, loc: int) -> _LocationMachine:
        machine = self.machines.get(loc)
        if machine is None:
            machine = self.machines[loc] = _LocationMachine(loc)
        return machine

    def _node_thread(self, loc: int) -> tuple[int, int]:
        if loc in self.locations:
            return self.locations[loc]
        # No LOCATION definition: derive from the exporter's dense id
        # formula so our own files work even with the header stripped.
        node, thread = divmod(loc, MAX_THREADS_PER_NODE)
        self.locations[loc] = (node, thread)
        self.table.add(
            ThreadEntry(-1, 0, loc, node, thread, THREAD_TYPE_USER, f"loc{loc}")
        )
        return node, thread

    def _region_type(self, region: str) -> tuple[int, dict[str, Any]]:
        """(interval type, implied extras) of a foreign region name."""
        itype = self._types.get(region)
        if itype is not None:
            return itype, {}
        for marker_id, name in self.markers.items():
            if name == region:
                return IntervalType.MARKER, {"markerId": marker_id}
        while self._next_marker in self.markers:
            self._next_marker += 1
        marker_id = self._next_marker
        self.markers[marker_id] = region
        return IntervalType.MARKER, {"markerId": marker_id}

    def _emit(self, record: IntervalRecord) -> None:
        self.records.append((self._order, record))
        self._order += 1

    # ------------------------------------------------------------ the lines

    def definition_line(self, lineno: int, line: str) -> bool:
        """Try the definition grammar; ``True`` if the line was one."""
        m = _CLOCK_RE.match(line)
        if m:
            try:
                self.ticks_per_sec = float(m.group(1))
            except ValueError:
                return self._fail(lineno, f"bad tick rate {m.group(1)!r}") or True
            if m.group(2) is not None:
                self.field_mask = int(m.group(2))
            return True
        m = _MARKER_RE.match(line)
        if m:
            self.markers[int(m.group(1))] = m.group(2)
            return True
        m = _GROUP_RE.match(line)
        if m:
            self.node_cpus[int(m.group(1))] = int(m.group(3))
            return True
        m = _LOCATION_RE.match(line)
        if m:
            loc, node, thread = int(m.group(1)), int(m.group(2)), int(m.group(3))
            self.locations[loc] = (node, thread)
            self.table.add(
                ThreadEntry(int(m.group(4)), int(m.group(5)), int(m.group(6)),
                            node, thread, int(m.group(7)), m.group(8))
            )
            return True
        return False

    def parse_attrs(self, lineno: int, tail: str) -> dict[str, Any] | None:
        attrs: dict[str, Any] = {}
        for part in _ADD_ATTR_SPLIT_RE.split(tail):
            m = _ADD_ATTR_RE.match(part.strip())
            if not m:
                self._fail(lineno, f"bad attribute {part.strip()!r}")
                return None
            try:
                attrs[m.group(1)] = _parse_attr_value(
                    m.group(2), m.group(3), f"line {lineno}"
                )
            except FormatError as exc:
                self._fail(lineno, str(exc))
                return None
        return attrs

    def event(self, lineno: int, name: str, loc: int, ts: int,
              tail: str, attrs: dict[str, Any]) -> None:
        self.report.events += 1
        if name not in ("ENTER", "LEAVE"):
            # Real otf2-print output is full of event types we don't
            # model (message, metric, RMA ...): well-formed, skipped,
            # counted — in strict mode too.
            self.report.ignored_events += 1
            return
        m = _REGION_RE.search(tail)
        if not m:
            self._fail(lineno, f"{name} without Region")
            return
        region = m.group(1)
        machine = self._machine(loc)
        if name == "ENTER":
            machine.enter(ts, region, attrs)
            return
        top = machine.leave(ts, region)
        if top is None:
            if self.errors == "strict":
                raise FormatError(
                    f"line {lineno}: LEAVE {region!r} does not match the "
                    f"open region of location {loc}"
                )
            self.report.unmatched_leaves += 1
            return
        self._close(loc, top, ts)

    def _close(self, loc: int, top: _OpenRegion, ts: int) -> None:
        node, thread = self._node_thread(loc)
        if top.direct:
            extra = {
                k: v for k, v in top.attrs.items() if k not in _RESERVED_ATTRS
            }
            self._emit(IntervalRecord(
                int(top.attrs[_ATTR_TYPE]),
                BeBits(int(top.attrs.get(_ATTR_BEBITS, 0))),
                top.enter_ts, ts - top.enter_ts, node,
                int(top.attrs.get(_ATTR_CPU, 0)), thread, extra,
            ))
            return
        itype, implied = self._region_type(top.region)
        extra_base = {
            k: v for k, v in top.attrs.items() if k not in _RESERVED_ATTRS
        }
        pieces = top.pieces
        if len(pieces) > 2:
            # Interior zero-length pieces carry no time; drop them, the
            # way the raw-trace converter does.
            pieces = [pieces[0]] + [
                p for p in pieces[1:-1] if p[1] > p[0]
            ] + [pieces[-1]]
        for i, (start, end) in enumerate(pieces):
            if len(pieces) == 1:
                bebits = BeBits.COMPLETE
            elif i == 0:
                bebits = BeBits.BEGIN
            elif i == len(pieces) - 1:
                bebits = BeBits.END
            else:
                bebits = BeBits.CONTINUATION
            self._emit(IntervalRecord(
                itype, bebits, start, end - start, node, 0, thread,
                dict(implied, **extra_base),
            ))

    def finish(self) -> None:
        """End of stream: every still-open region is a defect."""
        for loc in sorted(self.machines):
            machine = self.machines[loc]
            while machine.stack:
                if self.errors == "strict":
                    top = machine.stack[-1]
                    raise FormatError(
                        f"region {top.region!r} on location {loc} never left"
                    )
                top = machine.leave(machine.last_ts, machine.stack[-1].region)
                assert top is not None
                self.report.autoclosed_regions += 1
                self._close(loc, top, machine.last_ts)


def _parse_stream(lines: Iterable[str], importer: _Importer) -> None:
    pending: tuple[int, str, int, int, str] | None = None

    def dispatch(attrs: dict[str, Any]) -> None:
        nonlocal pending
        if pending is not None:
            importer.event(*pending, attrs)
            pending = None

    lineno = 0
    for lineno, raw in enumerate(lines, 1):
        importer.report.lines_total += 1
        line = raw.rstrip("\n")
        attr_match = _ADD_ATTR_LINE_RE.match(line)
        if attr_match:
            if pending is None:
                importer._fail(lineno, "attribute line without an event")
                continue
            attrs = importer.parse_attrs(lineno, attr_match.group(1))
            if attrs is None:
                pending = None  # salvage: the event is as bad as its attrs
                continue
            dispatch(attrs)
            continue
        dispatch({})
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if importer.definition_line(lineno, line):
            continue
        event_match = _EVENT_RE.match(line)
        if not event_match:
            importer._fail(lineno, f"unparseable line {line.strip()!r}")
            continue
        pending = (
            lineno, event_match.group(1), int(event_match.group(2)),
            int(event_match.group(3)), event_match.group(4),
        )
    dispatch({})
    importer.finish()


def import_otf2_text(
    src: str | Path | TextIO,
    out_path: str | Path,
    *,
    profile=None,
    errors: str = "strict",
    frame_bytes: int = 32 * 1024,
) -> Otf2ImportResult:
    """Import an OTF2-style text stream into an interval file.

    ``src`` is a path or an open text stream.  Files produced by
    :func:`export_otf2_text` round-trip tick-exactly (the definition
    header restores clock, mask, markers, nodes, and thread identity;
    attributes restore every record field).  Foreign streams get the
    converter's region-nesting semantics and, with ``errors="salvage"``,
    defect counting instead of failure — see :class:`TextSalvageReport`.
    """
    if errors not in ("strict", "salvage"):
        raise ValueError(f"errors must be 'strict' or 'salvage', not {errors!r}")
    importer = _Importer(profile or standard_profile(), errors)
    if hasattr(src, "read"):
        _parse_stream(src, importer)
    else:
        with open(src, "r", encoding="utf-8", errors="replace") as fh:
            _parse_stream(fh, importer)

    # Stable sort restores the ascending-end-time invariant while keeping
    # the stream order of ties — exporter output comes back in its exact
    # original record order.
    importer.records.sort(key=lambda pair: (pair[1].end, pair[0]))
    with IntervalFileWriter(
        out_path, importer.profile, importer.table,
        markers=importer.markers, node_cpus=importer.node_cpus,
        field_mask=importer.field_mask, frame_bytes=frame_bytes,
        ticks_per_sec=importer.ticks_per_sec,
    ) as writer:
        for _, record in importer.records:
            writer.write(record)
    return Otf2ImportResult(Path(out_path), len(importer.records), importer.report)
