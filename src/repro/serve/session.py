"""The shared trace session: one SLOG file serving many requests.

A :class:`TraceSession` follows its trace through one
:class:`~repro.live.reader.FollowReader` — the finished SLOG file, or a
growing trace's pinned epoch until the writer assembles the file — whose
reader (byte source and frame cache) and query-layer
:class:`~repro.query.trace.TraceHandle` it shares with every request of the
daemon, plus the :class:`~repro.viz.jumpshot.Jumpshot` viewer built over
them.  A read lock serializes byte-source fetches — the frame store's lock
makes concurrent decodes sound, the session lock additionally keeps
multi-step operations (build a view over a frame's records) consistent.

The session also computes the ETag base: ``mtime_ns-size`` of the SLOG
file, or ``live-{seq}`` while it follows a growing trace; combined per
resource with a frame id or view kind, it yields strong ETags that change
whenever the file is replaced or an epoch is published.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.windows import window_to_ticks
from repro.errors import FormatError
from repro.live.reader import FollowReader
from repro.query.columnar import FrameBatch
from repro.query.model import Query
from repro.query.planner import MODE_INDEXED
from repro.query.scan import Scan, io_delta, scan
from repro.query.utilization import utilization_json, utilization_payload
from repro.utils.stats import drop_clock_pairs, generate_tables
from repro.viz.arrows import match_arrows
from repro.viz.interactive import view_payload
from repro.viz.jumpshot import VIEW_KINDS, Jumpshot
from repro.viz.preview import interesting_ranges

#: Default LRU capacity of the server's shared frame cache.
DEFAULT_SERVER_CACHE = 64


class FrameDecodeError(FormatError):
    """One frame of a served SLOG failed strict decode.

    Carries the frame index and a salvage probe of the damaged frame
    (:meth:`~repro.core.framestore.FrameStore.salvage_frame` output, as a dict),
    so the daemon can answer with a structured per-frame error payload —
    and keep serving every other frame — instead of failing the file."""

    def __init__(self, index: int, message: str, salvage: dict) -> None:
        super().__init__(message)
        self.index = index
        self.salvage = salvage


class TraceSession:
    """One SLOG file opened for serving: viewer + lock + ETag base.

    ``dataset`` names the repository dataset this session serves; it is
    folded into every ETag so two datasets whose files happen to be
    byte-identical (same mtime, same size) still produce distinct
    validators — a client can never revalidate one dataset's frame
    against another's.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        cache_frames: int = DEFAULT_SERVER_CACHE,
        dataset: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.dataset = dataset
        self._etag_prefix = f"{dataset}-" if dataset else ""
        self.follower = FollowReader(self.path, cache_frames=cache_frames)
        try:
            self._attach()
        except BaseException:
            self.follower.close()
            raise
        # Planner accounting, scraped by /metrics.
        self.index_frames_scanned = 0
        self.index_frames_pruned = 0
        self.index_fallbacks = 0
        self.lock = threading.RLock()

    def close(self) -> None:
        """Release the underlying byte source."""
        with self.lock:
            self.follower.close()

    @property
    def reader(self):
        """The frame store the session reads (where the repository installs
        its governor): the follower's reader."""
        return self.follower.reader

    @property
    def handle(self):
        """The query layer's frame-ordinal view over :attr:`reader`."""
        return self.follower.handle

    # ---------------------------------------------------------------- ETags

    def etag(self, tag: str) -> str:
        """A strong ETag for one resource of this file."""
        return f'"{self.etag_base}-{tag}"'

    # ------------------------------------------------------------- payloads
    # Every payload method takes the session lock: handlers run them on
    # executor threads, so one SlogFile safely backs concurrent requests.

    def preview_payload(self) -> dict[str, Any]:
        """State-counter bins plus interesting ranges (``/api/preview``)."""
        with self.lock:
            slog = self.reader
            itypes, matrix = slog.preview_matrix()
            t0, t1 = slog.time_range
            return {
                "bins": slog.preview_bins,
                "time_range": [t0 / slog.ticks_per_sec, t1 / slog.ticks_per_sec],
                "ticks_per_sec": slog.ticks_per_sec,
                "states": [
                    {
                        "type": itype,
                        "name": slog.profile.record_name(itype),
                        "seconds": [float(v) for v in matrix[:, j]],
                    }
                    for j, itype in enumerate(itypes)
                ],
                "interesting": [
                    [lo, hi] for lo, hi in interesting_ranges(self.viewer.preview)
                ],
            }

    def frames_payload(self) -> dict[str, Any]:
        """The frame directory (``/api/frames``)."""
        with self.lock:
            frames = self.viewer.frame_index()
            return {
                "file": self.path.name,
                "ticks_per_sec": self.reader.ticks_per_sec,
                "count": len(frames),
                "frames": frames,
            }

    def frame_payload(self, index: int, *, view: str | None = None) -> dict[str, Any]:
        """One frame's decoded records as a dict (the in-process form of
        ``/api/frame/{i}``); with ``view`` set, the records also come
        pre-built as a view payload the HTML viewer renders directly.  The
        daemon sends :meth:`frame_json`, which ``ute-oracle``'s
        ``payload_parity`` and ``tests/test_payload_json.py`` hold to
        ``json.dumps`` of this."""
        head, columns, view_part = self._frame_parts(index, view)
        head["records"] = _record_dicts(*columns, head["pseudo_count"])
        if view_part is not None:
            head["view"] = view_part
        return head

    def frame_json(self, index: int, *, view: str | None = None) -> str:
        """``json.dumps(self.frame_payload(index, view=view))``, byte for
        byte, written from the same columns without a dict or an object
        per record (``/api/frame/{i}``)."""
        head, columns, view_part = self._frame_parts(index, view)
        n_pseudo = head["pseudo_count"]
        texts = _record_texts(*columns, n_pseudo)
        if texts is None:
            records = json.dumps(_record_dicts(*columns, n_pseudo))
        else:
            records = "[" + ", ".join(texts) + "]"
        tail = "}" if view_part is None else ', "view": ' + json.dumps(view_part) + "}"
        return json.dumps(head)[:-1] + ', "records": ' + records + tail

    def _frame_parts(self, index: int, view: str | None):
        """What both frame answers are made of: the payload's head (every
        key ahead of ``records``), the frame's :func:`_frame_columns`, and
        the view payload (``None`` without ``view``)."""
        if view is not None and view not in VIEW_KINDS:
            raise FormatError(f"unknown view kind {view!r}; pick one of {VIEW_KINDS}")
        with self.lock:
            frame = self.viewer.frame_entry(index)
            batch = self._frame_batch_or_degrade(index, frame)
            tps = self.reader.ticks_per_sec
            head = {
                "index": index,
                "start": frame.start_time / tps,
                "end": frame.end_time / tps,
                "pseudo_count": frame.n_pseudo,
            }
            view_part = None
            if view is not None:
                view_part = view_payload(
                    self.viewer.build_view(batch, view), ticks_per_sec=tps
                )
                view_part["t0"] = frame.start_time
                view_part["t1"] = max(frame.end_time, frame.start_time + 1)
        return head, _frame_columns(batch), view_part

    def arrows_payload(self, index: int) -> dict[str, Any]:
        """Matched message arrows of one frame (``/api/arrows/{i}``)."""
        with self.lock:
            frame = self.viewer.frame_entry(index)
            batch = self._frame_batch_or_degrade(index, frame)
            tps = self.reader.ticks_per_sec
            return {
                "index": index,
                "arrows": [
                    {
                        "seqno": a.seqno,
                        "src": list(a.src_row),
                        "dst": list(a.dst_row),
                        "send": a.send_time / tps,
                        "recv": a.recv_time / tps,
                        "bytes": a.size,
                    }
                    for a in match_arrows(batch)
                ],
            }

    def view_svg(
        self, kind: str, at: float | tuple[float, float], *, width: int = 1100
    ) -> tuple[str, dict[str, int]]:
        """A rendered view plus the bytes-read delta of producing it:
        ``at`` an instant (seconds) is the frame display of
        ``/api/view/{kind}?t=...``, a ``(t0, t1)`` window that of
        ``?window=T0:T1``.  Dense views answer from the sidecar's
        utilization hierarchy, without frame IO, when it is available."""
        with self.lock:
            before = self.reader.stats()
            if isinstance(at, tuple):
                svg = self.viewer.view_svg_window(
                    *at, kind=kind, width=width, index=self.index
                )
            else:
                svg = self.viewer.view_svg_at(at, kind=kind, width=width, index=self.index)
            return svg, io_delta(before, self.reader.stats())

    def utilization_payload(
        self,
        kind: str = "thread",
        window: tuple[float, float] | None = None,
        max_bins: int = 512,
    ) -> dict[str, Any] | None:
        """Raw utilization cells over a window, as a dict (the in-process
        form of ``/api/utilization``) — pure aggregate lookups, zero trace
        IO.  ``None`` when the session has no sidecar utilization hierarchy
        (the handler answers 404)."""
        return self._utilization(utilization_payload, kind, window, max_bins)

    def utilization_json(
        self,
        kind: str = "thread",
        window: tuple[float, float] | None = None,
        max_bins: int = 512,
    ) -> str | None:
        """``json.dumps`` of :meth:`utilization_payload`, byte for byte,
        through :func:`~repro.query.utilization.utilization_json`."""
        return self._utilization(utilization_json, kind, window, max_bins)

    def _utilization(self, answer, kind: str, window, max_bins: int):
        with self.lock:
            util = getattr(self.index, "utilization", None)
            tps = self.reader.ticks_per_sec
            record_name = self.reader.profile.record_name
        if util is None:
            return None
        ticks = window_to_ticks(window, tps) if window else (util.t_min, util.t_max)
        return answer(util, kind, ticks, max_bins, tps, record_name)

    def stats_tables(
        self,
        program: str,
        window: tuple[float | None, float | None] | None = None,
    ) -> tuple[list, dict[str, Any], dict[str, int]]:
        """Run a statlang program (``/api/stats``), pruning the scan through
        the sidecar index when a ``window`` (seconds) is given.  Returns
        (tables, plan description, io delta)."""
        with self.lock:
            s = self._scan(window=window)
            tables = generate_tables(
                drop_clock_pairs(batch.where(mask) for batch, mask in s.batches()),
                program,
                ticks_per_sec=self.reader.ticks_per_sec,
                thread_table=self.reader.thread_table,
            )
            return tables, s.plan.describe(), s.io()

    def query_payload(
        self,
        query: Query,
        window: tuple[float | None, float | None] | None = None,
    ) -> dict[str, Any]:
        """Plan and run one query over the shared handle (``/api/query``).

        ``window`` is in seconds (converted with the file's tick rate and
        overriding the query's tick bounds).  The payload is
        :meth:`~repro.query.engine.QueryResult.to_payload`: the rows, the
        frame plan, and the scan's IO delta (:mod:`repro.query.scan`) for
        exactly this query.
        """
        with self.lock:
            s = self._scan(query, window=window)
            return s.result(file=self.path.name).to_payload()

    def export_chrome_chunks(self):
        """The trace as Chrome trace-event JSON, one byte chunk at a time
        (``/api/export/chrome``).  The iterator takes the session lock per
        frame — never across the whole export — so concurrent requests
        interleave with a long-running export instead of stalling behind
        it."""
        from repro.interop import iter_chrome_chunks

        name = self.dataset or self.path.name
        return iter_chrome_chunks(self.handle, source_name=name, lock=self.lock)

    def _scan(self, query: Query = Query(), window=None) -> Scan:
        """Plan one scan over the shared handle against the session index,
        keeping the counters the metrics endpoint scrapes.  Lock held by
        caller."""
        s = scan(
            self.handle, query, index=self.index,
            index_reason=self.index_reason, window=window,
        )
        self.index_frames_scanned += len(s.plan.frames)
        self.index_frames_pruned += s.plan.frames_pruned
        if s.plan.mode != MODE_INDEXED:
            self.index_fallbacks += 1
        return s

    def stats(self) -> dict[str, int]:
        """The SLOG file's cache/IO accounting (``/metrics`` reads this)."""
        with self.lock:
            return self.reader.stats()

    def frame_count(self) -> int:
        """Number of frames in the file."""
        return len(self.reader.frames)

    # --------------------------------------------------- memory accounting
    # The repository's global budget aggregates these across sessions.

    def resident_bytes(self) -> int:
        """Encoded bytes of the frames this session holds decoded."""
        return self.reader.resident_bytes()

    def reload_index(self) -> None:
        """Re-probe the sidecar index (a background build just published
        one); queries planned after this call prune through it."""
        with self.lock:
            self.index, self.index_reason = self.follower.fresh_index()

    # ------------------------------------------------------------- live mode

    def maybe_refresh(self) -> bool:
        """Move a live session to the latest published epoch, or — once the
        writer has assembled the trace — to the finished file, in place:
        open requests keep their pins, the repository never evicts over a
        finalization.  Returns True when the visible state advanced.  A
        finished session returns False at once."""
        if not self._following:
            return False
        with self.lock:
            if not self._following:
                return False
            changed = self.follower.refresh()
            if changed or not self.follower.live:
                # A new epoch or the switch; a switch whose attach failed
                # (a finished file that is not a SLOG) fails again here.
                self._attach()
            return changed

    def follow_state(self) -> dict[str, Any]:
        """The follow endpoints' notion of progress: epoch sequence,
        frame count, and whether the trace is finished."""
        with self.lock:
            follower = self.follower
            return {
                "live": follower.live,
                "seq": follower.seq,
                "finalized": follower.finalized,
                "frames": self.frame_count(),
            }

    def _attach(self) -> None:
        """Build what the session derives from what the follower shows —
        ETag base, viewer, sidecar index — refusing a finished file that is
        not a SLOG.  Lock held by caller (or the session is not shared yet)."""
        follower = self.follower
        if follower.handle.kind != "slog":
            raise FormatError(f"{self.path}: not a SLOG file")
        if follower.live:
            self.etag_base = f"{self._etag_prefix}live-{follower.seq}"
        else:
            stat = os.stat(self.path)
            self.etag_base = f"{self._etag_prefix}{stat.st_mtime_ns}-{stat.st_size}"
        self.viewer = Jumpshot(self.path, slog=follower.reader)
        self.index, self.index_reason = follower.fresh_index()
        #: Whether what the session shows may still change.
        self._following = follower.live

    # ------------------------------------------------------------ internals

    def _frame_batch_or_degrade(self, index: int, frame) -> FrameBatch:
        """Strictly decode one frame (the cached batch: read-only); on
        corruption, raise a :class:`FrameDecodeError` carrying the salvage
        probe instead of a bare FormatError, so only this frame degrades."""
        try:
            return self.reader.read_frame_batch(frame)
        except FormatError as exc:
            _records, probe = self.reader.salvage_frame(frame)
            raise FrameDecodeError(index, str(exc), probe.as_dict()) from exc


#: One record of a frame answer up to its extras, as ``json.dumps`` spells
#: it: (an ordinary record, a pseudo-interval lead-in).
_RECORD_HEADS = tuple(
    '{"type": %d, "bebits": %d, "start": %d, "end": %d, "node": %d, "cpu": %d, '
    f'"thread": %d, "pseudo": {pseudo}, "extra": {{'
    for pseudo in ("false", "true")
)


def _conversion(column) -> str | None:
    """How the JSON writer formats one extras column itself — ints, and
    floats when all are finite (``json.dumps`` spells the others its own
    way) — or None for a column it leaves to ``json.dumps``: the vector and
    char fields the decoder hands over as lists."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind in "iu":
            return "%d"
        if column.dtype.kind == "f" and np.isfinite(column).all():
            return "%r"
    return None


def _frame_columns(batch: FrameBatch) -> tuple[list[tuple], list[tuple]]:
    """A frame's records as the columns both answers are written from: per
    record ``(type, bebits, start, end, node, cpu, thread)``, and per
    extras group ``(rows, names, columns, conversions)`` — the batch's
    :meth:`~FrameBatch.extra_groups` as lists, each column with its
    :func:`_conversion`."""
    core = list(zip(*(
        column.tolist() for column in (
            batch.itype, batch.bebits, batch.start, batch.end,
            batch.node, batch.cpu, batch.thread,
        )
    )))
    groups = [
        (
            rows, names,
            [c.tolist() if isinstance(c, np.ndarray) else c for c in columns],
            [_conversion(c) for c in columns],
        )
        for rows, names, columns in batch.extra_groups()
    ]
    return core, groups


def _record_dicts(core: list[tuple], groups: list[tuple], n_pseudo: int) -> list[dict]:
    """The ``records`` of a frame payload as dicts; a record's ``extra``
    takes its keys group by group, as :attr:`IntervalRecord.extra` does."""
    extras: list[dict[str, Any]] = [{} for _ in core]
    for rows, names, columns, _ in groups:
        for name, column in zip(names, columns):
            for i, value in zip(rows, column):
                extras[i][name] = value
    return [
        {
            "type": itype, "bebits": bebits, "start": start, "end": end,
            "node": node, "cpu": cpu, "thread": thread,
            "pseudo": i < n_pseudo, "extra": extra,
        }
        for i, ((itype, bebits, start, end, node, cpu, thread), extra)
        in enumerate(zip(core, extras))
    ]


def _record_texts(core: list[tuple], groups: list[tuple], n_pseudo: int) -> list[str] | None:
    """The ``records`` of a frame payload as JSON texts, each what
    ``json.dumps`` makes of its :func:`_record_dicts` entry: one format
    per record, plus one per record of a group for its extras (the group's
    keys are part of its format string); a group holding a column without
    a :func:`_conversion` dumps each of its records' extras.  None when two
    groups cover one record — no decoder leaves that — for the caller to
    dump the dicts."""
    extras = [""] * len(core)
    for rows, names, columns, conversions in groups:
        if None in conversions:
            texts = (
                json.dumps(dict(zip(names, values)))[1:-1] for values in zip(*columns)
            )
        else:
            texts = map(", ".join(
                json.dumps(name).replace("%", "%%") + ": " + conversion
                for name, conversion in zip(names, conversions)
            ).__mod__, zip(*columns))
        for i, text in zip(rows, texts):
            if extras[i]:
                return None
            extras[i] = text
    ordinary, pseudo = _RECORD_HEADS
    heads = [pseudo % row for row in core[:n_pseudo]]
    heads += [ordinary % row for row in core[n_pseudo:]]
    return [head + extra + "}}" for head, extra in zip(heads, extras)]
