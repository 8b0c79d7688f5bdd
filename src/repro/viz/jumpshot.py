"""The combined viewer: preview + frame index + frame display.

Mirrors the paper's modified Jumpshot workflow (section 4):

1. On open, the viewer presents a **preview** of the whole run from the
   SLOG state counters.
2. The user selects an instant; the **frame index** locates the containing
   frame without reading anything ahead of it.
3. The frame's records — completed by its **pseudo-interval** lead-ins — are
   drawn as any of the four time-space views.

Frame display cost depends only on frame size, never total file size
("scalability in the time it takes to display this frame").
"""

from __future__ import annotations

import weakref
from pathlib import Path

import numpy as np

from repro.core.reader import DEFAULT_FRAME_CACHE
from repro.core.windows import seconds_to_ticks, window_to_ticks
from repro.errors import FormatError
from repro.query.columnar import FrameBatch, concat_batches
from repro.utils.slog import SlogFile, SlogFrameEntry
from repro.viz.arrows import match_arrows
from repro.viz.preview import Preview, interesting_ranges
from repro.viz.views import (
    PIECE_VIEWS,
    TimelineView,
    piece_view,
    utilization_view,
    view_svg_string,
)

VIEW_KINDS = tuple(PIECE_VIEWS)

#: View kinds with an aggregate (utilization) rendering path; the others
#: always draw exact record bars.
AGGREGATE_KINDS = ("thread", "thread-connected", "processor")

#: Records per horizontal pixel above which a window renders from the
#: utilization hierarchy instead of individual records (the
#: drill-down-below-a-density-threshold discipline): past ~4 records per
#: pixel individual bars are sub-pixel smears, and the aggregate answer
#: is both faithful and O(pixels).
DENSITY_THRESHOLD = 4.0

#: Resolution cap (bins per lane) for aggregate heat strips.  A strip cell
#: narrower than ~3px reads as noise, and the render cost of a whole-run
#: view scales with lanes x bins — capping below the plot width keeps the
#: aggregate path's latency flat regardless of trace size.
AGGREGATE_MAX_BINS = 192


def _check_kind(kind: str) -> None:
    """Refuse an unknown view kind — before any frame is located or read."""
    if kind not in VIEW_KINDS:
        raise FormatError(f"unknown view kind {kind!r}; pick one of {VIEW_KINDS}")


class Jumpshot:
    """Viewer over one SLOG file."""

    def __init__(
        self,
        slog_path: str | Path,
        *,
        cache_frames: int = DEFAULT_FRAME_CACHE,
        slog: SlogFile | None = None,
    ) -> None:
        # A pre-opened reader (e.g. a live-container view) may be injected;
        # the viewer owns it either way.
        self.slog = slog if slog is not None else SlogFile(slog_path, cache_frames=cache_frames)
        self.preview = Preview.from_slog(self.slog)
        #: Whether the last view_svg_* call answered from the utilization
        #: hierarchy (True) or exact record bars (False).
        self.last_view_aggregate = False
        #: CPUs per node inferred from the frame columns of a file without a
        #: node table — one pass over every frame, made by the first view
        #: that needs it.
        self._inferred_cpus: dict[int, int] | None = None
        #: ``(frame list, weak reference to its batch)`` of the whole run,
        #: once :meth:`batch` read it.
        self._run: tuple[list[SlogFrameEntry], weakref.ref] | None = None

    def reload_preview(self) -> None:
        """Rebuild the preview from the reader's current counters (a live
        reader's refresh may have replaced them, and added nodes)."""
        self.preview = Preview.from_slog(self.slog)
        self._inferred_cpus = None

    def close(self) -> None:
        """Release the SLOG file's byte source."""
        self.slog.close()

    def __enter__(self) -> "Jumpshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------- preview

    def interesting_ranges(self, threshold: float = 0.05) -> list[tuple[float, float]]:
        """Time ranges (seconds) worth zooming into."""
        return interesting_ranges(self.preview, threshold=threshold)

    # ------------------------------------------------------- frame display

    def locate(self, t_seconds: float) -> SlogFrameEntry:
        """Find the frame containing an instant (seconds), via the index."""
        t = seconds_to_ticks(t_seconds, self.slog.ticks_per_sec)
        frame = self.slog.find_frame(t)
        if frame is None:
            raise FormatError(f"no frame contains t={t_seconds}s")
        return frame

    def batch(self, frames: list[SlogFrameEntry]) -> FrameBatch:
        """The records of ``frames`` as one batch: the form scans cache,
        and what every display builds its view from.

        The whole run's batch (``frames`` is the reader's own frame list)
        is shared while a caller holds it: asking again returns it instead
        of decoding a run longer than the frame cache once more.
        ``ute-report`` holds it across its whole-run views and profile."""
        if not frames:
            return FrameBatch(0)
        held = self._run[1]() if self._run is not None and self._run[0] is frames else None
        if held is not None:
            return held
        batch = concat_batches([self.slog.read_frame_batch(f) for f in frames])
        if frames is self.slog.frames:
            self._run = (frames, weakref.ref(batch))
        return batch

    def build_view(
        self,
        batch: FrameBatch,
        kind: str = "thread",
        *,
        window: tuple[int, int] | None = None,
    ) -> TimelineView:
        """Build one of the time-space diagrams over ``batch``.

        ``window`` tells the connected view where the display edge is, so
        states still open there extend to it instead of stopping at their
        last piece."""
        _check_kind(kind)
        arrows = None
        if kind in ("thread", "thread-connected"):
            arrows = match_arrows(batch)
        return piece_view(
            kind, batch, thread_table=self.slog.thread_table,
            n_cpus_per_node=self._cpus_per_node() if kind.startswith("processor") else None,
            record_name=self.slog.profile.record_name, markers=self.slog.markers,
            arrows=arrows, window=window,
        )

    # ------------------------------------------- frame directory and display

    def frame_entry(self, index: int) -> SlogFrameEntry:
        """Frame ``index`` of the SLOG frame directory (FormatError when
        out of range) — the integer handle the serving API exposes."""
        if not 0 <= index < len(self.slog.frames):
            raise FormatError(
                f"frame index {index} out of range 0..{len(self.slog.frames) - 1}"
            )
        return self.slog.frames[index]

    def frame_index(self) -> list[dict]:
        """The frame directory as JSON-ready dicts (times in seconds)."""
        tps = self.slog.ticks_per_sec
        return [
            {
                "index": i,
                "start": f.start_time / tps,
                "end": f.end_time / tps,
                "bytes": f.size,
                "records": f.n_records,
                "pseudo": f.n_pseudo,
            }
            for i, f in enumerate(self.slog.frames)
        ]

    def view_svg_at(
        self, t_seconds: float, *, kind: str = "thread", width: int = 1100,
        index=None,
    ) -> str:
        """The frame display as an SVG string (no file) — what the serving
        daemon streams for ``/api/view/{kind}?t=...``.

        With a sidecar ``index`` carrying a utilization hierarchy, a frame
        denser than :data:`DENSITY_THRESHOLD` records per pixel renders
        from aggregates instead of individual records."""
        _check_kind(kind)
        frame = self.locate(t_seconds)
        return self._render_window(
            (frame.start_time, frame.end_time), [frame], kind, width, index
        )

    def view_svg_window(
        self, t0_seconds: float | None, t1_seconds: float | None, *, kind: str = "thread",
        width: int = 1100, index=None,
    ) -> str:
        """A view over an arbitrary time window (seconds) as an SVG string.

        Below the density threshold this decodes every overlapping frame
        (exact drill-down); above it — any wide window of a big trace —
        the utilization hierarchy answers without touching the data.  Both
        bounds ``None`` is the whole run: drawn exact on the records' own
        span, drawn from aggregates on the indexed frames' span."""
        _check_kind(kind)
        if t0_seconds is None and t1_seconds is None:
            return self._render_window(None, self.slog.frames, kind, width, index)
        if t0_seconds is None or t1_seconds is None:
            raise FormatError("a view window needs both bounds (or neither: the whole run)")
        w0, w1 = window_to_ticks((t0_seconds, t1_seconds), self.slog.ticks_per_sec)
        if w1 <= w0:
            raise FormatError(f"empty window {t0_seconds}..{t1_seconds}s")
        frames = [
            f for f in self.slog.frames
            if f.end_time > w0 and f.start_time < w1
        ]
        return self._render_window((w0, w1), frames, kind, width, index)

    def _render_window(
        self,
        window: tuple[int, int] | None,
        frames: list[SlogFrameEntry],
        kind: str,
        width: int,
        index,
    ) -> str:
        self.last_view_aggregate = False
        tps = self.slog.ticks_per_sec
        util = getattr(index, "utilization", None)
        if util is not None and kind in AGGREGATE_KINDS:
            n_records = sum(f.n_records for f in frames)
            plot_px = max(width - 220, 1)
            if n_records / plot_px > DENSITY_THRESHOLD:
                self.last_view_aggregate = True
                if window is None:
                    # The whole run is the indexed frames' span, read as a
                    # window named in seconds: one picture either way.
                    window = window_to_ticks((index.t_min / tps, index.t_max / tps), tps)
                lane_kind = "cpu" if kind == "processor" else "thread"
                view = utilization_view(
                    util, lane_kind, self.slog.thread_table,
                    self.slog.profile.record_name,
                    window=window, max_bins=min(plot_px, AGGREGATE_MAX_BINS),
                )
                return view_svg_string(view, width=width, window=window, ticks_per_sec=tps)
        view = self.build_view(self.batch(frames), kind, window=window)
        return view_svg_string(view, width=width, window=window, ticks_per_sec=tps)

    # ------------------------------------------------------------ internals

    def _cpus_per_node(self) -> dict[int, int]:
        if self.slog.node_cpus:
            return dict(self.slog.node_cpus)
        # Legacy fallback: a node has as many CPUs as its highest CPU that
        # ran anything, folded from the frame columns once.
        if self._inferred_cpus is None:
            cpus: dict[int, int] = {}
            for frame in self.slog.frames:
                batch = self.slog.read_frame_batch(frame)
                busy = batch.dura > 0
                node, cpu = batch.node[busy], batch.cpu[busy]
                for n in np.unique(node).tolist():
                    cpus[n] = max(cpus.get(n, 0), int(cpu[node == n].max()) + 1)
            self._inferred_cpus = cpus
        return dict(self._inferred_cpus)
