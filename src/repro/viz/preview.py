"""The whole-run preview (paper section 4, Figure 7's smaller window).

Built from the SLOG file's per-state time-bin counters — accumulated during
SLOG construction with proportional duration allocation — so drawing the
summary of an arbitrarily long run touches no interval records at all.
That, plus the frame index, is what makes frame display time independent of
file size.

Also provides :func:`interesting_ranges`: the time ranges where non-Running
activity exceeds a threshold, the readings the Figure 6 discussion walks
through ("the program is doing something interesting during ...").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.records import IntervalType
from repro.utils.slog import SlogFile
from repro.viz.colors import ColorMap
from repro.viz.svg import GRID, SvgCanvas, TEXT_PRIMARY, TEXT_SECONDARY


@dataclass
class Preview:
    """The preview model: per-state stacked time-bin durations."""

    itypes: list[int]
    matrix: np.ndarray  # bins x states, seconds
    time_range: tuple[int, int]
    ticks_per_sec: float
    state_names: dict[int, str]

    @classmethod
    def from_slog(cls, slog: SlogFile) -> "Preview":
        """Build from a SLOG file's stored counters."""
        itypes, matrix = slog.preview_matrix()
        names = {i: slog.profile.record_name(i) for i in itypes}
        return cls(itypes, matrix, slog.time_range, slog.ticks_per_sec, names)

    @property
    def bins(self) -> int:
        """Number of time bins."""
        return self.matrix.shape[0]

    def bin_seconds(self) -> float:
        """Width of one bin in seconds."""
        t0, t1 = self.time_range
        return (t1 - t0) / self.ticks_per_sec / self.bins

    def bin_edges_seconds(self) -> np.ndarray:
        """Bin edges on the time axis, in seconds."""
        t0, t1 = self.time_range
        return np.linspace(t0 / self.ticks_per_sec, t1 / self.ticks_per_sec, self.bins + 1)

    def interesting_per_bin(self) -> np.ndarray:
        """Summed non-Running duration per bin (seconds) — Figure 6's rows."""
        keep = [
            j
            for j, itype in enumerate(self.itypes)
            if itype not in (IntervalType.RUNNING, IntervalType.CLOCKPAIR)
        ]
        if not keep:
            return np.zeros(self.bins)
        return self.matrix[:, keep].sum(axis=1)

    def render_svg(self, *, width: int = 900, height: int = 240) -> str:
        """Stacked per-state preview histogram, as an SVG document."""
        canvas = SvgCanvas(width, height)
        margin_l, margin_t, margin_b, margin_r = 56, 34, 62, 16
        plot_w = width - margin_l - margin_r
        plot_h = height - margin_t - margin_b
        canvas.text(margin_l, 20, "Preview: state time per bin", size=14, weight="bold")
        totals = self.matrix.sum(axis=1)
        peak = float(totals.max()) if totals.size and totals.max() > 0 else 1.0
        bin_w = plot_w / max(self.bins, 1)
        cmap = ColorMap()
        for itype in self.itypes:
            cmap.register(itype)
        for b in range(self.bins):
            y = margin_t + plot_h
            x = margin_l + b * bin_w
            for j, itype in enumerate(self.itypes):
                value = float(self.matrix[b, j])
                if value <= 0:
                    continue
                h = value / peak * plot_h
                y -= h
                canvas.rect(
                    x + 0.5, y, max(bin_w - 1.0, 0.75), h,
                    fill=cmap.color_of(itype),
                    title=f"bin {b}: {self.state_names.get(itype, itype)} {value:.4g}s",
                )
        # Axis.
        edges = self.bin_edges_seconds()
        for i in range(0, self.bins + 1, max(self.bins // 5, 1)):
            x = margin_l + i * bin_w
            canvas.line(x, margin_t, x, margin_t + plot_h, stroke=GRID, stroke_width=0.5)
            canvas.text(
                x, margin_t + plot_h + 14, f"{edges[i]:.3g}", size=9,
                fill=TEXT_SECONDARY, anchor="middle",
            )
        canvas.text(
            margin_l + plot_w / 2, margin_t + plot_h + 30, "time (s)",
            size=10, fill=TEXT_SECONDARY, anchor="middle",
        )
        # Legend (multi-series, so always present).
        lx, ly = margin_l, height - 14
        for itype in self.itypes:
            name = str(self.state_names.get(itype, itype))
            canvas.rect(lx, ly - 9, 10, 10, fill=cmap.color_of(itype), rx=2)
            canvas.text(lx + 14, ly, name, size=9, fill=TEXT_SECONDARY)
            lx += 14 + 7 * len(name) + 18
            if lx > width - 80:
                break
        return canvas.to_string()


def interesting_ranges(
    preview: Preview, *, threshold: float = 0.05
) -> list[tuple[float, float]]:
    """Maximal time ranges (in seconds) where interesting (non-Running)
    activity exceeds ``threshold`` of the peak bin.

    Mirrors the Figure 6 reading: "the program is doing something
    interesting during the time ranges from ... to ...".
    """
    interesting = preview.interesting_per_bin()
    peak = float(interesting.max()) if interesting.size else 0.0
    if peak <= 0:
        return []
    hot = interesting >= threshold * peak
    edges = preview.bin_edges_seconds()
    ranges: list[tuple[float, float]] = []
    start: int | None = None
    for i, flag in enumerate(hot):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            ranges.append((float(edges[start]), float(edges[i])))
            start = None
    if start is not None:
        ranges.append((float(edges[start]), float(edges[-1])))
    return ranges
