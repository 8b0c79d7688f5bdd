"""Jumpshot-style visualization (paper section 4).

Renders to SVG (dependency-free) and ANSI text instead of the original Java
GUI; every visual semantic of the paper is preserved:

* **Preview** — the whole-run summary from the SLOG file's state counters
  (proportional time-bin allocation), with automatic detection of the
  "interesting" time ranges the Figure 6 discussion identifies.
* **Time-space diagrams** — the four views of section 1.2 built from the
  same interval file: thread-activity (piece view or connected/nested
  view), processor-activity (piece view only, since threads migrate),
  thread-processor, and processor-thread.
* **Message arrows** — sends matched to receives by the tracing library's
  sequence numbers.
* **Statistics viewer** — renders the statistics utility's tables
  (Figure 6's per-node × per-bin heat rows and generic bar charts).
* :class:`~repro.viz.jumpshot.Jumpshot` — the combined viewer: preview +
  frame index + frame display.
"""

from repro.viz.colors import ColorMap, STATE_PALETTE
from repro.viz.svg import SvgCanvas
from repro.viz.views import (
    TimelineBar,
    TimelineRow,
    TimelineView,
    thread_activity_view,
    processor_activity_view,
    thread_processor_view,
    processor_thread_view,
    type_activity_view,
    render_view_svg,
    view_svg_string,
)
from repro.viz.arrows import ArrowMatcher, MessageArrow, match_arrows
from repro.viz.preview import Preview, interesting_ranges
from repro.viz.jumpshot import Jumpshot
from repro.viz.statviewer import render_table_svg, render_binned_table_svg
from repro.viz.ansi import render_view_ansi
from repro.viz.report import HtmlReport, build_run_report
from repro.viz.interactive import render_interactive_html

__all__ = [
    "ColorMap",
    "STATE_PALETTE",
    "SvgCanvas",
    "TimelineBar",
    "TimelineRow",
    "TimelineView",
    "thread_activity_view",
    "processor_activity_view",
    "thread_processor_view",
    "processor_thread_view",
    "type_activity_view",
    "render_view_svg",
    "view_svg_string",
    "MessageArrow",
    "ArrowMatcher",
    "match_arrows",
    "Preview",
    "interesting_ranges",
    "Jumpshot",
    "render_table_svg",
    "render_binned_table_svg",
    "render_view_ansi",
    "HtmlReport",
    "build_run_report",
    "render_interactive_html",
]
