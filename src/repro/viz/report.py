"""Single-file HTML performance reports.

Bundles everything an analysis produces — the preview, any number of
time-space diagrams, statistics tables, and notes — into one standalone
HTML file.  SVGs are embedded inline (their ``<title>`` elements give
native hover tooltips); tables render as styled HTML.  No external assets,
no JavaScript dependencies — the file mails/archives like the paper's
screenshots did.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape

from repro.core.atomicio import atomic_write_text
from repro.utils.stats import StatsTable

_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --rule: #e8e7e4; --accent: #2a78d6;
}
body { background: var(--surface); color: var(--ink);
       font: 15px/1.5 system-ui, sans-serif; margin: 0 auto;
       max-width: 1180px; padding: 24px 32px 64px; }
h1 { font-size: 24px; border-bottom: 2px solid var(--rule);
     padding-bottom: 8px; }
h2 { font-size: 18px; margin-top: 36px; }
p.caption { color: var(--ink-2); font-size: 13px; margin: 4px 0 0; }
figure { margin: 16px 0; overflow-x: auto; }
svg { max-width: 100%; height: auto; }
table { border-collapse: collapse; margin: 12px 0; font-size: 13px; }
th { text-align: left; color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--ink-2); padding: 4px 14px 4px 0; }
td { border-bottom: 1px solid var(--rule); padding: 4px 14px 4px 0;
     font-variant-numeric: tabular-nums; }
pre { background: #f5f4f1; padding: 12px; overflow-x: auto;
      font-size: 12px; border-radius: 4px; }
.note { color: var(--ink-2); }
"""


class HtmlReport:
    """Accumulates sections and serializes one self-contained HTML file."""

    def __init__(self, title: str) -> None:
        self.title = title
        self._parts: list[str] = []

    def add_heading(self, text: str) -> None:
        """Start a new section."""
        self._parts.append(f"<h2>{escape(text)}</h2>")

    def add_text(self, text: str, *, note: bool = False) -> None:
        """Add a paragraph (set ``note`` for secondary-ink commentary)."""
        cls = ' class="note"' if note else ""
        self._parts.append(f"<p{cls}>{escape(text)}</p>")

    def add_pre(self, text: str) -> None:
        """Add preformatted text (ANSI views render fine without color)."""
        self._parts.append(f"<pre>{escape(text)}</pre>")

    def add_svg(self, svg: str, caption: str = "") -> None:
        """Embed an SVG document inline."""
        cap = f'<p class="caption">{escape(caption)}</p>' if caption else ""
        self._parts.append(f"<figure>{svg}{cap}</figure>")

    def add_table(self, table: StatsTable, *, max_rows: int = 60) -> None:
        """Render a statistics table as HTML."""
        head = "".join(
            f"<th>{escape(str(h))}</th>" for h in table.x_labels + table.y_labels
        )
        rows = []
        for i, key in enumerate(sorted(table.rows)):
            if i >= max_rows:
                rows.append(
                    f'<tr><td colspan="{len(table.x_labels) + len(table.y_labels)}">'
                    f"… {len(table.rows) - max_rows} more rows</td></tr>"
                )
                break
            cells = list(key) + list(table.rows[key])
            rows.append(
                "<tr>" + "".join(f"<td>{_fmt(v)}</td>" for v in cells) + "</tr>"
            )
        self._parts.append(
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )

    def to_string(self) -> str:
        """The complete HTML document."""
        return (
            "<!DOCTYPE html><html><head><meta charset='utf-8'>"
            f"<title>{escape(self.title)}</title><style>{_CSS}</style></head>"
            f"<body><h1>{escape(self.title)}</h1>{''.join(self._parts)}</body></html>"
        )

    def write(self, path: str | Path) -> Path:
        """Write the report file (crash-safe: a write that fails leaves any
        previous file whole)."""
        return atomic_write_text(path, self.to_string())


def _fmt(value) -> str:
    if isinstance(value, float):
        return escape(f"{value:.6g}")
    return escape(str(value))


def build_run_report(
    slog_path: str | Path,
    out_path: str | Path,
    *,
    title: str = "Trace analysis report",
    view_kinds: tuple[str, ...] = ("thread", "processor"),
) -> Path:
    """One-call report over a SLOG file: preview, interesting ranges, the
    requested time-space views, and the pre-defined statistics tables.

    The views are the whole run as ``ute-view`` draws it: from the fresh
    sidecar's utilization aggregate when one sits beside the file and the
    run is dense, else from every record."""
    from repro.analysis.blocking import call_profile, format_call_profile
    from repro.core.records import IntervalType
    from repro.query import resolve_index
    from repro.utils.stats import drop_clock_pairs, predefined_tables
    from repro.viz.jumpshot import Jumpshot

    viewer = Jumpshot(slog_path)
    slog = viewer.slog
    report = HtmlReport(title)
    report.add_text(
        f"Source: {Path(slog_path).name} — "
        f"{sum(f.n_records for f in slog.frames)} records in "
        f"{len(slog.frames)} frames, "
        f"{len(slog.thread_table)} threads on "
        f"{len(slog.node_cpus)} nodes.",
        note=True,
    )
    report.add_heading("Whole-run preview")
    report.add_svg(viewer.preview.render_svg())
    ranges = viewer.interesting_ranges(0.1)
    if ranges:
        report.add_text(
            "Interesting time ranges: "
            + ", ".join(f"{lo:.4f}s – {hi:.4f}s" for lo, hi in ranges)
        )
    # Held to the end: a whole-run view drawn from records draws from this
    # one decode of the run, and so do the profile and the tables.
    batch = viewer.batch(slog.frames)
    index, _reason = resolve_index(slog_path, "auto")
    for kind in view_kinds:
        report.add_heading(f"{kind} view")
        report.add_svg(viewer.view_svg_window(None, None, kind=kind, index=index))

    report.add_heading("Call profile (blocking analysis)")
    rows = call_profile(batch, slog.profile, markers=slog.markers)
    report.add_text(
        "Per state type: wall time split into on-CPU and blocked "
        "(de-scheduled) time, worst blockers first.",
        note=True,
    )
    report.add_pre(format_call_profile(rows))

    report.add_heading("Statistics")
    ends = batch.end[batch.itype != IntervalType.CLOCKPAIR]
    total_s = (int(ends.max()) if len(ends) else 1) / slog.ticks_per_sec
    for table in predefined_tables(drop_clock_pairs([batch]), total_seconds=total_s,
                                   ticks_per_sec=slog.ticks_per_sec,
                                   thread_table=slog.thread_table):
        report.add_text(table.name)
        report.add_table(table)
    return report.write(out_path)
