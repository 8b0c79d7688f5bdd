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
