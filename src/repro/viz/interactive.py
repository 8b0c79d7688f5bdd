"""Interactive single-file HTML timeline viewer — Jumpshot's interactivity.

Where :mod:`repro.viz.views` renders static SVGs, this module emits one
self-contained HTML file with the view data embedded as JSON and drawn on a
canvas by :data:`VIEW_SCRIPT`, the one view renderer in the browser (the
serving daemon's page, :mod:`repro.serve.html`, embeds it too).  The page
adds what Jumpshot's Java GUI provided:

* wheel **zoom** centered on the cursor and drag **pan** along time;
* **hover tooltips** on every bar;
* the whole-run **minimap** above the timeline, with the current window
  marked — click it to jump, exactly the Figure 7 workflow;
* a legend with stable colors (same palette as the SVGs).

No external assets or libraries; the file works offline.
"""

from __future__ import annotations

import json
from pathlib import Path
from xml.sax.saxutils import escape

from repro.core.atomicio import atomic_write_text
from repro.viz.colors import ColorMap
from repro.viz.views import TimelineView


def view_payload(view: TimelineView, *, ticks_per_sec: float = 1e9) -> dict:
    """The JSON payload :data:`VIEW_SCRIPT` draws (embedded here, served in
    ``/frame/{i}?view=``)."""
    cmap = ColorMap()
    key_ids: dict[object, int] = {}
    states = []
    for key, name in view.key_names.items():
        key_ids[key] = len(states)
        states.append({"name": str(name), "color": cmap.register(key)})
    rows = []
    for row in view.rows:
        bars = []
        for bar in sorted(row.bars, key=lambda b: (b.depth, b.start)):
            item = {
                "s": bar.start,
                "e": bar.end,
                "k": key_ids.get(bar.key, 0),
                "d": bar.depth,
                "t": bar.tooltip,
            }
            if bar.opacity < 1.0:
                item["o"] = round(bar.opacity, 3)
            bars.append(item)
        rows.append({"label": row.label, "bars": bars})
    row_index = view.row_index()
    arrows = [
        {
            "sr": row_index[a.src_row],
            "dr": row_index[a.dst_row],
            "st": a.send_time,
            "rt": a.recv_time,
            "t": f"seq {a.seqno}: {a.size} B",
        }
        for a in view.arrows
        if a.src_row in row_index and a.dst_row in row_index
    ]
    return {
        "title": view.title,
        "t0": view.t0,
        "t1": max(view.t1, view.t0 + 1),
        "tps": ticks_per_sec,
        "states": states,
        "rows": rows,
        "arrows": arrows,
    }


def render_interactive_html(
    view: TimelineView,
    path: str | Path,
    *,
    ticks_per_sec: float = 1e9,
    title: str | None = None,
) -> Path:
    """Write the interactive viewer page for one time-space view.

    Thread names and marker strings come from the traced program, so the
    embedded JSON spells ``</`` as ``<\\/`` and ``<!--`` as ``\\u003c!--``
    (the same strings to a JSON parser): no label can end the page's
    script, or keep its end tag from ending it."""
    payload = view_payload(view, ticks_per_sec=ticks_per_sec)
    page_title = title or view.title
    html = _PAGE.replace("__TITLE__", escape(page_title)).replace(
        "__DATA__", json.dumps(payload).replace("</", "<\\/").replace("<!--", "\\u003c!--")
    )
    return atomic_write_text(path, html)


#: Shared page chrome: this file's standalone viewer and the serving
#: daemon's lazy-loading viewer (:mod:`repro.serve.html`) stay visually
#: identical by embedding the same stylesheet.
PAGE_CSS = """\
  :root { --surface:#fcfcfb; --ink:#0b0b0b; --ink2:#52514e; --rule:#e8e7e4; }
  body { margin:0; background:var(--surface); color:var(--ink);
         font:14px/1.4 system-ui,sans-serif; }
  header { padding:10px 16px 4px; }
  header h1 { font-size:17px; margin:0 0 2px; }
  header .hint { color:var(--ink2); font-size:12px; }
  #wrap { padding:0 16px 16px; }
  canvas { display:block; width:100%; }
  #tip { position:fixed; display:none; pointer-events:none; z-index:9;
         background:#0b0b0b; color:#fcfcfb; font-size:12px;
         padding:4px 8px; border-radius:4px; max-width:420px; }
  #legend { display:flex; flex-wrap:wrap; gap:4px 16px; padding:6px 16px;
            font-size:12px; color:var(--ink2); }
  #legend span.swatch { display:inline-block; width:10px; height:10px;
            border-radius:2px; margin-right:5px; vertical-align:-1px; }
"""

#: The one view renderer both pages embed: given a :func:`view_payload` and
#: a window ``[t0, t1]`` in ticks, ``drawView`` draws the axis, rows, bars,
#: arrows and legend on the ``#main`` canvas and ``hoverText`` names the bar
#: under a point.  Each page keeps only its own glue around it.
VIEW_SCRIPT = """\
const ROW_H = 22, BAR_H = 14, LABEL_W = 200, AXIS_H = 26;
const main = document.getElementById("main"), prev = document.getElementById("preview");
const tip = document.getElementById("tip");

function fmtS(t, tps) { return (t / tps).toPrecision(5) + "s"; }
function esc(s) { return String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;"); }
function plotW(c) { return c.width / devicePixelRatio - LABEL_W - 10; }

// Size canvas c to its parent's width and h CSS pixels; its cleared, scaled context.
function fit(c, h) {
  const w = c.parentElement.clientWidth;
  c.width = w * devicePixelRatio; c.style.width = w + "px";
  c.height = h * devicePixelRatio; c.style.height = h + "px";
  const ctx = c.getContext("2d");
  ctx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  ctx.clearRect(0, 0, w, h);
  return ctx;
}

function drawView(V, t0, t1) {
  const h = AXIS_H + V.rows.length * ROW_H + 8, ctx = fit(main, h);
  const xOf = t => LABEL_W + (t - t0) / (t1 - t0) * plotW(main);
  ctx.font = "10px system-ui"; ctx.fillStyle = "#52514e";
  for (let i = 0; i <= 8; i++) {
    const t = t0 + (t1 - t0) * i / 8, x = xOf(t);
    ctx.strokeStyle = "#e8e7e4";
    ctx.beginPath(); ctx.moveTo(x, AXIS_H - 4); ctx.lineTo(x, h - 8); ctx.stroke();
    ctx.textAlign = "center"; ctx.fillText(fmtS(t, V.tps), x, 12);
  }
  V.rows.forEach((row, i) => {
    const y = AXIS_H + i * ROW_H + (ROW_H - BAR_H) / 2;
    ctx.fillStyle = "#f1f0ed"; ctx.fillRect(LABEL_W, y, plotW(main), BAR_H);
    ctx.fillStyle = "#0b0b0b"; ctx.textAlign = "right"; ctx.font = "10px system-ui";
    ctx.fillText(row.label.slice(0, 30), LABEL_W - 6, y + 10);
    for (const b of row.bars) {
      if (b.e < t0 || b.s > t1) continue;
      const xa = xOf(Math.max(b.s, t0)), xb = xOf(Math.min(b.e, t1));
      const inset = Math.min(b.d, 3) * 2;
      ctx.fillStyle = V.states[b.k].color; ctx.globalAlpha = b.o ?? 1;
      ctx.fillRect(xa, y + inset, Math.max(xb - xa, 0.8), BAR_H - 2 * inset);
    }
    ctx.globalAlpha = 1;
  });
  ctx.strokeStyle = "#0b0b0b"; ctx.fillStyle = "#0b0b0b"; ctx.globalAlpha = 0.65;
  const stub = (x, y) => {   // a cut-off end: the message crosses the window's edge
    ctx.beginPath(); ctx.moveTo(x, y - 4); ctx.lineTo(x, y + 4); ctx.stroke(); };
  for (const a of V.arrows) {
    if (a.rt < t0 || a.st > t1) continue;
    const x1 = xOf(Math.max(a.st, t0)), x2 = xOf(Math.min(a.rt, t1));
    const y1 = AXIS_H + a.sr * ROW_H + ROW_H / 2, y2 = AXIS_H + a.dr * ROW_H + ROW_H / 2;
    ctx.beginPath(); ctx.moveTo(x1, y1); ctx.lineTo(x2, y2); ctx.stroke();
    if (a.rt > t1) stub(x2, y2);   // clipped in flight: no head claims delivery in the window
    else { ctx.beginPath(); ctx.moveTo(x2, y2);
           ctx.lineTo(x2 - 6, y2 - 3); ctx.lineTo(x2 - 6, y2 + 3); ctx.fill(); }
    if (a.st < t0) stub(x1, y1);
  }
  ctx.globalAlpha = 1;
  document.getElementById("legend").innerHTML = V.states.map(s =>
    `<span><span class="swatch" style="background:${s.color}"></span>${esc(s.name)}</span>`
  ).join("");
}

function hoverText(V, t0, t1, mx, my) {
  const i = Math.floor((my - AXIS_H) / ROW_H);
  if (i < 0 || i >= V.rows.length || mx < LABEL_W) return null;
  const t = t0 + (mx - LABEL_W) / plotW(main) * (t1 - t0);
  let best = null;
  for (const b of V.rows[i].bars) if (b.s <= t && t <= b.e) best = b;  // topmost last
  return best && V.states[best.k].name + " — " + (best.t || "") +
    "  [" + fmtS(best.s, V.tps) + " … " + fmtS(best.e, V.tps) + "]";
}

function showTip(e, text) {
  Object.assign(tip.style, { display: text ? "block" : "none",
    left: (e.clientX + 14) + "px", top: (e.clientY + 14) + "px" });
  tip.textContent = text || "";
}
main.addEventListener("mouseleave", () => { tip.style.display = "none"; });

// Frame the window [a, b] on a preview strip whose time axis is px.
function markWindow(ctx, px, a, b) {
  ctx.strokeStyle = "#0b0b0b"; ctx.lineWidth = 1.5;
  ctx.strokeRect(px(a), 3, Math.max(px(b) - px(a), 2), 40);
  ctx.lineWidth = 1;
}
"""

_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>__TITLE__</title>
<style>
__CSS__
</style></head>""".replace("__CSS__", PAGE_CSS) + """
<body>
<header><h1>__TITLE__</h1>
<div class="hint">wheel = zoom &nbsp; drag = pan &nbsp; hover = details &nbsp;
click preview = jump &nbsp; double-click = reset</div></header>
<div id="wrap">
  <canvas id="preview" height="46"></canvas>
  <canvas id="main"></canvas>
</div>
<div id="legend"></div>
<div id="tip"></div>
<script>
"use strict";
__VIEW__
const DATA = __DATA__;
const FULL0 = DATA.t0, FULL1 = DATA.t1;
let t0 = FULL0, t1 = FULL1, dragging = null;   // the current window

function draw() { drawView(DATA, t0, t1); drawPreview(); }

function drawPreview() {   // the minimap: every bar of the run, the window framed
  const ctx = fit(prev, 46), w = plotW(prev), n = DATA.rows.length;
  ctx.fillStyle = "#f1f0ed"; ctx.fillRect(LABEL_W, 4, w, 38);
  const px = t => LABEL_W + (t - FULL0) / (FULL1 - FULL0) * w;
  DATA.rows.forEach((row, i) => {
    for (const b of row.bars) {
      ctx.fillStyle = DATA.states[b.k].color;
      ctx.fillRect(px(b.s), 4 + 38 * i / n, Math.max(px(b.e) - px(b.s), 0.6),
                   Math.max(38 / n - 1, 1));
    }
  });
  markWindow(ctx, px, t0, t1);
}

function panTo(start) {
  const span = t1 - t0;
  t0 = Math.min(Math.max(start, FULL0), FULL1 - span);
  t1 = t0 + span;
  draw();
}

main.addEventListener("wheel", e => {
  e.preventDefault();
  const frac = Math.min(Math.max((e.offsetX - LABEL_W) / plotW(main), 0), 1);
  const center = t0 + frac * (t1 - t0);
  const span = Math.min(Math.max((t1 - t0) * (e.deltaY > 0 ? 1.25 : 0.8), 10),
                        FULL1 - FULL0);
  t1 = Math.min(FULL1, Math.max(FULL0, center - frac * span) + span);
  t0 = Math.max(FULL0, t1 - span);
  draw();
}, { passive: false });
main.addEventListener("mousedown", e => { dragging = { x: e.offsetX, t0 }; });
window.addEventListener("mouseup", () => { dragging = null; });
main.addEventListener("mousemove", e => {
  if (dragging)
    panTo(dragging.t0 + (dragging.x - e.offsetX) / plotW(main) * (t1 - t0));
  else showTip(e, hoverText(DATA, t0, t1, e.offsetX, e.offsetY));
});
main.addEventListener("dblclick", () => { t0 = FULL0; t1 = FULL1; draw(); });
prev.addEventListener("click", e => panTo(
  FULL0 + (e.offsetX - LABEL_W) / plotW(prev) * (FULL1 - FULL0) - (t1 - t0) / 2));
window.addEventListener("resize", draw);
draw();
</script></body></html>
""".replace("__VIEW__", VIEW_SCRIPT)
