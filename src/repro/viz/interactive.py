"""Interactive single-file HTML timeline viewer — Jumpshot's interactivity.

Where :mod:`repro.viz.views` renders static SVGs, this module emits one
self-contained HTML file with the view data embedded as JSON and a small
canvas renderer providing what Jumpshot's Java GUI provided:

* wheel **zoom** centered on the cursor and drag **pan** along time;
* **hover tooltips** on every bar and arrow;
* the whole-run **preview strip** above the timeline, with the current
  window marked — click it to jump, exactly the Figure 7 workflow;
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
    """The JSON payload the page's renderer consumes."""
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
    """Write the interactive viewer page for one time-space view."""
    payload = view_payload(view, ticks_per_sec=ticks_per_sec)
    page_title = title or view.title
    html = _PAGE.replace("__TITLE__", escape(page_title)).replace(
        "__DATA__", json.dumps(payload)
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
const DATA = __DATA__;
const ROW_H = 22, BAR_H = 14, LABEL_W = 200, AXIS_H = 26;
const main = document.getElementById("main");
const prev = document.getElementById("preview");
const tip = document.getElementById("tip");
let t0 = DATA.t0, t1 = DATA.t1;                 // current window
const FULL0 = DATA.t0, FULL1 = DATA.t1;
let dragging = null;

function fmtS(t) { return (t / DATA.tps).toPrecision(5) + "s"; }

function resize() {
  const w = main.parentElement.clientWidth;
  for (const c of [main, prev]) {
    c.width = w * devicePixelRatio;
    c.style.width = w + "px";
  }
  main.height = (AXIS_H + DATA.rows.length * ROW_H + 8) * devicePixelRatio;
  main.style.height = (AXIS_H + DATA.rows.length * ROW_H + 8) + "px";
  prev.height = 46 * devicePixelRatio;
  draw();
}

function xOf(t, w) { return LABEL_W + (t - t0) / (t1 - t0) * (w - LABEL_W - 10); }

function draw() {
  const ctx = main.getContext("2d");
  ctx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  const w = main.width / devicePixelRatio, h = main.height / devicePixelRatio;
  ctx.clearRect(0, 0, w, h);
  // axis
  ctx.font = "10px system-ui"; ctx.fillStyle = "#52514e";
  for (let i = 0; i <= 8; i++) {
    const t = t0 + (t1 - t0) * i / 8, x = xOf(t, w);
    ctx.strokeStyle = "#e8e7e4";
    ctx.beginPath(); ctx.moveTo(x, AXIS_H - 4); ctx.lineTo(x, h - 8); ctx.stroke();
    ctx.textAlign = "center"; ctx.fillText(fmtS(t), x, 12);
  }
  DATA.rows.forEach((row, i) => {
    const y = AXIS_H + i * ROW_H;
    ctx.fillStyle = "#f1f0ed";
    ctx.fillRect(LABEL_W, y + (ROW_H - BAR_H) / 2, w - LABEL_W - 10, BAR_H);
    ctx.fillStyle = "#0b0b0b"; ctx.textAlign = "right"; ctx.font = "10px system-ui";
    ctx.fillText(row.label.slice(0, 30), LABEL_W - 6, y + ROW_H / 2 + 3);
    for (const b of row.bars) {
      if (b.e < t0 || b.s > t1) continue;
      const xa = xOf(Math.max(b.s, t0), w), xb = xOf(Math.min(b.e, t1), w);
      const inset = Math.min(b.d, 3) * 2;
      ctx.fillStyle = DATA.states[b.k].color;
      ctx.globalAlpha = b.o !== undefined ? b.o : 1;
      ctx.fillRect(xa, y + (ROW_H - BAR_H) / 2 + inset,
                   Math.max(xb - xa, 0.8), BAR_H - 2 * inset);
      ctx.globalAlpha = 1;
    }
  });
  ctx.strokeStyle = "#0b0b0b"; ctx.fillStyle = "#0b0b0b"; ctx.globalAlpha = 0.65;
  for (const a of DATA.arrows) {
    if (a.rt < t0 || a.st > t1) continue;
    const x1 = xOf(Math.max(a.st, t0), w), x2 = xOf(Math.min(a.rt, t1), w);
    const y1 = AXIS_H + a.sr * ROW_H + ROW_H / 2,
          y2 = AXIS_H + a.dr * ROW_H + ROW_H / 2;
    ctx.beginPath(); ctx.moveTo(x1, y1); ctx.lineTo(x2, y2); ctx.stroke();
    if (a.rt > t1) {
      // Clipped in flight: cut-off stub, no head (a head would claim
      // delivery inside the window).
      ctx.beginPath(); ctx.moveTo(x2, y2 - 4); ctx.lineTo(x2, y2 + 4); ctx.stroke();
    } else {
      ctx.beginPath(); ctx.moveTo(x2, y2);
      ctx.lineTo(x2 - 6, y2 - 3); ctx.lineTo(x2 - 6, y2 + 3); ctx.fill();
    }
    if (a.st < t0) {
      ctx.beginPath(); ctx.moveTo(x1, y1 - 4); ctx.lineTo(x1, y1 + 4); ctx.stroke();
    }
  }
  ctx.globalAlpha = 1;
  drawPreview();
}

function drawPreview() {
  const ctx = prev.getContext("2d");
  ctx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  const w = prev.width / devicePixelRatio;
  ctx.clearRect(0, 0, w, 46);
  ctx.fillStyle = "#f1f0ed"; ctx.fillRect(LABEL_W, 4, w - LABEL_W - 10, 38);
  const px = t => LABEL_W + (t - FULL0) / (FULL1 - FULL0) * (w - LABEL_W - 10);
  DATA.rows.forEach((row, i) => {
    const y = 4 + 38 * i / DATA.rows.length;
    const hh = Math.max(38 / DATA.rows.length - 1, 1);
    for (const b of row.bars) {
      ctx.fillStyle = DATA.states[b.k].color;
      ctx.fillRect(px(b.s), y, Math.max(px(b.e) - px(b.s), 0.6), hh);
    }
  });
  ctx.strokeStyle = "#0b0b0b"; ctx.lineWidth = 1.5;
  ctx.strokeRect(px(t0), 3, Math.max(px(t1) - px(t0), 2), 40);
  ctx.lineWidth = 1;
}

function hit(mx, my) {
  const w = main.width / devicePixelRatio;
  const i = Math.floor((my - AXIS_H) / ROW_H);
  if (i < 0 || i >= DATA.rows.length || mx < LABEL_W) return null;
  const t = t0 + (mx - LABEL_W) / (w - LABEL_W - 10) * (t1 - t0);
  const row = DATA.rows[i];
  let best = null;
  for (const b of row.bars) if (b.s <= t && t <= b.e) best = b; // topmost last
  if (best) return DATA.states[best.k].name + " — " + (best.t || "") +
      "  [" + fmtS(best.s) + " … " + fmtS(best.e) + "]";
  return null;
}

main.addEventListener("wheel", e => {
  e.preventDefault();
  const w = main.width / devicePixelRatio;
  const frac = Math.min(Math.max((e.offsetX - LABEL_W) / (w - LABEL_W - 10), 0), 1);
  const center = t0 + frac * (t1 - t0);
  const scale = e.deltaY > 0 ? 1.25 : 0.8;
  let span = (t1 - t0) * scale;
  span = Math.min(Math.max(span, 10), FULL1 - FULL0);
  t0 = Math.max(FULL0, center - frac * span);
  t1 = Math.min(FULL1, t0 + span);
  t0 = t1 - span > FULL0 ? t1 - span : FULL0;
  draw();
}, { passive: false });

main.addEventListener("mousedown", e => { dragging = { x: e.offsetX, t0, t1 }; });
window.addEventListener("mouseup", () => { dragging = null; });
main.addEventListener("mousemove", e => {
  if (dragging) {
    const w = main.width / devicePixelRatio;
    const dt = (dragging.x - e.offsetX) / (w - LABEL_W - 10) * (dragging.t1 - dragging.t0);
    const span = dragging.t1 - dragging.t0;
    t0 = Math.min(Math.max(dragging.t0 + dt, FULL0), FULL1 - span);
    t1 = t0 + span;
    draw();
    return;
  }
  const text = hit(e.offsetX, e.offsetY);
  if (text) {
    tip.style.display = "block";
    tip.style.left = (e.clientX + 14) + "px";
    tip.style.top = (e.clientY + 14) + "px";
    tip.textContent = text;
  } else tip.style.display = "none";
});
main.addEventListener("mouseleave", () => { tip.style.display = "none"; });
main.addEventListener("dblclick", () => { t0 = FULL0; t1 = FULL1; draw(); });
prev.addEventListener("click", e => {
  const w = prev.width / devicePixelRatio;
  const t = FULL0 + (e.offsetX - LABEL_W) / (w - LABEL_W - 10) * (FULL1 - FULL0);
  const span = t1 - t0;
  t0 = Math.min(Math.max(t - span / 2, FULL0), FULL1 - span);
  t1 = t0 + span;
  draw();
});

const legend = document.getElementById("legend");
for (const s of DATA.states) {
  const el = document.createElement("span");
  el.innerHTML = `<span class="swatch" style="background:${s.color}"></span>` +
    s.name.replace(/&/g, "&amp;").replace(/</g, "&lt;");
  legend.appendChild(el);
}
window.addEventListener("resize", resize);
resize();
</script></body></html>
"""
