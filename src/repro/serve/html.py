"""The daemon's interactive viewer page (``GET /d/{ds}/``; ``GET /`` for
the default dataset).

Unlike :mod:`repro.viz.interactive`, which embeds the whole run's view
data in one standalone file, this page boots empty and fetches everything
lazily from the dataset's API: the preview strip from ``.../preview``,
the frame directory from ``.../frames``, and — only when the user selects
an instant — one frame's pre-built view payload from
``.../frame/{i}?view={kind}``.  Display cost therefore stays O(frame)
in the browser exactly as it does in the reader, and the browser's HTTP
cache plus the server's ETags make revisiting a frame free.

The stylesheet is shared with the standalone viewer so both look alike.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.viz.interactive import PAGE_CSS


def server_page(title: str, view_kinds: tuple[str, ...], api_base: str) -> str:
    """The viewer page HTML for one served dataset; ``api_base``
    (``/api/d/<name>``) roots every lazy fetch."""
    options = "".join(
        f'<option value="{escape(k)}">{escape(k)}</option>' for k in view_kinds
    )
    return (
        _SERVER_PAGE.replace("__TITLE__", escape(title))
        .replace("__CSS__", PAGE_CSS)
        .replace("__KIND_OPTIONS__", options)
        .replace("__API_BASE__", escape(api_base))
    )


def datasets_page(infos: list[dict], default: str | None) -> str:
    """The repository landing page: every registered dataset, linked to
    its viewer, with size / index / session state at a glance."""
    rows = []
    for info in infos:
        name = str(info.get("name", ""))
        badge = " (default)" if name == default else ""
        rows.append(
            "<tr>"
            f'<td><a href="/d/{escape(name)}/">{escape(name)}</a>{badge}</td>'
            f"<td>{int(info.get('bytes', 0)):,}</td>"
            f"<td>{escape(str(info.get('index', '')))}</td>"
            f"<td>{'open' if info.get('open') else 'idle'}</td>"
            f"<td>{int(info.get('resident_bytes', 0)):,}</td>"
            "</tr>"
        )
    body = (
        "<table><thead><tr><th>dataset</th><th>bytes</th><th>index</th>"
        "<th>session</th><th>resident bytes</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
        if rows
        else "<p>No datasets registered yet. POST a SLOG file to "
        "<code>/api/datasets?name=NAME</code>.</p>"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>ute-serve datasets</title>\n'
        "<style>\n"
        "  body { font: 14px system-ui; margin: 24px; color: #0b0b0b; }\n"
        "  table { border-collapse: collapse; }\n"
        "  th, td { text-align: left; padding: 4px 14px 4px 0; "
        "border-bottom: 1px solid #e8e7e4; }\n"
        "  th { font-size: 12px; color: #52514e; }\n"
        "</style></head>\n"
        "<body><h1>ute-serve — datasets</h1>\n"
        f"{body}\n"
        '<p><a href="/metrics">metrics</a> &middot; '
        '<a href="/api/datasets">listing (JSON)</a></p>\n'
        "</body></html>\n"
    )


_SERVER_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>__TITLE__</title>
<style>
__CSS__
  #bar { display:flex; gap:10px; align-items:center; padding:4px 16px 8px;
         font-size:12px; color:var(--ink2); flex-wrap:wrap; }
  #bar select, #bar button { font:12px system-ui; padding:2px 8px; }
  #status { margin-left:auto; }
</style></head>
<body>
<header><h1>__TITLE__</h1>
<div class="hint">click the preview to open the frame at that instant &nbsp;
hover = details &nbsp; frames load lazily from the API</div></header>
<div id="bar">
  <label>view <select id="kind">__KIND_OPTIONS__</select></label>
  <button id="prev">&#8592; prev frame</button>
  <button id="next">next frame &#8594;</button>
  <button id="whole">whole run (aggregate)</button>
  <span id="label"></span>
  <span id="status"></span>
</div>
<div id="wrap">
  <canvas id="preview" height="46"></canvas>
  <canvas id="main" height="60"></canvas>
</div>
<div id="legend"></div>
<div id="tip"></div>
<script>
"use strict";
const API = "__API_BASE__";
const ROW_H = 22, BAR_H = 14, LABEL_W = 200, AXIS_H = 26;
const main = document.getElementById("main");
const prev = document.getElementById("preview");
const tip = document.getElementById("tip");
const status_ = document.getElementById("status");
let PREVIEW = null, FRAMES = [], FRAME = null;   // fetched lazily
let frameIdx = -1;

function fmtS(t, tps) { return (t / tps).toPrecision(5) + "s"; }

async function getJSON(url) {
  status_.textContent = "loading " + url + " ...";
  const resp = await fetch(url);
  if (!resp.ok) throw new Error(url + " -> " + resp.status);
  const data = await resp.json();
  status_.textContent = "";
  return data;
}

function widthOf(c) {
  const w = c.parentElement.clientWidth;
  c.width = w * devicePixelRatio;
  c.style.width = w + "px";
  return w;
}

function drawPreview() {
  if (!PREVIEW) return;
  const w = widthOf(prev);
  prev.height = 46 * devicePixelRatio;
  const ctx = prev.getContext("2d");
  ctx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  ctx.clearRect(0, 0, w, 46);
  ctx.fillStyle = "#f1f0ed"; ctx.fillRect(LABEL_W, 4, w - LABEL_W - 10, 38);
  ctx.fillStyle = "#52514e"; ctx.font = "10px system-ui"; ctx.textAlign = "right";
  ctx.fillText("whole-run preview", LABEL_W - 6, 26);
  const bins = PREVIEW.bins, bw = (w - LABEL_W - 10) / bins;
  let peak = 0;
  const totals = new Array(bins).fill(0);
  for (const s of PREVIEW.states)
    s.seconds.forEach((v, b) => { totals[b] += v; });
  peak = Math.max(...totals, 1e-12);
  const palette = ["#4e79a7","#f28e2b","#e15759","#76b7b2","#59a14f",
                   "#edc948","#b07aa1","#ff9da7","#9c755f","#bab0ac"];
  for (let b = 0; b < bins; b++) {
    let y = 42;
    PREVIEW.states.forEach((s, j) => {
      const v = s.seconds[b];
      if (v <= 0) return;
      const h = v / peak * 38;
      y -= h;
      ctx.fillStyle = palette[j % palette.length];
      ctx.fillRect(LABEL_W + b * bw + 0.5, y, Math.max(bw - 1, 0.75), h);
    });
  }
  if (FRAME) {   // mark the loaded frame's window
    const [t0, t1] = PREVIEW.time_range;
    const px = t => LABEL_W + (t - t0) / (t1 - t0) * (w - LABEL_W - 10);
    ctx.strokeStyle = "#0b0b0b"; ctx.lineWidth = 1.5;
    ctx.strokeRect(px(FRAME.start), 3,
                   Math.max(px(FRAME.end) - px(FRAME.start), 2), 40);
    ctx.lineWidth = 1;
  }
}

function drawFrame() {
  if (!FRAME || !FRAME.view) return;
  const V = FRAME.view;
  const w = widthOf(main);
  main.height = (AXIS_H + V.rows.length * ROW_H + 8) * devicePixelRatio;
  main.style.height = (AXIS_H + V.rows.length * ROW_H + 8) + "px";
  const ctx = main.getContext("2d");
  ctx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  const h = main.height / devicePixelRatio;
  ctx.clearRect(0, 0, w, h);
  const t0 = V.t0, t1 = V.t1;
  const xOf = t => LABEL_W + (t - t0) / (t1 - t0) * (w - LABEL_W - 10);
  ctx.font = "10px system-ui"; ctx.fillStyle = "#52514e";
  for (let i = 0; i <= 8; i++) {
    const t = t0 + (t1 - t0) * i / 8, x = xOf(t);
    ctx.strokeStyle = "#e8e7e4";
    ctx.beginPath(); ctx.moveTo(x, AXIS_H - 4); ctx.lineTo(x, h - 8); ctx.stroke();
    ctx.textAlign = "center"; ctx.fillText(fmtS(t, V.tps), x, 12);
  }
  V.rows.forEach((row, i) => {
    const y = AXIS_H + i * ROW_H;
    ctx.fillStyle = "#f1f0ed";
    ctx.fillRect(LABEL_W, y + (ROW_H - BAR_H) / 2, w - LABEL_W - 10, BAR_H);
    ctx.fillStyle = "#0b0b0b"; ctx.textAlign = "right"; ctx.font = "10px system-ui";
    ctx.fillText(row.label.slice(0, 30), LABEL_W - 6, y + ROW_H / 2 + 3);
    for (const b of row.bars) {
      const xa = xOf(Math.max(b.s, t0)), xb = xOf(Math.min(b.e, t1));
      const inset = Math.min(b.d, 3) * 2;
      ctx.fillStyle = V.states[b.k].color;
      ctx.fillRect(xa, y + (ROW_H - BAR_H) / 2 + inset,
                   Math.max(xb - xa, 0.8), BAR_H - 2 * inset);
    }
  });
  ctx.strokeStyle = "#0b0b0b"; ctx.globalAlpha = 0.65;
  for (const a of V.arrows) {
    const x1 = xOf(Math.max(a.st, t0)), x2 = xOf(Math.min(a.rt, t1));
    const y1 = AXIS_H + a.sr * ROW_H + ROW_H / 2,
          y2 = AXIS_H + a.dr * ROW_H + ROW_H / 2;
    ctx.beginPath(); ctx.moveTo(x1, y1); ctx.lineTo(x2, y2); ctx.stroke();
  }
  ctx.globalAlpha = 1;
  const legend = document.getElementById("legend");
  legend.innerHTML = "";
  for (const s of V.states) {
    const el = document.createElement("span");
    el.innerHTML = `<span class="swatch" style="background:${s.color}"></span>` +
      s.name.replace(/&/g, "&amp;").replace(/</g, "&lt;");
    legend.appendChild(el);
  }
  document.getElementById("label").textContent =
    `frame ${FRAME.index}/${FRAMES.length - 1}  ` +
    `[${FRAME.start.toPrecision(5)}s .. ${FRAME.end.toPrecision(5)}s]  ` +
    `${FRAME.records.length} records (${FRAME.pseudo_count} pseudo)`;
}

async function loadFrame(i) {
  if (i < 0 || i >= FRAMES.length) return;
  const kind = document.getElementById("kind").value;
  try {
    FRAME = await getJSON(`${API}/frame/${i}?view=${encodeURIComponent(kind)}`);
    frameIdx = i;
    drawFrame();
    drawPreview();
  } catch (err) { status_.textContent = String(err); }
}

const PALETTE = ["#4e79a7","#f28e2b","#e15759","#76b7b2","#59a14f",
                 "#edc948","#b07aa1","#ff9da7","#9c755f","#bab0ac"];

async function loadUtilization() {
  // Whole-run heat view from the sidecar's utilization hierarchy: one
  // aggregate fetch, zero frame loads, any trace size.
  const lane = document.getElementById("kind").value.startsWith("processor")
    ? "cpu" : "thread";
  const w = main.parentElement.clientWidth;
  const bins = Math.max(Math.floor(w - LABEL_W - 10), 16);
  try {
    const U = await getJSON(`${API}/utilization?lane=${lane}&bins=${bins}`);
    FRAME = null;
    drawUtilization(U);
    drawPreview();
  } catch (err) { status_.textContent = String(err); }
}

function drawUtilization(U) {
  const w = widthOf(main);
  const rows = U.lanes;
  main.height = (AXIS_H + rows.length * ROW_H + 8) * devicePixelRatio;
  main.style.height = (AXIS_H + rows.length * ROW_H + 8) + "px";
  const ctx = main.getContext("2d");
  ctx.setTransform(devicePixelRatio, 0, 0, devicePixelRatio, 0, 0);
  const h = main.height / devicePixelRatio;
  ctx.clearRect(0, 0, w, h);
  const [t0, t1] = U.window;
  const xOf = t => LABEL_W + (t - t0) / (t1 - t0) * (w - LABEL_W - 10);
  ctx.font = "10px system-ui"; ctx.fillStyle = "#52514e";
  for (let i = 0; i <= 8; i++) {
    const t = t0 + (t1 - t0) * i / 8, x = xOf(t);
    ctx.strokeStyle = "#e8e7e4";
    ctx.beginPath(); ctx.moveTo(x, AXIS_H - 4); ctx.lineTo(x, h - 8); ctx.stroke();
    ctx.textAlign = "center"; ctx.fillText(t.toPrecision(5) + "s", x, 12);
  }
  const colorOf = {}; let nc = 0;
  rows.forEach((lane, i) => {
    const y = AXIS_H + i * ROW_H;
    const label = lane.thread !== undefined
      ? `n${lane.node}.t${lane.thread}` : `node ${lane.node} CPU ${lane.cpu}`;
    ctx.fillStyle = "#f1f0ed";
    ctx.fillRect(LABEL_W, y + (ROW_H - BAR_H) / 2, w - LABEL_W - 10, BAR_H);
    ctx.fillStyle = "#0b0b0b"; ctx.textAlign = "right"; ctx.font = "10px system-ui";
    ctx.fillText(label.slice(0, 30), LABEL_W - 6, y + ROW_H / 2 + 3);
    for (const c of lane.cells) {
      if (!(c.dominant in colorOf))
        colorOf[c.dominant] = PALETTE[nc++ % PALETTE.length];
      ctx.globalAlpha = Math.max(c.busy_frac, 0.15);
      ctx.fillStyle = colorOf[c.dominant];
      ctx.fillRect(xOf(c.start), y + (ROW_H - BAR_H) / 2,
                   Math.max(xOf(c.end) - xOf(c.start), 0.8), BAR_H);
    }
    ctx.globalAlpha = 1;
  });
  const legend = document.getElementById("legend");
  legend.innerHTML = "";
  for (const [itype, color] of Object.entries(colorOf)) {
    const el = document.createElement("span");
    const name = (U.state_names || {})[itype] || ("type " + itype);
    el.innerHTML = `<span class="swatch" style="background:${color}"></span>` +
      String(name).replace(/&/g, "&amp;").replace(/</g, "&lt;");
    legend.appendChild(el);
  }
  document.getElementById("label").textContent =
    `whole run (aggregate)  [${t0.toPrecision(5)}s .. ${t1.toPrecision(5)}s]  ` +
    `bin ${U.bin_seconds.toPrecision(3)}s`;
}

main.addEventListener("mousemove", e => {
  if (!FRAME || !FRAME.view) return;
  const V = FRAME.view, w = main.width / devicePixelRatio;
  const i = Math.floor((e.offsetY - AXIS_H) / ROW_H);
  if (i < 0 || i >= V.rows.length || e.offsetX < LABEL_W) {
    tip.style.display = "none"; return;
  }
  const t = V.t0 + (e.offsetX - LABEL_W) / (w - LABEL_W - 10) * (V.t1 - V.t0);
  let best = null;
  for (const b of V.rows[i].bars) if (b.s <= t && t <= b.e) best = b;
  if (best) {
    tip.style.display = "block";
    tip.style.left = (e.clientX + 14) + "px";
    tip.style.top = (e.clientY + 14) + "px";
    tip.textContent = V.states[best.k].name + " — " + (best.t || "") +
      "  [" + fmtS(best.s, V.tps) + " … " + fmtS(best.e, V.tps) + "]";
  } else tip.style.display = "none";
});
main.addEventListener("mouseleave", () => { tip.style.display = "none"; });

prev.addEventListener("click", e => {
  if (!PREVIEW || !FRAMES.length) return;
  const w = prev.width / devicePixelRatio;
  const [t0, t1] = PREVIEW.time_range;
  const t = t0 + (e.offsetX - LABEL_W) / (w - LABEL_W - 10) * (t1 - t0);
  let target = 0;
  FRAMES.forEach((f, i) => { if (f.start <= t) target = i; });
  loadFrame(target);
});
document.getElementById("prev").addEventListener("click", () => loadFrame(frameIdx - 1));
document.getElementById("next").addEventListener("click", () => loadFrame(frameIdx + 1));
document.getElementById("whole").addEventListener("click", loadUtilization);
document.getElementById("kind").addEventListener("change", () => {
  if (frameIdx >= 0) loadFrame(frameIdx);
});
window.addEventListener("resize", () => { drawPreview(); drawFrame(); });

(async () => {
  try {
    PREVIEW = await getJSON(API + "/preview");
    const dir = await getJSON(API + "/frames");
    FRAMES = dir.frames;
    drawPreview();
    if (FRAMES.length) loadFrame(0);
  } catch (err) { status_.textContent = String(err); }
})();
</script></body></html>
"""
