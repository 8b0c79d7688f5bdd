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

A frame is drawn by the standalone viewer's own renderer
(:data:`~repro.viz.interactive.VIEW_SCRIPT`), and the page shares its
stylesheet, so both look alike.  The "whole run" button shows
``.../view/{thread|processor}?window=T0:T1`` over the frames' span: the
SVG ``ute-view`` draws for the run, from the sidecar's aggregates
(O(pixels), no frame read) when the run is dense and indexed.  The preview
strip colours its states by :mod:`repro.viz.colors`' rule, whose palette
is written into the page.
"""

from __future__ import annotations

import json
from xml.sax.saxutils import escape

from repro.core.records import IntervalType
from repro.viz.colors import OTHER_COLOR, RUNNING_COLOR, STATE_PALETTE
from repro.viz.interactive import PAGE_CSS, VIEW_SCRIPT


def server_page(title: str, view_kinds: tuple[str, ...], api_base: str) -> str:
    """The viewer page HTML for one served dataset; ``api_base``
    (``/api/d/<name>``) roots every lazy fetch."""
    options = "".join(
        f'<option value="{escape(k)}">{escape(k)}</option>' for k in view_kinds
    )
    return (
        _SERVER_PAGE.replace("__TITLE__", escape(title))
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
  #svg svg { display:block; max-width:100%; height:auto; }
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
  <div id="svg"></div>
</div>
<div id="legend"></div>
<div id="tip"></div>
<script>
"use strict";
__VIEW__
const API = "__API_BASE__", COLORS = __COLORS__;
const kind = document.getElementById("kind"), status_ = document.getElementById("status");
const svgBox = document.getElementById("svg"), label = document.getElementById("label");
let PREVIEW = null, FRAMES = [], FRAME = null, frameIdx = -1;   // fetched lazily

async function get(url, as) {
  status_.textContent = "loading " + url + " ...";
  const resp = await fetch(url);
  if (!resp.ok) throw new Error(url + " -> " + resp.status);
  const data = await resp[as]();
  status_.textContent = "";
  return data;
}

function drawPreview() {
  if (!PREVIEW) return;
  const ctx = fit(prev, 46), w = plotW(prev);
  ctx.fillStyle = "#f1f0ed"; ctx.fillRect(LABEL_W, 4, w, 38);
  ctx.fillStyle = "#52514e"; ctx.font = "10px system-ui"; ctx.textAlign = "right";
  ctx.fillText("whole-run preview", LABEL_W - 6, 26);
  let slot = 0;   // repro.viz.colors: Running recessive, then palette slots, then Other
  const colors = PREVIEW.states.map(s => s.type === COLORS.running_type
    ? COLORS.running : COLORS.palette[slot++] || COLORS.other);
  const bins = PREVIEW.bins, bw = w / bins, totals = new Array(bins).fill(0);
  for (const s of PREVIEW.states) s.seconds.forEach((v, b) => { totals[b] += v; });
  const peak = Math.max(...totals, 1e-12);
  for (let b = 0; b < bins; b++) {
    let y = 42;
    PREVIEW.states.forEach((s, j) => {
      if (s.seconds[b] <= 0) return;
      const h = s.seconds[b] / peak * 38;
      y -= h;
      ctx.fillStyle = colors[j];
      ctx.fillRect(LABEL_W + b * bw + 0.5, y, Math.max(bw - 1, 0.75), h);
    });
  }
  const [r0, r1] = PREVIEW.time_range;
  if (FRAME) markWindow(ctx, t => LABEL_W + (t - r0) / (r1 - r0) * w, FRAME.start, FRAME.end);
}

function showFrame() {
  if (!FRAME) return;
  main.style.display = ""; svgBox.innerHTML = "";
  drawView(FRAME.view, FRAME.view.t0, FRAME.view.t1);
  label.textContent = `frame ${FRAME.index}/${FRAMES.length - 1}  ` +
    `[${FRAME.start.toPrecision(5)}s .. ${FRAME.end.toPrecision(5)}s]  ` +
    `${FRAME.records.length} records (${FRAME.pseudo_count} pseudo)`;
}

async function loadFrame(i) {
  if (i < 0 || i >= FRAMES.length) return;
  try {
    FRAME = await get(`${API}/frame/${i}?view=${encodeURIComponent(kind.value)}`, "json");
    frameIdx = i;
    showFrame();
    drawPreview();
  } catch (err) { status_.textContent = String(err); }
}

async function loadWholeRun() {
  // The run is /view's picture of the frames' span: ute-view's whole-run
  // SVG, drawn from the sidecar's aggregates when the run is dense.
  if (!FRAMES.length) return;
  const lane = kind.value.startsWith("processor") ? "processor" : "thread";
  const t0 = FRAMES[0].start, t1 = FRAMES[FRAMES.length - 1].end;
  try {
    svgBox.innerHTML = await get(`${API}/view/${lane}?window=${t0}:${t1}`, "text");
    FRAME = null;
    main.style.display = "none";
    document.getElementById("legend").innerHTML = "";
    label.textContent = `whole run  [${t0.toPrecision(5)}s .. ${t1.toPrecision(5)}s]`;
    drawPreview();
  } catch (err) { status_.textContent = String(err); }
}

main.addEventListener("mousemove", e => showTip(e, FRAME &&
  hoverText(FRAME.view, FRAME.view.t0, FRAME.view.t1, e.offsetX, e.offsetY)));
prev.addEventListener("click", e => {
  if (!PREVIEW || !FRAMES.length) return;
  const [a, b] = PREVIEW.time_range;
  const t = a + (e.offsetX - LABEL_W) / plotW(prev) * (b - a);
  let target = 0;
  FRAMES.forEach((f, i) => { if (f.start <= t) target = i; });
  loadFrame(target);
});
document.getElementById("prev").addEventListener("click", () => loadFrame(frameIdx - 1));
document.getElementById("next").addEventListener("click", () => loadFrame(frameIdx + 1));
document.getElementById("whole").addEventListener("click", loadWholeRun);
kind.addEventListener("change", () => { if (frameIdx >= 0) loadFrame(frameIdx); });
window.addEventListener("resize", () => { drawPreview(); showFrame(); });

(async () => {
  try {
    PREVIEW = await get(API + "/preview", "json");
    FRAMES = (await get(API + "/frames", "json")).frames;
    drawPreview();
    if (FRAMES.length) loadFrame(0);
  } catch (err) { status_.textContent = String(err); }
})();
</script></body></html>
"""

_SERVER_PAGE = (
    _SERVER_PAGE.replace("__CSS__", PAGE_CSS)
    .replace("__VIEW__", VIEW_SCRIPT)
    .replace(
        "__COLORS__",
        json.dumps({
            "palette": list(STATE_PALETTE),
            "running": RUNNING_COLOR,
            "other": OTHER_COLOR,
            "running_type": int(IntervalType.RUNNING),
        }),
    )
)
