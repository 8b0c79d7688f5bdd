"""Tests for the interactive HTML timeline viewer."""

import json
import re
import shutil
import subprocess
from decimal import Decimal

import pytest

from repro.core import standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.query import build_index, index_path_for, open_trace, resolve_index, write_index
from repro.query.columnar import batch_from_records
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.viz.arrows import MessageArrow
from repro.viz.interactive import render_interactive_html, view_payload
from repro.viz.jumpshot import Jumpshot
from repro.viz.views import piece_view

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)

needs_node = pytest.mark.skipif(shutil.which("node") is None, reason="node unavailable")

#: DOM and 2-D canvas stubs for running a viewer page's script under node.
#: ``load(file, base)`` runs the page in its own global scope; every context
#: call and property write is logged per canvas (a width write clears the
#: log, as it clears a real canvas), and ``fetch`` is recorded and answered
#: by the server at ``base``.  ``settle()`` waits until no fetch is
#: outstanding and the page has drawn what the answers asked for.
HARNESS = r"""
"use strict";
const fs = require("fs"), vm = require("vm");
process.on("unhandledRejection", err => { console.error(err); process.exit(1); });
const print = value => console.log(JSON.stringify(value));

function load(file, base) {
  const html = fs.readFileSync(file, "utf8");
  const script = html.split("<script>")[1].split("</script>")[0];
  const option = /<option value="([^"]*)"/.exec(html);
  const handlers = [], requests = [], pending = [];
  function element(id) {
    return { id, style: {}, textContent: "", innerHTML: "",
      value: id === "kind" && option ? option[1] : "",
      parentElement: { clientWidth: 1000 }, appendChild: () => {},
      addEventListener: (ev, fn) => handlers.push([id, ev, fn]) };
  }
  function canvas(id) {
    const el = element(id), log = [];
    let width = 0;
    const ctx = new Proxy({}, {
      get: (t, p) => p === "measureText" ? () => ({ width: 10 }) : (...a) => { log.push([p, ...a]); },
      set: (t, p, v) => { log.push([p, v]); return true; } });
    Object.defineProperty(el, "width", { get: () => width, set: v => { width = v; log.length = 0; } });
    return Object.assign(el, { height: 0, log, getContext: () => ctx });
  }
  const els = { main: canvas("main"), preview: canvas("preview") };
  const sandbox = {
    document: { getElementById: id => (els[id] ||= element(id)),
                createElement: () => element("") },
    window: { addEventListener: (ev, fn) => handlers.push(["window", ev, fn]) },
    devicePixelRatio: 1,
    fetch(url) {
      requests.push(url);
      const answer = fetch(base + url).then(async r => {
        const body = await r.text();
        return { ok: r.ok, status: r.status,
                 json: async () => JSON.parse(body), text: async () => body };
      });
      pending.push(answer);
      return answer;
    },
  };
  vm.createContext(sandbox);
  vm.runInContext(script, sandbox);
  return { els, handlers, requests,
    fire(id, ev, event = {}) {
      for (const [i, e, fn] of handlers) if (i === id && e === ev) fn(event);
    },
    async settle() {
      do {
        await Promise.all(pending.splice(0));
        await new Promise(done => setTimeout(done, 0));
      } while (pending.length);
    } };
}
"""


def run_node(tmp_path, driver, *args):
    """Run ``driver`` (JavaScript over :data:`HARNESS`) under node with
    ``args``; what it printed last, parsed."""
    script = tmp_path / "driver.js"
    script.write_text(HARNESS + "(async () => {\n" + driver + "\n})();\n")
    result = subprocess.run(
        ["node", str(script), *map(str, args)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def sample_view():
    table = ThreadTable(
        [
            ThreadEntry(0, 1, 1, 0, 0, 0, "rank-0"),
            ThreadEntry(1, 2, 2, 1, 0, 0, "rank-1"),
        ]
    )
    records = [
        IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, 0, 100, 0, 0, 0),
        IntervalRecord(
            SEND, BeBits.COMPLETE, 100, 50, 0, 0, 0,
            {"msgSizeSent": 64, "seqno": 1},
        ),
        IntervalRecord(
            IntervalType.for_mpi_fn(1), BeBits.COMPLETE, 120, 80, 1, 0, 0,
            {"msgSizeRecv": 64, "seqno": 1},
        ),
    ]
    arrows = [MessageArrow(1, (0, 0), (1, 0), 100, 200, 64)]
    return piece_view(
        "thread", batch_from_records(records), thread_table=table,
        record_name=PROFILE.record_name, arrows=arrows,
    )


class TestPayload:
    def test_structure(self):
        payload = view_payload(sample_view())
        assert payload["t0"] == 0 and payload["t1"] == 200
        assert len(payload["rows"]) == 2
        assert len(payload["arrows"]) == 1
        names = {s["name"] for s in payload["states"]}
        assert {"Running", "MPI_Send", "MPI_Recv"} <= names
        assert all(s["color"].startswith("#") for s in payload["states"])

    def test_bars_reference_valid_states(self):
        payload = view_payload(sample_view())
        n_states = len(payload["states"])
        for row in payload["rows"]:
            for bar in row["bars"]:
                assert 0 <= bar["k"] < n_states
                assert bar["e"] >= bar["s"]

    def test_arrow_rows_are_indices(self):
        payload = view_payload(sample_view())
        (arrow,) = payload["arrows"]
        assert arrow["sr"] == 0 and arrow["dr"] == 1
        assert arrow["rt"] == 200

    def test_json_serializable(self):
        json.dumps(view_payload(sample_view()))


class TestPage:
    def test_file_is_self_contained(self, tmp_path):
        path = render_interactive_html(sample_view(), tmp_path / "v.html")
        html = path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "const DATA =" in html
        assert "http://" not in html and "https://" not in html  # no external assets
        assert "addEventListener" in html

    def test_title_escaped(self, tmp_path):
        path = render_interactive_html(
            sample_view(), tmp_path / "t.html", title="<b>run & co</b>"
        )
        head = path.read_text().split("</head>")[0]
        assert "<b>" not in head.split("<title>")[1]

    def test_embedded_data_parses(self, tmp_path):
        path = render_interactive_html(sample_view(), tmp_path / "d.html")
        m = re.search(r"const DATA = (\{.*?\});\n", path.read_text(), re.S)
        data = json.loads(m.group(1))
        assert data["rows"]

    @needs_node
    def test_javascript_executes(self, tmp_path):
        """Run the page's script under node with a DOM shim: no JS errors,
        and the zoom/pan/hover handlers are registered and fire."""
        path = render_interactive_html(sample_view(), tmp_path / "js.html")
        out = run_node(tmp_path, """
const page = load(process.argv[2]);
page.fire("main", "wheel", { preventDefault() {}, offsetX: 500, deltaY: -1 });
page.fire("main", "mousemove", { offsetX: 500, offsetY: 40, clientX: 0, clientY: 0 });
page.fire("main", "dblclick");
page.fire("preview", "click", { offsetX: 600 });
print({ events: page.handlers.map(h => h[1]).sort(), drawn: page.els.main.log.length });
""", path)
        for handler in ("wheel", "mousedown", "mousemove", "dblclick", "click"):
            assert handler in out["events"]
        assert out["drawn"] > 0

    def test_cli_interactive(self, tmp_path, capsys):
        from repro import cli
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_pingpong

        run = run_pingpong(tmp_path / "raw")
        conv = convert_traces(run.raw_paths, tmp_path / "ivl")
        merged = merge_interval_files(
            conv.interval_paths, tmp_path / "m.ute", PROFILE,
            slog_path=tmp_path / "r.slog",
        )
        out = tmp_path / "view.html"
        assert cli.main_view(
            [str(merged.slog_path), "--interactive", "-o", str(out)]
        ) == 0
        capsys.readouterr()
        assert out.exists()
        assert "const DATA =" in out.read_text()


def js_number(x: float) -> str:
    """``String(x)`` in JavaScript (ECMA-262 Number::toString) of a finite
    double: the shortest round-trip digits, which Python's ``repr`` has too,
    laid out by JavaScript's rule for where the point goes."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    _, digits, exponent = Decimal(repr(abs(x))).normalize().as_tuple()
    d, k = "".join(map(str, digits)), len(digits)
    n = exponent + k  # the point sits after the n-th digit
    if k <= n <= 21:
        return sign + d + "0" * (n - k)
    if 0 < n <= 21:
        return sign + d[:n] + "." + d[n:]
    if -6 < n <= 0:
        return sign + "0." + "0" * -n + d
    mantissa = d[0] + ("." + d[1:] if k > 1 else "")
    return f"{sign}{mantissa}e{'+' if n > 0 else '-'}{abs(n - 1)}"


def served_page(client, path):
    """The served viewer page (``/``), written to ``path`` for node."""
    path.write_text(client.request("/").text)
    return path


def standalone_page(payload, path):
    """``ute-view --interactive``'s page with ``payload`` as its data."""
    html = render_interactive_html(sample_view(), path).read_text()
    data = "const DATA = " + json.dumps(payload) + ";\n"
    path.write_text(re.sub(r"const DATA = .*?;\n", lambda m: data, html, count=1))
    return path


#: Boot the served page, then walk it: whole run, next and previous frame,
#: a view-kind change, the whole run again.  Per step: what was fetched,
#: the status line, and what the page shows.
SERVED_DRIVE = """
const page = load(process.argv[2], process.argv[3]);
const steps = [];
async function step(name, act) {
  act();
  await page.settle();
  const els = page.els;
  steps.push({ name, requests: page.requests.splice(0), status: els.status.textContent,
               canvas: els.main.style.display !== "none", drawn: els.main.log.length,
               svg: els.svg.innerHTML, label: els.label.textContent });
}
await step("boot", () => {});
await step("whole", () => page.fire("whole", "click"));
await step("next", () => page.fire("next", "click"));
await step("prev", () => page.fire("prev", "click"));
await step("kind", () => { page.els.kind.value = "processor"; page.fire("kind", "change"); });
await step("whole", () => page.fire("whole", "click"));
print(steps);
"""


@needs_node
class TestServedPage:
    """The daemon's viewer page, run under node against a real server over
    a dense bigtrace with a fresh sidecar."""

    @pytest.fixture(scope="class")
    def dense(self, tmp_path_factory):
        from repro.workloads import write_big_slog

        path = tmp_path_factory.mktemp("served-page") / "wide.slog"
        write_big_slog(
            path, n_nodes=2, threads_per_node=4, n_records=8_000, frame_bytes=4_096, seed=3
        )
        with open_trace(path, PROFILE) as handle:
            write_index(build_index(handle), index_path_for(path))
        return path

    @pytest.fixture(scope="class")
    def drive(self, dense, tmp_path_factory):
        """``(steps, client, frames)``: the walk's record, a client of the
        server it ran against, and the server's frame directory."""
        tmp = tmp_path_factory.mktemp("served-drive")
        with ServerThread(dense, ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url)
            page = served_page(client, tmp / "served.html")
            steps = run_node(tmp, SERVED_DRIVE, page, srv.base_url)
            yield steps, client, client.frames()["frames"]

    def test_the_walk_fetches_what_each_step_needs(self, drive):
        steps, _client, frames = drive
        api = "/api/d/default"
        window = f"{js_number(frames[0]['start'])}:{js_number(frames[-1]['end'])}"
        assert [(s["name"], s["requests"]) for s in steps] == [
            ("boot", [f"{api}/preview", f"{api}/frames", f"{api}/frame/0?view=thread"]),
            ("whole", [f"{api}/view/thread?window={window}"]),
            ("next", [f"{api}/frame/1?view=thread"]),
            ("prev", [f"{api}/frame/0?view=thread"]),
            ("kind", [f"{api}/frame/0?view=processor"]),
            ("whole", [f"{api}/view/processor?window={window}"]),
        ]
        for s in steps:
            assert s["status"] == "", s  # no failed fetch, no script error
            whole = s["name"] == "whole"
            assert s["canvas"] is not whole and s["svg"].startswith("<") is whole, s
            assert s["label"].startswith("whole run" if whole else "frame "), s
            if not whole:
                assert s["drawn"] > 0, s

    @pytest.mark.parametrize("kind", ["thread", "processor"])
    def test_the_whole_run_is_ute_views_picture(self, dense, drive, kind):
        """One window, one picture: the URL the button requests answers
        ``ute-view``'s whole-run SVG byte for byte, from aggregates."""
        steps, client, _frames = drive
        (url,) = [
            r for s in steps if s["name"] == "whole" for r in s["requests"]
            if f"/view/{kind}?" in r
        ]
        response = client.request(url)
        assert response.status == 200
        assert response.headers["x-ute-bytes-read"] == "0"
        assert next(s["svg"] for s in steps if url in s["requests"]) == response.text
        index, reason = resolve_index(dense, "auto")
        assert reason == "fresh"
        with Jumpshot(dense) as viewer:
            assert response.text == viewer.view_svg_window(None, None, kind=kind, index=index)
            assert viewer.last_view_aggregate


#: Load a frame's view payload into both pages: the served one fetches
#: frame 0, the standalone one embeds it.  Their main-canvas draw calls and
#: their hover text over a grid of points.
PARITY = """
const served = load(process.argv[2], process.argv[3]);
await served.settle();
const standalone = load(process.argv[4]);
const out = {};
for (const [name, page] of [["served", served], ["standalone", standalone]]) {
  const hover = [];
  for (let y = 30; y < 26 + 22 * 8; y += 11)
    for (let x = 150; x < 1000; x += 7) {
      page.fire("main", "mousemove", { offsetX: x, offsetY: y, clientX: 0, clientY: 0 });
      const tip = page.els.tip;
      hover.push(tip.style.display === "block" ? tip.textContent : null);
    }
  out[name] = { log: page.els.main.log, hover, legend: page.els.legend.innerHTML,
                status: page.els.status ? page.els.status.textContent : "" };
}
print(out);
"""


@needs_node
class TestOneRenderer:
    """Both pages draw a view payload through one script, so a frame looks
    and hovers the same on either."""

    @pytest.fixture(scope="class")
    def pingpong(self, tmp_path_factory):
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_pingpong

        tmp = tmp_path_factory.mktemp("one-renderer")
        run = run_pingpong(tmp / "raw")
        conv = convert_traces(run.raw_paths, tmp / "ivl")
        return merge_interval_files(
            conv.interval_paths, tmp / "m.ute", PROFILE, slog_path=tmp / "r.slog"
        ).slog_path

    def test_a_frame_draws_and_hovers_the_same_on_both_pages(self, pingpong, tmp_path):
        with ServerThread(pingpong, ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url)
            view = client.request("/api/frame/0?view=thread").json()["view"]
            assert view["arrows"]  # matched messages: the arrows are drawn too
            out = run_node(
                tmp_path, PARITY, served_page(client, tmp_path / "served.html"),
                srv.base_url, standalone_page(view, tmp_path / "standalone.html"),
            )
        served, standalone = out["served"], out["standalone"]
        assert served["status"] == ""
        assert served["log"] == standalone["log"]
        fills = [call for call in served["log"] if call[0] == "fill"]
        assert len(fills) == len(view["arrows"])  # one head per delivered arrow
        assert served["hover"] == standalone["hover"]
        assert any(served["hover"]) and None in served["hover"]
        assert served["legend"] == standalone["legend"] != ""
