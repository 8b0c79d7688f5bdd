"""Tests for the interactive HTML timeline viewer."""

import json
import re
import shutil
import subprocess

import pytest

from repro.core import standard_profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.query.columnar import batch_from_records
from repro.viz.arrows import MessageArrow
from repro.viz.interactive import render_interactive_html, view_payload
from repro.viz.views import piece_view

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)


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

    @pytest.mark.skipif(shutil.which("node") is None, reason="node unavailable")
    def test_javascript_executes(self, tmp_path):
        """Run the page's script under node with a DOM shim: no JS errors,
        and the zoom/pan/hover handlers are registered and fire."""
        path = render_interactive_html(sample_view(), tmp_path / "js.html")
        harness = tmp_path / "harness.js"
        harness.write_text(
            """
const fs = require("fs");
const html = fs.readFileSync(process.argv[2], "utf8");
const script = html.split("<script>")[1].split("</script>")[0];
function ctxStub() {
  return new Proxy({}, { get: (t, p) =>
    p === "measureText" ? () => ({width: 10}) : (() => {}),
    set: () => true });
}
const handlers = [];
function canvasStub() {
  return { width: 1000, height: 300, style: {},
    parentElement: { clientWidth: 1000 },
    getContext: () => ctxStub(),
    addEventListener: (ev, fn) => handlers.push([ev, fn]) };
}
const els = { main: canvasStub(), preview: canvasStub(),
  tip: { style: {} }, legend: { appendChild: () => {}, children: [] } };
global.document = { getElementById: id => els[id],
  createElement: () => ({ style: {}, set innerHTML(v) {} }) };
global.window = { addEventListener: () => {} };
global.devicePixelRatio = 1;
eval(script);
for (const [ev, fn] of handlers) {
  if (ev === "wheel") fn({ preventDefault(){}, offsetX: 500, deltaY: -1 });
  if (ev === "mousemove") fn({ offsetX: 500, offsetY: 40, clientX: 0, clientY: 0 });
  if (ev === "dblclick") fn({});
  if (ev === "click") fn({ offsetX: 600 });
}
console.log("OK " + handlers.map(h => h[0]).sort().join(","));
"""
        )
        result = subprocess.run(
            ["node", str(harness), str(path)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("OK ")
        for handler in ("wheel", "mousedown", "mousemove", "dblclick", "click"):
            assert handler in result.stdout

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
