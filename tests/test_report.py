"""Tests for the HTML report builder."""

import pytest

from repro.utils.stats import StatsTable
from repro.viz.report import HtmlReport, build_run_report


class TestHtmlReport:
    def test_basic_document(self, tmp_path):
        report = HtmlReport("My run")
        report.add_heading("Section")
        report.add_text("Some body text.")
        path = report.write(tmp_path / "r.html")
        html = path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<title>My run</title>" in html
        assert "<h2>Section</h2>" in html
        assert "Some body text." in html

    def test_text_escaped(self, tmp_path):
        report = HtmlReport("<script>")
        report.add_text("a < b & c")
        html = report.to_string()
        assert "<script>" not in html.split("<style>")[0].replace(
            "<title>&lt;script&gt;</title>", ""
        )
        assert "a &lt; b &amp; c" in html

    def test_svg_embedded_inline(self, tmp_path):
        from repro.viz.svg import SvgCanvas

        canvas = SvgCanvas(100, 50)
        canvas.rect(0, 0, 10, 10, fill="#2a78d6", title="tip")
        report = HtmlReport("r")
        report.add_svg(canvas.to_string(), caption="a rectangle")
        html = report.to_string()
        assert "<svg" in html
        assert "a rectangle" in html
        assert "<title>tip</title>" in html  # hover tooltip preserved

    def test_table_rendering(self):
        table = StatsTable("t", ("node",), ("sum",), {(0,): (1.5,), (1,): (2.0,)})
        report = HtmlReport("r")
        report.add_table(table)
        html = report.to_string()
        assert "<th>node</th>" in html and "<th>sum</th>" in html
        assert "<td>1.5</td>" in html

    def test_table_row_cap(self):
        rows = {(i,): (float(i),) for i in range(100)}
        table = StatsTable("big", ("i",), ("v",), rows)
        report = HtmlReport("r")
        report.add_table(table, max_rows=10)
        html = report.to_string()
        assert "90 more rows" in html

    def test_pre_block(self):
        report = HtmlReport("r")
        report.add_pre("line1\nline2 |..ab..|")
        assert "<pre>line1\nline2 |..ab..|</pre>" in report.to_string()


class TestBuildRunReport:
    @pytest.fixture(scope="class")
    def slog(self, tmp_path_factory):
        from repro.core import standard_profile
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_pingpong

        tmp = tmp_path_factory.mktemp("report")
        run = run_pingpong(tmp / "raw")
        conv = convert_traces(run.raw_paths, tmp / "ivl")
        merged = merge_interval_files(
            conv.interval_paths, tmp / "m.ute", standard_profile(),
            slog_path=tmp / "r.slog",
        )
        return merged.slog_path

    def test_full_report_builds(self, slog, tmp_path):
        path = build_run_report(slog, tmp_path / "report.html", title="PingPong")
        html = path.read_text()
        assert "PingPong" in html
        assert "Whole-run preview" in html
        assert "thread view" in html and "processor view" in html
        assert "interesting_by_node_bin" in html
        assert html.count("<svg") >= 3  # preview + two views

    def test_cli_report(self, slog, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "cli-report.html"
        assert cli.main_report([str(slog), "-o", str(out), "--views", "thread"]) == 0
        assert out.exists()
        assert "thread view" in out.read_text()
