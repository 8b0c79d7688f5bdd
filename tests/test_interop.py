"""Foreign-format interop conformance: golden fixtures, exporter edge
cases, foreign/salvage imports, and the ``ute-convert`` adapter CLI.

The fixtures under ``tests/data/interop/`` are produced by the
deterministic ``generate_fixtures.py`` next to them; ``manifest.json``
pins the exact record/event counts.  Any drift between a fresh export
and the committed fixture bytes is a real behavior change.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main_convert
from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.reader import IntervalReader
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.core.writer import IntervalFileWriter
from repro.difftool import diff_traces, run_oracle
from repro.errors import FormatError
from repro.interop import (
    CHROME_ROUNDTRIP_CONFIG,
    OTF2_ROUNDTRIP_CONFIG,
    export_chrome_json,
    export_otf2_text,
    import_chrome_json,
    import_otf2_text,
)
from repro.interop.chrome import TICK_STRING_THRESHOLD

FIXTURES = Path(__file__).resolve().parent / "data" / "interop"
MANIFEST = json.loads((FIXTURES / "manifest.json").read_text())
PROFILE = standard_profile()

SEND = IntervalType.for_mpi_fn(0)


def read_records(path) -> list[IntervalRecord]:
    reader = IntervalReader(path, PROFILE)
    try:
        return list(reader.intervals())
    finally:
        reader.close()


def table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "t0")])


def rec(itype=IntervalType.RUNNING, start=0, dura=100, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, 0, 0, 0, extra)


def make_ivl(path, recs, threads=None):
    with IntervalFileWriter(
        path, PROFILE, threads or table(), field_mask=MASK_ALL_MERGED,
        frame_bytes=512, ticks_per_sec=1e9,
    ) as writer:
        for r in sorted(recs, key=lambda r: r.end):
            writer.write(r)
    return path


def x_events(doc) -> list[dict]:
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


# --------------------------------------------------------------- golden corpus


class TestGoldenFixtures:
    """The committed fixtures match the manifest and each other."""

    def test_manifest_matches_golden_ute(self):
        info = MANIFEST["golden.ute"]
        records = read_records(FIXTURES / "golden.ute")
        assert len(records) == info["records"]
        reader = IntervalReader(FIXTURES / "golden.ute", PROFILE)
        try:
            assert len(reader.thread_table) == info["threads"]
            assert len(reader.markers) == info["markers"]
        finally:
            reader.close()

    def test_chrome_export_is_byte_stable(self, tmp_path):
        result = export_chrome_json(FIXTURES / "golden.ute", tmp_path / "g.json")
        assert result.records == MANIFEST["golden.chrome.json"]["x_events"]
        assert result.events == MANIFEST["golden.chrome.json"]["events_total"]
        assert (tmp_path / "g.json").read_bytes() == (
            FIXTURES / "golden.chrome.json"
        ).read_bytes()

    def test_otf2_export_is_byte_stable(self, tmp_path):
        result = export_otf2_text(FIXTURES / "golden.ute", tmp_path / "g.txt")
        info = MANIFEST["golden.otf2.txt"]
        assert (result.records, result.events, result.lines) == (
            info["records"], info["events"], info["lines"],
        )
        assert (tmp_path / "g.txt").read_bytes() == (
            FIXTURES / "golden.otf2.txt"
        ).read_bytes()

    @pytest.mark.parametrize("name", ["golden.chrome.json", "foreign.chrome.json"])
    def test_chrome_payloads_are_valid_json(self, name):
        with open(FIXTURES / name) as handle:
            doc = json.load(handle)
        assert isinstance(doc["traceEvents"], list)
        assert len(x_events(doc)) == MANIFEST[name]["x_events"]
        assert len(doc["traceEvents"]) == MANIFEST[name]["events_total"]

    def test_chrome_roundtrip_divergence_free(self, tmp_path):
        back = tmp_path / "back.ute"
        import_chrome_json(FIXTURES / "golden.chrome.json", back, profile=PROFILE)
        report = diff_traces(
            FIXTURES / "golden.ute", back, CHROME_ROUNDTRIP_CONFIG, profile=PROFILE
        )
        assert report.identical, report.as_dict()

    def test_otf2_roundtrip_divergence_free(self, tmp_path):
        back = tmp_path / "back.ute"
        import_otf2_text(FIXTURES / "golden.otf2.txt", back, profile=PROFILE)
        report = diff_traces(
            FIXTURES / "golden.ute", back, OTF2_ROUNDTRIP_CONFIG, profile=PROFILE
        )
        assert report.identical, report.as_dict()

    def test_flow_events_pair_matched_send_recv(self):
        doc = json.loads((FIXTURES / "golden.chrome.json").read_text())
        flows = [e for e in doc["traceEvents"] if e.get("ph") in ("s", "f")]
        assert {e["ph"] for e in flows} == {"s", "f"}
        # The only seqno with both a send and a receive in the golden
        # records is 9; the Waitall's vector seqnos have no sender.
        assert {e["id"] for e in flows} == {9}
        assert all(e["bp"] == "e" for e in flows if e["ph"] == "f")

    def test_metadata_names_survive(self):
        doc = json.loads((FIXTURES / "golden.chrome.json").read_text())
        meta = [e for e in doc["traceEvents"] if e.get("ph") == "M"]
        thread_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        assert {"rank0", "rank1", "worker"} <= thread_names
        assert any(e["name"] == "process_name" for e in meta)

    def test_micros_match_ticks(self):
        """ts/dur are derived views; exact time lives in the tick args."""
        doc = json.loads((FIXTURES / "golden.chrome.json").read_text())
        tps = doc["otherData"]["ticksPerSec"]
        for event in x_events(doc):
            start = int(event["args"]["startTicks"])
            dur = int(event["args"]["durTicks"])
            assert round(event["ts"] * tps / 1e6) == start
            assert round(event["dur"] * tps / 1e6) == dur

    def test_oracle_zero_findings_on_golden(self):
        report = run_oracle(FIXTURES / "golden.ute", PROFILE, serve=False)
        assert report.ok, report.summary()
        assert "export_import_roundtrip" in report.checks


# ------------------------------------------------------------ foreign imports


class TestForeignChromeImport:
    def test_counts_and_recovery(self, tmp_path):
        out = tmp_path / "foreign.ute"
        result = import_chrome_json(FIXTURES / "foreign.chrome.json", out)
        assert result.records_written == MANIFEST["foreign.chrome.json"]["x_events"]
        assert result.events_skipped == 0  # the C counter is ignored, not an error
        records = read_records(out)
        # Timestamps recover from float microseconds at the default 1 GHz.
        starts = sorted(r.start for r in records)
        assert starts == [1500, 2000, 12000]
        assert {r.duration for r in records} == {10000, 9500, 3250}

    def test_dense_thread_allocation_and_name_mapping(self, tmp_path):
        out = tmp_path / "foreign.ute"
        import_chrome_json(FIXTURES / "foreign.chrome.json", out)
        records = read_records(out)
        # pids stay as node ids; tids densify to per-node logical ids.
        assert {r.node for r in records} == {7, 8}
        assert {r.thread for r in records} == {0}
        # MPI_Send maps to its profile type; "compute" becomes a marker.
        assert any(r.itype == SEND for r in records)
        reader = IntervalReader(out, PROFILE)
        try:
            assert "compute" in reader.markers.values()
        finally:
            reader.close()


    def test_a_slog_without_node_cpus_infers_them_from_busy_rows(self, tmp_path):
        from repro.utils.merge import merge_interval_files
        from repro.viz.jumpshot import Jumpshot

        # Node 7 runs on CPUs 0-3, node 8 on CPU 1; node 8's zero-length
        # event on CPU 5 ran nothing and must not add CPUs.
        events = [
            {"name": "compute", "ph": "X", "pid": pid, "tid": pid * 10,
             "ts": i * 2.0, "dur": 1.5, "args": {"cpu": cpu}}
            for i in range(60)
            for pid, cpu in ((7, i % 4), (8, 1))
        ]
        events.append({"name": "compute", "ph": "X", "pid": 8, "tid": 80,
                       "ts": 50.0, "dur": 0, "args": {"cpu": 5}})
        source = tmp_path / "cpus.chrome.json"
        source.write_text(json.dumps({"traceEvents": events}))
        import_chrome_json(source, tmp_path / "cpus.ute")
        slog = merge_interval_files(
            [tmp_path / "cpus.ute"], tmp_path / "m.ute", PROFILE,
            slog_path=tmp_path / "cpus.slog", frame_bytes=512,
        ).slog_path
        with Jumpshot(slog) as viewer:
            assert viewer.slog.node_cpus == {} and len(viewer.slog.frames) > 3
            assert viewer._cpus_per_node() == {7: 4, 8: 2}
            view = viewer.build_view(viewer.batch(viewer.slog.frames), "processor")
            assert [row.row_key for row in view.rows] == [
                (7, 0), (7, 1), (7, 2), (7, 3), (8, 0), (8, 1)
            ]


class TestForeignOtf2Import:
    def test_strict_import_counts(self, tmp_path):
        out = tmp_path / "foreign.ute"
        result = import_otf2_text(FIXTURES / "foreign.otf2.txt", out)
        info = MANIFEST["foreign.otf2.txt"]
        assert result.records_written == info["records"]
        assert result.salvage.as_dict() == info["salvage"]

    def test_nesting_splits_outer_region(self, tmp_path):
        out = tmp_path / "foreign.ute"
        import_otf2_text(FIXTURES / "foreign.otf2.txt", out)
        records = read_records(out)
        # "main" on location 0 is suspended while MPI_Send runs: it comes
        # back as a BEGIN piece (100..250) and an END piece (400..500).
        pieces = [
            (r.bebits, r.start, r.end)
            for r in records
            if r.node == 0 and r.itype != SEND
        ]
        assert (BeBits.BEGIN, 100, 250) in pieces
        assert (BeBits.END, 400, 500) in pieces

    def test_salvage_counters_pinned(self, tmp_path):
        out = tmp_path / "salvaged.ute"
        result = import_otf2_text(
            FIXTURES / "salvage.otf2.txt", out, errors="salvage"
        )
        info = MANIFEST["salvage.otf2.txt"]
        assert result.records_written == info["records"]
        assert result.salvage.as_dict() == info["salvage"]
        # The salvaged output is a well-formed interval file.
        assert len(read_records(out)) == info["records"]

    def test_strict_mode_raises_on_defects(self, tmp_path):
        with pytest.raises(FormatError):
            import_otf2_text(FIXTURES / "salvage.otf2.txt", tmp_path / "x.ute")


# --------------------------------------------------------- exporter edge cases


class TestExporterEdgeCases:
    def roundtrip_chrome(self, tmp_path, recs, threads=None):
        src = make_ivl(tmp_path / "src.ute", recs, threads)
        out = tmp_path / "out.json"
        export_chrome_json(src, out, profile=PROFILE)
        with open(out) as handle:
            doc = json.load(handle)
        back = tmp_path / "back.ute"
        import_chrome_json(out, back, profile=PROFILE)
        report = diff_traces(src, back, CHROME_ROUNDTRIP_CONFIG, profile=PROFILE)
        assert report.identical, report.as_dict()
        return doc

    def test_zero_duration_interval(self, tmp_path):
        doc = self.roundtrip_chrome(tmp_path, [rec(start=500, dura=0)])
        (event,) = x_events(doc)
        assert event["dur"] == 0.0
        assert event["args"]["durTicks"] == 0

    def test_overlapping_and_nested_on_one_thread(self, tmp_path):
        recs = [
            rec(start=0, dura=1000),            # outer
            rec(IntervalType.IO, start=100, dura=200, addr=1),   # nested
            rec(IntervalType.MARKER, start=900, dura=400, markerId=1),  # overlap
        ]
        doc = self.roundtrip_chrome(tmp_path, recs)
        assert len(x_events(doc)) == 3

    def test_huge_ticks_emitted_as_strings(self, tmp_path):
        assert TICK_STRING_THRESHOLD == 2 ** 53  # the pinned precision choice
        big = 2 ** 53 + 1  # not representable as a JSON double
        doc = self.roundtrip_chrome(tmp_path, [rec(start=big, dura=10)])
        (event,) = x_events(doc)
        assert event["args"]["startTicks"] == str(big)
        assert event["args"]["durTicks"] == 10  # below threshold stays int

    def test_empty_trace_exports_valid_json(self, tmp_path):
        doc = self.roundtrip_chrome(tmp_path, [])
        assert x_events(doc) == []
        assert isinstance(doc["traceEvents"], list)

    def test_empty_trace_exports_valid_otf2(self, tmp_path):
        src = make_ivl(tmp_path / "src.ute", [])
        out = tmp_path / "out.txt"
        result = export_otf2_text(src, out, profile=PROFILE)
        assert result.records == result.events == 0
        back = tmp_path / "back.ute"
        import_otf2_text(out, back, profile=PROFILE)
        assert read_records(back) == []


# ------------------------------------------------------------------ CLI paths


class TestConvertCli:
    def err_line(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err  # one line, no traceback
        assert err.startswith("ute-convert: error:")
        return err

    def test_empty_raw_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.raw"
        empty.touch()
        assert main_convert([str(empty), "-o", str(tmp_path / "out")]) == 2
        assert "empty" in self.err_line(capsys)

    def test_empty_foreign_input_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.touch()
        argv = [str(empty), "--from", "chrome-json", "-o", str(tmp_path / "o.ute")]
        assert main_convert(argv) == 2
        assert "empty" in self.err_line(capsys)

    def test_to_and_from_are_mutually_exclusive(self, tmp_path, capsys):
        argv = [
            str(FIXTURES / "golden.ute"), "--to", "chrome-json",
            "--from", "otf2-text", "-o", str(tmp_path / "x"),
        ]
        assert main_convert(argv) == 2
        assert "mutually exclusive" in self.err_line(capsys)

    def test_adapter_requires_output_file(self, capsys):
        assert main_convert([str(FIXTURES / "golden.ute"), "--to", "chrome-json"]) == 2
        assert "-o" in self.err_line(capsys)

    def test_adapter_requires_single_input(self, tmp_path, capsys):
        golden = str(FIXTURES / "golden.ute")
        argv = [golden, golden, "--to", "chrome-json", "-o", str(tmp_path / "x")]
        assert main_convert(argv) == 2
        assert "one input" in self.err_line(capsys)

    def test_garbage_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        argv = [str(bad), "--from", "chrome-json", "-o", str(tmp_path / "o.ute")]
        assert main_convert(argv) == 2
        self.err_line(capsys)

    def test_export_import_happy_path(self, tmp_path, capsys):
        exported = tmp_path / "g.json"
        argv = [str(FIXTURES / "golden.ute"), "--to", "chrome-json", "-o", str(exported)]
        assert main_convert(argv) == 0
        out = capsys.readouterr()
        assert str(exported) in out.out
        assert "trace events" in out.err
        back = tmp_path / "back.ute"
        assert main_convert(
            [str(exported), "--from", "chrome-json", "-o", str(back)]
        ) == 0
        report = diff_traces(
            FIXTURES / "golden.ute", back, CHROME_ROUNDTRIP_CONFIG, profile=PROFILE
        )
        assert report.identical, report.as_dict()

    def test_salvage_cli(self, tmp_path, capsys):
        out = tmp_path / "s.ute"
        argv = [
            str(FIXTURES / "salvage.otf2.txt"), "--from", "otf2-text",
            "--errors", "salvage", "-o", str(out),
        ]
        assert main_convert(argv) == 0
        assert "salvaged" in capsys.readouterr().err
        assert out.exists()


def test_pairing_messages_loads_no_viewer():
    """The Chrome exporter needs only the arrow matcher: importing it must
    not load the SVG viewer behind ``repro.viz``."""
    import subprocess
    import sys

    viewer = ("repro.viz.views", "repro.viz.svg", "repro.viz.jumpshot",
              "repro.viz.interactive", "repro.viz.report")
    probe = (
        "import sys; import repro.interop.chrome; "
        f"print(sorted(m for m in {viewer!r} if m in sys.modules))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
    )
    assert result.stdout.strip() == "[]"
