"""Round-trip conformance: Hypothesis properties over generated traces,
the oracle's ``export_import_roundtrip`` check over a real pipeline, the
chunked serve endpoint, and the sPPM acceptance export.

The property under test is the tentpole guarantee: for any trace the
pipeline can produce, ``export -> import -> ute-diff`` is divergence-free
modulo the declared masks (pseudo-records and frame boundaries only).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core import standard_profile
from repro.difftool import diff_traces, run_oracle
from repro.interop import (
    CHROME_ROUNDTRIP_CONFIG,
    OTF2_ROUNDTRIP_CONFIG,
    export_chrome_json,
    export_otf2_text,
    import_chrome_json,
    import_otf2_text,
)
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.tracing.rawfile import RawFileHeader, RawTraceReader, RawTraceWriter
from repro.utils.merge import merge_interval_files

from tests.conftest import max_examples
from tests.test_convert_properties import MarkerUnifier, convert_one, schedules
from tests.test_interop import read_records

PROFILE = standard_profile()


def build_trace(tmp, schedule):
    """schedule -> raw -> convert -> merge(1): a real pipeline artifact."""
    raw = tmp / "rt.raw"
    with RawTraceWriter(raw, RawFileHeader(0, 4, 0)) as writer:
        for event in schedule.events:
            writer.write(event)
    converted = tmp / "rt.ute"
    convert_one(RawTraceReader(raw), converted, PROFILE, MarkerUnifier())
    merged = tmp / "merged.ute"
    merge_interval_files([converted], merged, PROFILE, frame_bytes=512)
    return merged


class TestRoundTripProperties:
    @given(schedule=schedules())
    @settings(max_examples=max_examples(25), deadline=None)
    def test_export_import_divergence_free(self, tmp_path_factory, schedule):
        tmp = tmp_path_factory.mktemp("interop-rt")
        merged = build_trace(tmp, schedule)
        for name, export, import_, config in [
            ("chrome", export_chrome_json, import_chrome_json,
             CHROME_ROUNDTRIP_CONFIG),
            ("otf2", export_otf2_text, import_otf2_text,
             OTF2_ROUNDTRIP_CONFIG),
        ]:
            foreign = tmp / f"out.{name}"
            export(merged, foreign, profile=PROFILE)
            back = tmp / f"back.{name}.ute"
            import_(foreign, back, profile=PROFILE)
            report = diff_traces(merged, back, config, profile=PROFILE)
            assert report.identical, (name, report.as_dict())

    @given(schedule=schedules(), data=st.data())
    @settings(max_examples=max_examples(15), deadline=None)
    def test_truncated_otf2_salvage(self, tmp_path_factory, schedule, data):
        """Any line-boundary truncation salvages into a readable file."""
        tmp = tmp_path_factory.mktemp("interop-cut")
        merged = build_trace(tmp, schedule)
        full = tmp / "full.txt"
        export_otf2_text(merged, full, profile=PROFILE)
        lines = full.read_text().splitlines(keepends=True)
        cut = data.draw(st.integers(min_value=0, max_value=len(lines)))
        truncated = tmp / "cut.txt"
        truncated.write_text("".join(lines[:cut]))
        out = tmp / "cut.ute"
        result = import_otf2_text(truncated, out, profile=PROFILE, errors="salvage")
        # The salvaged output is a well-formed, strict-readable file with
        # no more records than the original trace.
        records = read_records(out)
        assert len(records) == result.records_written
        assert len(records) <= len(read_records(merged))


class TestPipelineAndServe:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("interop-pingpong")
        raw_dir, ivl_dir = root / "raw", root / "ivl"
        assert cli.main_trace(["pingpong", "-o", str(raw_dir)]) == 0
        raws = sorted(str(p) for p in raw_dir.glob("*.raw"))
        assert cli.main_convert([*raws, "-o", str(ivl_dir)]) == 0
        utes = sorted(
            str(p) for p in ivl_dir.glob("*.ute") if p.name != "profile.ute"
        )
        merged, slog = root / "merged.ute", root / "run.slog"
        assert cli.main_slogmerge(
            [*utes, "-o", str(merged), "--slog", str(slog)]
        ) == 0
        return merged, slog

    def test_oracle_roundtrip_check_zero_findings(self, pipeline):
        merged, slog = pipeline
        for path in (merged, slog):
            report = run_oracle(path, PROFILE, serve=False)
            assert "export_import_roundtrip" in report.checks
            assert report.ok, report.summary()

    def test_serve_export_chrome_chunked(self, pipeline, tmp_path):
        _, slog = pipeline
        with ServerThread(slog, ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url)
            first = client.export_chrome()
            assert first.status == 200
            assert first.headers.get("transfer-encoding") == "chunked"
            assert "content-length" not in first.headers
            assert "etag" in first.headers
            doc = first.json()
            assert doc["otherData"]["generator"] == "ute-convert"
            assert any(e.get("ph") == "X" for e in doc["traceEvents"])

            # Revalidation: the dataset-scoped ETag turns a repeat into a 304.
            again = client.export_chrome()
            assert again.status == 304
            assert again.body == first.body

            # The payload itself round-trips against the served trace.
            payload = tmp_path / "served.json"
            payload.write_bytes(first.body)
            back = tmp_path / "served.ute"
            import_chrome_json(payload, back, profile=PROFILE)
            report = diff_traces(slog, back, CHROME_ROUNDTRIP_CONFIG,
                                 profile=PROFILE)
            assert report.identical, report.as_dict()

            # HEAD must not stream a body nor leak the dataset session.
            head = client.request("/api/export/chrome", method="HEAD")
            assert head.status in (200, 304)
            assert head.body == b""
            assert client.preview()["bins"] > 0


class TestSppmAcceptance:
    """The paper's sPPM workload exports to Chrome JSON that parses with
    ``json.load`` and whose ts/dur recover the exact tick values."""

    def test_sppm_export_parses_and_recovers_ticks(self, tmp_path):
        raw_dir, ivl_dir = tmp_path / "raw", tmp_path / "ivl"
        assert cli.main_trace(
            ["sppm", "-o", str(raw_dir), "--iterations", "1"]
        ) == 0
        raws = sorted(str(p) for p in raw_dir.glob("*.raw"))
        assert cli.main_convert([*raws, "-o", str(ivl_dir)]) == 0
        utes = sorted(
            str(p) for p in ivl_dir.glob("*.ute") if p.name != "profile.ute"
        )
        merged = tmp_path / "merged.ute"
        assert cli.main_slogmerge(
            [*utes, "-o", str(merged), "--slog", str(tmp_path / "run.slog")]
        ) == 0

        exported = tmp_path / "sppm.json"
        result = export_chrome_json(merged, exported, profile=PROFILE)
        assert result.records > 0
        with open(exported) as handle:
            doc = json.load(handle)
        tps = doc["otherData"]["ticksPerSec"]
        x = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(x) == result.records
        for event in x:
            assert round(event["ts"] * tps / 1e6) == int(event["args"]["startTicks"])
            assert round(event["dur"] * tps / 1e6) == int(event["args"]["durTicks"])

        back = tmp_path / "back.ute"
        import_chrome_json(exported, back, profile=PROFILE)
        report = diff_traces(merged, back, CHROME_ROUNDTRIP_CONFIG,
                             profile=PROFILE)
        assert report.identical, report.as_dict()
