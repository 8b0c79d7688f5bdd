"""The pipeline oracle over the golden corpus, generated workloads, and
the differential round-trip properties."""

import json

import pytest
from hypothesis import given, settings

from repro import cli
from repro.cli import main_oracle
from repro.core import standard_profile
from repro.core.records import IntervalType
from repro.difftool import DiffConfig, diff_traces, run_oracle
from repro.difftool.oracle import Finding, OracleReport
from repro.utils.merge import merge_interval_files

from tests.conftest import max_examples
from tests.test_convert_properties import MarkerUnifier, convert_one, schedules

PROFILE = standard_profile()

#: What the merge adds relative to its input: the localStart provenance
#: field, renumbered-away clock pairs, and SLOG-side pseudo records.
ROUNDTRIP_CONFIG = DiffConfig(
    ignore_fields=frozenset({"localStart"}),
    drop_types=frozenset({int(IntervalType.CLOCKPAIR)}),
    ignore_pseudo=True,
    canonical_order=True,
)


class TestOracleOverCorpus:
    @pytest.mark.parametrize("name", ["good.ute", "good.slog", "good.raw"])
    def test_zero_findings(self, corpus, name):
        report = run_oracle(corpus.path(name), PROFILE)
        assert report.ok, report.summary()
        assert "strict_vs_salvage" in report.checks
        assert "adjust_parity" in report.checks

    def test_slog_runs_all_eleven_checks(self, corpus):
        report = run_oracle(corpus.path("good.slog"), PROFILE)
        assert report.checks == [
            "strict_vs_salvage",
            "indexed_vs_full",
            "decode_parity",
            "columnar_vs_record",
            "dump_vs_query",
            "aggregate_vs_exact",
            "export_import_roundtrip",
            "stats_parity",
            "payload_parity",
            "stats_vs_serve",
            "adjust_parity",
        ]

    def test_no_serve_skips_socket_check(self, corpus):
        report = run_oracle(corpus.path("good.slog"), PROFILE, serve=False)
        assert report.ok
        assert "stats_vs_serve" not in report.checks

    def test_oracle_never_writes_sidecars(self, corpus):
        run_oracle(corpus.path("good.ute"), PROFILE)
        assert not corpus.path("good.ute").with_suffix(".ute.uteidx").exists()
        assert not (corpus.root / "good.ute.uteidx").exists()


class TestOracleCli:
    def test_exit_0_over_corpus(self, corpus, capsys):
        files = [str(corpus.path(n)) for n in ("good.ute", "good.slog", "good.raw")]
        assert main_oracle(files) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_json_output(self, corpus, capsys):
        assert main_oracle([str(corpus.path("good.ute")), "--json", "--no-serve"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["ok"] is True
        assert docs[0]["kind"] == "interval"

    def test_exit_2_on_missing_input(self, capsys):
        assert main_oracle(["nope.slog"]) == 2

    def test_report_shapes(self):
        report = OracleReport("x.ute", "interval")
        report.checks.append("demo")
        report.add(Finding("demo", "x.ute", "paths disagree", {"n": 1}))
        assert not report.ok
        doc = report.as_dict()
        assert doc["findings"][0]["check"] == "demo"
        assert "FINDING [demo]" in report.summary()


class TestOracleOverPipeline:
    """The acceptance scenario: a real workload through the whole pipeline,
    then zero findings on every produced artifact."""

    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pingpong")
        raw_dir, ivl_dir = root / "raw", root / "ivl"
        assert cli.main_trace(["pingpong", "-o", str(raw_dir)]) == 0
        raws = sorted(str(p) for p in raw_dir.glob("*.raw"))
        assert cli.main_convert([*raws, "-o", str(ivl_dir)]) == 0
        utes = sorted(
            str(p) for p in ivl_dir.glob("*.ute") if p.name != "profile.ute"
        )
        merged = root / "merged.ute"
        slog = root / "run.slog"
        assert cli.main_slogmerge(
            [*utes, "-o", str(merged), "--slog", str(slog)]
        ) == 0
        return raws, utes, merged, slog

    def test_zero_findings_on_every_artifact(self, pipeline):
        raws, utes, merged, slog = pipeline
        for path in [*raws, *utes, merged, slog]:
            report = run_oracle(path, PROFILE)
            assert report.ok, report.summary()

    def test_merged_ute_diffs_clean_against_slog(self, pipeline):
        _, _, merged, slog = pipeline
        report = diff_traces(merged, slog, DiffConfig(ignore_pseudo=True))
        assert report.identical, report.as_dict()


class TestRoundTripProperty:
    """write -> convert -> merge(1 file) -> ute-diff original: no divergence."""

    @given(schedule=schedules())
    @settings(max_examples=max_examples(25), deadline=None)
    def test_convert_merge_roundtrip_divergence_free(self, tmp_path_factory, schedule):
        from repro.tracing.rawfile import RawFileHeader, RawTraceReader, RawTraceWriter

        tmp = tmp_path_factory.mktemp("rt")
        raw = tmp / "rt.raw"
        with RawTraceWriter(raw, RawFileHeader(0, 4, 0)) as writer:
            for event in schedule.events:
                writer.write(event)
        converted = tmp / "rt.ute"
        convert_one(RawTraceReader(raw), converted, PROFILE, MarkerUnifier())
        merged = tmp / "merged.ute"
        merge_interval_files([converted], merged, PROFILE, frame_bytes=512)
        report = diff_traces(converted, merged, ROUNDTRIP_CONFIG, profile=PROFILE)
        assert report.identical, report.as_dict()


class TestSalvageCleanParity:
    """Salvage mode on every clean corpus artifact must see exactly the
    strict-mode record stream, with zero salvage interventions."""

    def clean_names(self, corpus):
        return sorted(
            name for name, info in corpus.manifest.items() if info["damage"] is None
        )

    def test_corpus_has_clean_artifacts(self, corpus):
        assert self.clean_names(corpus)

    def test_salvage_stream_identical_to_strict(self, corpus):
        for name in self.clean_names(corpus):
            path = corpus.path(name)
            strict = diff_traces(path, path, errors="strict")
            cross = diff_traces(path, path, errors="salvage")
            assert strict.identical and cross.identical, name
            assert strict.records_a == cross.records_a, name

    def test_salvage_counters_stay_zero_on_clean_input(self, corpus):
        from repro.core.reader import IntervalReader

        reader = IntervalReader(corpus.path("good.ute"), PROFILE, errors="salvage")
        list(reader.intervals())
        stats = reader.stats()
        reader.close()
        assert stats.get("bytes_skipped", 0) == 0
        assert stats.get("records_dropped", 0) == 0
