"""``ute-recover`` against the golden corpus (utils/recover.py).

The acceptance bar: every damaged corpus artifact recovers into a file
that the strict readers accept and — for interval files — ``ute-validate``
passes with zero errors.  The manifest pins the exact record counts, so a
salvage regression that silently loses more records fails here.
"""

import json

import pytest

from repro.cli import main_recover
from repro.core import IntervalReader, standard_profile
from repro.core.profilefmt import Profile
from repro.errors import FormatError
from repro.tracing.rawfile import RawTraceReader
from repro.utils.recover import default_output_path, recover_file, sniff_kind
from repro.utils.slog import SlogFile
from repro.utils.validate import validate_interval_file

PROFILE = standard_profile()


def _profile_for(corpus, name: str) -> Profile | None:
    ref = corpus.manifest[name].get("profile")
    if ref is None or ref == "standard":
        return PROFILE if corpus.manifest[name]["kind"] == "interval" else None
    return Profile.read(corpus.path(ref))


def _strict_count(kind: str, path, profile) -> int:
    if kind == "interval":
        with IntervalReader(path, profile) as reader:
            return sum(1 for _ in reader.intervals())
    if kind == "slog":
        with SlogFile(path) as slog:
            return len(slog.records())
    with RawTraceReader(path) as reader:
        return len(reader.events())


class TestSniffing:
    def test_kinds(self, corpus):
        assert sniff_kind(corpus.path("good.ute")) == "interval"
        assert sniff_kind(corpus.path("good.slog")) == "slog"
        assert sniff_kind(corpus.path("good.raw")) == "raw"

    def test_unknown_magic(self, tmp_path):
        junk = tmp_path / "junk.ute"
        junk.write_bytes(b"NOTATRACE")
        with pytest.raises(FormatError, match="unrecognized magic"):
            sniff_kind(junk)

    def test_default_output_path(self):
        assert default_output_path("a/b/trace.ute").name == "trace.recovered.ute"

    def test_refuses_to_overwrite_the_input(self, corpus_copy):
        path = corpus_copy("good.ute")
        with pytest.raises(FormatError, match="onto itself"):
            recover_file(path, path, profile=PROFILE)


class TestGoldenCorpusRecovery:
    def test_every_damaged_artifact_recovers_clean(self, corpus, tmp_path):
        """The acceptance criterion, literally: ute-recover on every
        damaged corpus artifact yields a validating file with the exact
        record counts the manifest pins."""
        for name in corpus.damaged():
            info = corpus.manifest[name]
            out = tmp_path / (name + ".rec")
            report = recover_file(
                corpus.path(name), out, profile=_profile_for(corpus, name)
            )
            assert report.ok, f"{name}: {report.summary()}"
            assert report.kind == info["kind"]
            assert report.records_out == info["recovered_records"], name
            assert not report.salvage.clean, name
            # The output must satisfy the strict readers.
            assert _strict_count(info["kind"], out, _profile_for(corpus, name)) \
                == report.records_out, name

    def test_recovered_interval_files_validate_with_zero_errors(self, corpus, tmp_path):
        for name in corpus.damaged("interval"):
            out = tmp_path / (name + ".rec")
            profile = _profile_for(corpus, name)
            recover_file(corpus.path(name), out, profile=profile)
            validation = validate_interval_file(out, profile)
            assert validation.ok, f"{name}: {validation.errors}"
            assert not validation.errors

    def test_good_file_recovers_losslessly(self, corpus, tmp_path):
        report = recover_file(
            corpus.path("good.ute"), tmp_path / "good.rec.ute", profile=PROFILE
        )
        assert report.ok and report.salvage.clean
        assert report.records_out == corpus.manifest["good.ute"]["records"]
        assert report.records_rejected == 0

    def test_recovered_records_subset_of_original(self, corpus, tmp_path):
        with IntervalReader(corpus.path("good.ute"), PROFILE) as reader:
            original = set(map(repr, reader.intervals()))
        out = tmp_path / "trunc.rec.ute"
        recover_file(corpus.path("trunc-tail.ute"), out, profile=PROFILE)
        with IntervalReader(out, PROFILE) as reader:
            recovered = [repr(r) for r in reader.intervals()]
        assert recovered and all(r in original for r in recovered)

    def test_out_of_order_slog_degrades_through_the_invariant_checker(self, tmp_path):
        """A SLOG whose bytes hold a record ending before its predecessor
        (no writer produces one; damage can) loses that record as
        ``records_rejected`` — the recovery writer's own order check is
        never reached."""
        from repro.core.fields import MASK_ALL_MERGED
        from repro.core.records import BeBits, IntervalRecord, IntervalType
        from repro.core.threadtable import ThreadEntry, ThreadTable
        from repro.utils.slog import SlogFrameEntry, SlogWriter, slog_metadata_bytes

        records = [
            IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, start, 10, 0, 0, 0)
            for start in (0, 500, 0, 520)
        ]
        blob = b"".join(r.encode(PROFILE, MASK_ALL_MERGED) for r in records)
        tables = SlogWriter(
            tmp_path / "tables.slog", PROFILE,
            ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")]),
            node_cpus={0: 1}, field_mask=MASK_ALL_MERGED, preview_bins=4,
        )
        meta = slog_metadata_bytes(
            tables, (0, 600), {}, [SlogFrameEntry(0, 530, 0, len(blob), len(records), 0)]
        )
        tables.abort()
        damaged = tmp_path / "unordered.slog"
        damaged.write_bytes(meta + blob)
        report = recover_file(damaged, tmp_path / "out.slog")
        assert report.ok, report.summary()
        assert (report.records_in, report.records_out, report.records_rejected) == (4, 3, 1)
        with SlogFile(report.output_path) as slog:
            assert [r.start for r in slog.records()] == [0, 500, 520]

    def test_interval_recovery_requires_a_profile(self, corpus, tmp_path):
        with pytest.raises(FormatError, match="profile"):
            recover_file(corpus.path("trunc-tail.ute"), tmp_path / "x.ute")

    def test_report_as_dict_is_json_ready(self, corpus, tmp_path):
        report = recover_file(
            corpus.path("midflip.raw"), tmp_path / "m.rec.raw"
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["kind"] == "raw"
        assert payload["records_out"] == report.records_out
        assert payload["salvage"]["bytes_skipped"] > 0


class TestRecoverCli:
    def test_recover_damaged_slog(self, corpus, tmp_path, capsys):
        out = tmp_path / "f.rec.slog"
        code = main_recover([str(corpus.path("flip-frame.slog")), "-o", str(out)])
        assert code == 0
        assert "OK" in capsys.readouterr().out
        assert out.exists()

    def test_recover_with_profile_and_json(self, corpus, tmp_path, capsys):
        out = tmp_path / "c.rec.ute"
        code = main_recover([
            str(corpus.path("cut-255.ute")), "-o", str(out),
            "--profile", str(corpus.path("boundary.profile")), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records_out"] \
            == corpus.manifest["cut-255.ute"]["recovered_records"]

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code = main_recover([str(tmp_path / "absent.ute")])
        assert code == 2
        assert "ute-recover" in capsys.readouterr().err


class TestRecutKeepsPseudoLabels:
    """``ute-recover --frame-bytes`` re-cuts a SLOG: source pseudo-records
    that led a 2 KiB frame land mid-frame in a larger one.  ``n_pseudo``
    is the frame's *leading* pseudo run — what ``/api/frame``, the
    exporters and ``FollowReader`` slice off — so a re-cut must never make
    that slice cover a real record."""

    @pytest.fixture(scope="class")
    def source(self, tmp_path_factory):
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_sppm

        tmp = tmp_path_factory.mktemp("recut")
        run = run_sppm(tmp / "raw")
        conv = convert_traces(run.raw_paths, tmp / "ivl")
        merge_interval_files(
            conv.interval_paths, tmp / "merged.ute", PROFILE,
            slog_path=tmp / "run.slog", frame_bytes=2048,
        )
        with SlogFile(tmp / "run.slog") as slog:
            assert sum(f.n_pseudo for f in slog.frames) > 50
        return tmp / "run.slog"

    @pytest.mark.parametrize("frame_bytes", [2048, 8192, 32768])
    def test_no_real_record_is_labelled_pseudo(self, source, tmp_path, frame_bytes):
        from repro.difftool.differ import DiffConfig, diff_traces

        out = tmp_path / "recut.slog"
        assert main_recover(
            [str(source), "-o", str(out), "--frame-bytes", str(frame_bytes)]
        ) == 0
        with SlogFile(out) as slog:
            for frame in slog.frames:
                lead = slog.read_frame(frame)[: frame.n_pseudo]
                assert all(r.is_pseudo for r in lead), frame
        assert diff_traces(source, out, config=DiffConfig()).identical
        masked = diff_traces(source, out, config=DiffConfig(ignore_pseudo=True))
        assert masked.identical, masked.summary()


class TestRecoverIdentity:
    """A clean trace recovered at the frame size it was cut at comes back
    byte for byte: the recovery writer re-cuts the same frames, and a
    SLOG's continuation leads, written back as caller-supplied pseudo
    rows, count in ``n_pseudo`` exactly as the builder that led them
    counted them."""

    @pytest.fixture(scope="class")
    def merged(self, tmp_path_factory):
        from repro.utils.convert import convert_traces
        from repro.utils.merge import merge_interval_files
        from repro.workloads import run_synthetic
        from repro.workloads.synthetic import SyntheticConfig

        tmp = tmp_path_factory.mktemp("identity")
        run = run_synthetic(tmp / "raw", SyntheticConfig(rounds=8))
        conv = convert_traces(run.raw_paths, tmp / "ivl")
        merge_interval_files(
            conv.interval_paths, tmp / "m1k.ute", PROFILE,
            slog_path=tmp / "r1k.slog", frame_bytes=1024,
        )
        with SlogFile(tmp / "r1k.slog") as slog:
            leads = [f.n_pseudo for f in slog.frames if f.n_pseudo]
            assert len(slog.frames) > 10 and len(leads) > 5 and max(leads) > 1
        return tmp

    @pytest.mark.parametrize("name", ["r1k.slog", "m1k.ute"])
    def test_a_clean_trace_recovers_to_its_own_bytes(self, merged, tmp_path, name):
        source = merged / name
        out = tmp_path / ("rec-" + name)
        report = recover_file(source, out, profile=PROFILE, frame_bytes=1024)
        assert report.ok and report.records_rejected == 0
        assert out.read_bytes() == source.read_bytes()
