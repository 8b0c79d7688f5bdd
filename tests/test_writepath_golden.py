"""Byte identity of the write path against ``tests/data/writepath_golden.json``.

The digests were produced by ``tests/data/generate_writepath_golden.py`` on
the commit before the three writers became sinks of one ``FrameBuilder``;
this test rebuilds the same artifacts and requires the same bytes.  The
artifacts that commit could not be expected to agree with — the
``frame_bytes=256`` merge family, where a continuation lead is larger than
a frame, and the ``LiveIntervalWriter`` final file, whose frames now follow
the live seals — are pinned by structure instead.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core import IntervalFileWriter, IntervalReader
from repro.core.profilefmt import Profile
from repro.core.records import BeBits
from repro.difftool import DiffConfig, diff_traces
from repro.live import LiveIntervalWriter, read_manifest
from repro.utils.slog import SlogFile
from repro.utils.validate import validate_interval_file
from tests.test_framebuilder import open_states

_SPEC = importlib.util.spec_from_file_location(
    "generate_writepath_golden",
    Path(__file__).parent / "data" / "generate_writepath_golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """``(work dir, digests)`` of a generator run (in process: a cluster
    numbers its own threads, so the run does not depend on what ran
    before it)."""
    work = tmp_path_factory.mktemp("writepath")
    return work, golden.build_digests(work)


def test_every_golden_digest_is_reproduced(built):
    _, digests = built
    expected = json.loads(golden.GOLDEN.read_text())
    assert set(digests) == set(expected) | golden.RECUT
    assert {k: v for k, v in digests.items() if k not in golden.RECUT} == expected


def test_slog_tee_does_not_change_the_merged_file(built):
    _, digests = built
    for fb in golden.FRAME_BYTES:
        assert digests[f"fb{fb}/merge/merged.ute"] == digests[f"fb{fb}/merge+slog/merged.ute"]


def _pseudo(record):
    return record.bebits is BeBits.CONTINUATION and record.duration == 0


def test_leads_larger_than_a_frame_stay_whole(built):
    """The recut artifacts: same records as at any other frame size, the
    interval file's frames byte for byte the SLOG's, and every frame after
    the first led by its whole lead — none made of pseudo-records only."""
    work, _ = built
    out = work / "fb256"
    profile = Profile.read(out / "ivl" / "profile.ute")
    reference = work / "fb32768" / "merged.ute"
    config = DiffConfig(ignore_pseudo=True)
    assert validate_interval_file(out / "merged.ute", profile).ok
    for name in ("merged.ute", "run.slog"):
        assert diff_traces(out / name, reference, config, profile=profile).identical, name
    _, stream = golden.merged_stream(reference, profile)

    with IntervalReader(out / "merged.ute", profile) as ivl, SlogFile(out / "run.slog") as slog:
        ivl_frames = list(ivl.frames())
        assert len(ivl_frames) == len(slog.frames) > 100
        for a, b in zip(ivl_frames, slog.frames):
            assert ivl.source.fetch(a.offset, a.size) == slog.source.fetch(b.offset, b.size)
    # from.slog re-reads the merge's own leads as ordinary records, so only
    # its frame index tells them from the leads it added.
    for name in ("run.slog", "from.slog"):
        with SlogFile(out / name) as slog:
            widest = 0
            kept = []
            for i, entry in enumerate(slog.frames):
                records = slog.read_frame(entry)
                lead = records[: entry.n_pseudo]
                assert all(_pseudo(r) for r in lead)
                assert len(lead) == (len(open_states(kept)) if i else 0)
                assert len(lead) < entry.n_records  # never pseudo-records only
                widest = max(
                    widest, sum(len(r.encode(profile, slog.field_mask)) for r in lead)
                )
                kept += [r for r in records[entry.n_pseudo :] if not _pseudo(r)]
            assert widest > 256  # the case exists in this run
            assert kept == stream, name


def test_live_interval_final_file_keeps_the_live_frames(built, tmp_path):
    work, _ = built
    out = work / "fb2048"
    profile = Profile.read(out / "ivl" / "profile.ute")
    tables, records = golden.merged_stream(out / "merged.ute", profile)
    final = tmp_path / "live.ute"
    writer = LiveIntervalWriter(final, profile, frame_bytes=2048, **tables)
    for i, record in enumerate(records, 1):
        writer.write(record)
        if i % golden.LIVE_EPOCH_RECORDS == 0:
            writer.publish(seal=True)
    writer.publish(seal=True)
    last_epoch = read_manifest(writer.live_dir).frames
    writer.close()

    assert validate_interval_file(final, profile).ok
    batch = tmp_path / "batch.ute"
    with IntervalFileWriter(batch, profile, frame_bytes=2048, **tables) as w:
        for record in records:
            w.write(record)
    assert diff_traces(final, batch, profile=profile).identical
    with IntervalReader(final, profile) as reader:
        assert [
            (f.start_time, f.end_time, f.size, f.n_records) for f in reader.frames()
        ] == [(f.start_time, f.end_time, f.size, f.n_records) for f in last_epoch]
