"""Failure injection: corrupted files must fail with framework errors.

Hypothesis flips random bytes in valid artifacts; readers must either
(a) succeed (the corruption hit slack/ignored bytes or produced another
structurally valid file) or (b) raise ``ReproError`` — never an uncaught
``struct.error`` / ``IndexError`` / ``UnicodeDecodeError``.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntervalFileWriter, IntervalReader, standard_profile
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.profilefmt import MAGIC, Profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError, ReproError
from repro.tracing.events import RawEvent, dispatch_event
from repro.tracing.hooks import HookId
from repro.tracing.rawfile import RawFileHeader, RawTraceReader, RawTraceWriter
from repro.utils.slog import SlogFile, SlogWriter
from tests.conftest import byte_source, max_examples

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    # Interval file.
    ivl = tmp / "f.ute"
    table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
    with IntervalFileWriter(
        ivl, PROFILE, table, field_mask=MASK_ALL_PER_NODE,
        markers={1: "phase"}, frame_bytes=512,
    ) as writer:
        for i in range(60):
            writer.write(
                IntervalRecord(
                    IntervalType.MARKER if i % 5 else IntervalType.RUNNING,
                    BeBits.COMPLETE, i * 100, 50, 0, 0, 0,
                    {"markerId": 1} if i % 5 else {},
                )
            )
    # Raw trace.
    raw = tmp / "f.raw"
    with RawTraceWriter(raw, RawFileHeader(0, 2, 0)) as writer:
        writer.write(RawEvent(HookId.MARKER_DEFINE, 0, 5, 0, (1,), "phase"))
        for i in range(60):
            writer.write(dispatch_event(i * 10, 5, i % 2))
    # SLOG.
    slog = tmp / "f.slog"
    sw = SlogWriter(
        slog, PROFILE, table, field_mask=MASK_ALL_PER_NODE,
        time_range=(0, 6000), frame_bytes=512,
    )
    for i in range(60):
        sw.write(IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, i * 100, 50, 0, 0, 0))
    sw.close()
    return {
        "interval": ivl.read_bytes(),
        "raw": raw.read_bytes(),
        "slog": slog.read_bytes(),
        "tmp": tmp,
    }


def corrupt(data: bytes, flips: list[tuple[int, int]]) -> bytes:
    out = bytearray(data)
    for pos, value in flips:
        out[pos % len(out)] ^= value or 0xFF
    return bytes(out)


flip_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(0, 255)),
    min_size=1,
    max_size=8,
)


@given(flips=flip_strategy)
@settings(max_examples=max_examples(120), deadline=None)
def test_interval_reader_never_crashes(artifacts, flips):
    path = artifacts["tmp"] / "c.ute"
    path.write_bytes(corrupt(artifacts["interval"], flips))
    try:
        reader = IntervalReader(path, PROFILE)
        for _ in reader.intervals():
            pass
        reader.totals()
    except ReproError:
        pass  # the acceptable failure mode


@given(flips=flip_strategy)
@settings(max_examples=max_examples(120), deadline=None)
def test_raw_reader_never_crashes(artifacts, flips):
    path = artifacts["tmp"] / "c.raw"
    path.write_bytes(corrupt(artifacts["raw"], flips))
    try:
        for _ in RawTraceReader(path):
            pass
    except ReproError:
        pass


@given(flips=flip_strategy)
@settings(max_examples=max_examples(120), deadline=None)
def test_slog_reader_never_crashes(artifacts, flips):
    path = artifacts["tmp"] / "c.slog"
    path.write_bytes(corrupt(artifacts["slog"], flips))
    try:
        slog = SlogFile(path)
        slog.records()
        slog.preview_matrix()
    except ReproError:
        pass


@given(flips=flip_strategy)
@settings(max_examples=max_examples(80), deadline=None)
def test_validator_never_crashes(artifacts, flips):
    """The validator must *report* corruption, not die on it."""
    from repro.utils.validate import validate_interval_file

    path = artifacts["tmp"] / "v.ute"
    path.write_bytes(corrupt(artifacts["interval"], flips))
    validate_interval_file(path, PROFILE)  # must return a report, not raise


# --------------------------------------------------------------------------
# The streaming byte sources must honor the same contract as the legacy
# in-memory path: corruption surfaces as ReproError, never a low-level
# exception — whichever backend serves the bytes.

STREAMING_MODES = ("mmap", "file")


@given(flips=flip_strategy)
@settings(max_examples=max_examples(60), deadline=None)
def test_streaming_interval_reader_never_crashes(artifacts, flips):
    path = artifacts["tmp"] / "cs.ute"
    path.write_bytes(corrupt(artifacts["interval"], flips))
    for mode in STREAMING_MODES:
        try:
            with byte_source(mode, path) as src, IntervalReader(
                path, PROFILE, source=src
            ) as reader:
                for _ in reader.intervals():
                    pass
                reader.totals()
        except ReproError:
            pass


@given(flips=flip_strategy)
@settings(max_examples=max_examples(60), deadline=None)
def test_streaming_raw_reader_never_crashes(artifacts, flips):
    path = artifacts["tmp"] / "cs.raw"
    path.write_bytes(corrupt(artifacts["raw"], flips))
    for mode in STREAMING_MODES:
        try:
            with byte_source(mode, path) as src, RawTraceReader(path, source=src) as reader:
                for _ in reader:
                    pass
        except ReproError:
            pass


@given(flips=flip_strategy)
@settings(max_examples=max_examples(60), deadline=None)
def test_streaming_slog_reader_never_crashes(artifacts, flips):
    path = artifacts["tmp"] / "cs.slog"
    path.write_bytes(corrupt(artifacts["slog"], flips))
    for mode in STREAMING_MODES:
        try:
            with byte_source(mode, path) as src, SlogFile(path, source=src) as slog:
                slog.records()
                slog.preview_matrix()
        except ReproError:
            pass


# --------------------------------------------------------------------------
# Recovery properties: whatever the corruption, ``recover_file`` must either
# refuse with ReproError (unrecoverable — e.g. a smashed header) or produce
# an output that validates with zero errors.  Truncation additionally
# guarantees the output is a subset of the original records: nothing is
# invented past the cut.


@given(flips=flip_strategy)
@settings(max_examples=max_examples(60), deadline=None)
def test_recover_flipped_interval_validates_or_refuses(artifacts, flips):
    from repro.utils.recover import recover_file

    path = artifacts["tmp"] / "rf.ute"
    out = artifacts["tmp"] / "rf.rec.ute"
    path.write_bytes(corrupt(artifacts["interval"], flips))
    out.unlink(missing_ok=True)
    try:
        report = recover_file(path, out, profile=PROFILE)
    except ReproError:
        return  # unrecoverable damage must still be a framework error
    assert report.ok, report.summary()
    # The recovered file replays cleanly through the strict reader.
    with IntervalReader(out, PROFILE) as reader:
        assert sum(1 for _ in reader.intervals()) == report.records_out


@given(flips=flip_strategy)
@settings(max_examples=max_examples(40), deadline=None)
def test_recover_flipped_slog_validates_or_refuses(artifacts, flips):
    from repro.utils.recover import recover_file

    path = artifacts["tmp"] / "rf.slog"
    out = artifacts["tmp"] / "rf.rec.slog"
    path.write_bytes(corrupt(artifacts["slog"], flips))
    out.unlink(missing_ok=True)
    try:
        report = recover_file(path, out)
    except ReproError:
        return
    assert report.ok, report.summary()
    with SlogFile(out) as slog:
        assert len(slog.records()) == report.records_out


@given(cut=st.integers(min_value=1, max_value=10**6))
@settings(max_examples=max_examples(60), deadline=None)
def test_recover_truncated_interval_yields_record_subset(artifacts, cut):
    from repro.utils.recover import recover_file

    original_bytes = artifacts["interval"]
    path = artifacts["tmp"] / "rt.ute"
    out = artifacts["tmp"] / "rt.rec.ute"
    path.write_bytes(original_bytes[: cut % len(original_bytes)])
    out.unlink(missing_ok=True)
    try:
        report = recover_file(path, out, profile=PROFILE)
    except ReproError:
        return  # cut inside the header: nothing to recover
    assert report.ok, report.summary()
    full = artifacts["tmp"] / "rt-full.ute"
    full.write_bytes(original_bytes)
    with IntervalReader(full, PROFILE) as reader:
        original = set(map(repr, reader.intervals()))
    with IntervalReader(out, PROFILE) as reader:
        recovered = [repr(r) for r in reader.intervals()]
    assert all(r in original for r in recovered)


@given(flips=flip_strategy)
@settings(max_examples=max_examples(40), deadline=None)
def test_salvage_readers_never_crash(artifacts, flips):
    """Salvage mode holds the same contract as strict: corruption may cost
    records, but never surfaces a low-level exception (header damage still
    raises ReproError)."""
    tmp = artifacts["tmp"]
    for name, blob in (("interval", "sv.ute"), ("raw", "sv.raw"), ("slog", "sv.slog")):
        path = tmp / blob
        path.write_bytes(corrupt(artifacts[name], flips))
        try:
            if name == "interval":
                with IntervalReader(path, PROFILE, errors="salvage") as reader:
                    list(reader.intervals())
            elif name == "raw":
                with RawTraceReader(path, errors="salvage") as reader:
                    reader.events()
            else:
                with SlogFile(path, errors="salvage") as slog:
                    slog.records()
        except ReproError:
            pass


# --------------------------------------------------------------------------
# Wrap-mode traces torn mid-record: a crash or buffer-window edge can cut
# the final record short.  That must surface as FormatError ("truncated
# event"), never IndexError / struct.error.


def _wrap_trace(tmp_path):
    from repro.errors import FormatError  # noqa: F401  (documented contract)

    path = tmp_path / "wrap.raw"
    with RawTraceWriter(
        path, RawFileHeader(0, 2, 0), buffer_bytes=512, wrap=True
    ) as writer:
        writer.write(RawEvent(HookId.MARKER_DEFINE, 0, 5, 0, (1,), "phase"))
        for i in range(120):
            writer.write(dispatch_event(i * 10, 5, i % 2))
    assert writer.records_dropped > 0  # the window really wrapped
    return path


@pytest.mark.parametrize("mode", ["memory", *STREAMING_MODES])
def test_wrap_trace_truncated_final_record_raises_formaterror(tmp_path, mode):
    from repro.errors import FormatError

    path = _wrap_trace(tmp_path)
    with RawTraceReader(path) as reader:
        offsets = [(off, length) for _hook, off, length in reader.scan()]
    data = path.read_bytes()
    last_off, last_len = offsets[-1]
    # Cut inside the hookword, just past it, and one byte short of the end.
    for cut in (last_off + 1, last_off + 3, last_off + 5, last_off + last_len - 1):
        torn = tmp_path / f"torn-{cut}.raw"
        torn.write_bytes(data[:cut])
        with pytest.raises(FormatError, match="truncated event"):
            with byte_source(mode, torn) as src, RawTraceReader(torn, source=src) as reader:
                for _ in reader:
                    pass


@pytest.mark.parametrize("mode", ["memory", *STREAMING_MODES])
def test_intact_wrap_trace_still_reads(tmp_path, mode):
    path = _wrap_trace(tmp_path)
    with RawTraceReader(path, source=byte_source(mode, path)) as reader:
        events = reader.events()
    assert events  # the surviving window reads cleanly


# --------------------------------------------------------------------------
# Profile bodies whose CRC matches their damage: the checksum passes, so
# the decoder itself must refuse what it cannot read.  Whatever it accepts
# is canonical, which is what lets the standard profile's bytes stand for
# the standard profile.


@given(
    flips=st.lists(
        st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(0, 255)),
        max_size=8,
    ),
    cut=st.none() | st.integers(min_value=0, max_value=2000),
    tail=st.binary(max_size=8),
)
@settings(max_examples=max_examples(120), deadline=None)
def test_profile_body_with_recomputed_crc_refuses_or_round_trips(flips, cut, tail):
    body = corrupt(PROFILE.to_bytes()[12:], flips)[:cut] + tail
    data = MAGIC + struct.pack("<I", zlib.crc32(body)) + body
    try:
        profile = Profile.from_bytes(data)
    except FormatError:
        return
    assert profile.to_bytes() == data
