"""Round-trip and property tests for the raw trace file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.tracing.events import RawEvent, dispatch_event, global_clock_event
from repro.tracing.hooks import HookId
from repro.tracing.rawfile import RawFileHeader, RawTraceReader, RawTraceWriter
from tests.conftest import max_examples


def test_header_roundtrip():
    header = RawFileHeader(node_id=3, n_cpus=8, base_local_ts=123456)
    decoded = RawFileHeader.decode(header.encode())
    assert decoded == header


def test_header_rejects_bad_magic():
    blob = b"X" * RawFileHeader.size()
    with pytest.raises(TraceError, match="magic"):
        RawFileHeader.decode(blob)


def test_event_roundtrip_simple():
    ev = dispatch_event(1000, 42, 3)
    decoded, size = RawEvent.decode(ev.encode())
    assert decoded == ev
    assert size == len(ev.encode())


def test_event_roundtrip_with_args_and_text():
    ev = RawEvent(HookId.MARKER_DEFINE, 5, 7, 0, (12,), "Initial Phase")
    decoded, _ = RawEvent.decode(ev.encode())
    assert decoded.args == (12,)
    assert decoded.text == "Initial Phase"


hook_ids = st.sampled_from(
    [int(h) for h in HookId] + [0x100, 0x105, 0x200, 0x211]
)


@given(
    hook=hook_ids,
    ts=st.integers(min_value=0, max_value=2**63 - 1),
    tid=st.integers(min_value=0, max_value=2**32 - 1),
    cpu=st.integers(min_value=0, max_value=2**16 - 1),
    args=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=8),
    text=st.text(max_size=64),
)
@settings(max_examples=max_examples(250))
def test_event_roundtrip_property(hook, ts, tid, cpu, args, text):
    ev = RawEvent(hook, ts, tid, cpu, tuple(args), text)
    decoded, consumed = RawEvent.decode(ev.encode())
    assert decoded == ev
    assert consumed == len(ev.encode())


@given(
    events=st.lists(
        st.tuples(
            hook_ids,
            st.integers(min_value=0, max_value=2**40),
            st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=4),
        ),
        max_size=30,
    )
)
@settings(max_examples=max_examples(50))
def test_file_roundtrip_property(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("raw") / "t.raw"
    header = RawFileHeader(node_id=1, n_cpus=4, base_local_ts=0)
    originals = [RawEvent(h, ts, 9, 1, tuple(a)) for h, ts, a in events]
    with RawTraceWriter(path, header) as writer:
        for ev in originals:
            writer.write(ev)
    reader = RawTraceReader(path)
    assert reader.header.node_id == 1
    assert reader.events() == originals


def test_writer_flushes_on_buffer_full(tmp_path):
    path = tmp_path / "t.raw"
    header = RawFileHeader(node_id=0, n_cpus=1, base_local_ts=0)
    writer = RawTraceWriter(path, header, buffer_bytes=256)
    for i in range(100):
        writer.write(dispatch_event(i, 1, 0))
    assert writer.records_written > 0  # flushed before close
    writer.close()
    assert len(RawTraceReader(path).events()) == 100


def test_wrap_mode_keeps_only_recent_records(tmp_path):
    path = tmp_path / "t.raw"
    header = RawFileHeader(node_id=0, n_cpus=1, base_local_ts=0)
    writer = RawTraceWriter(path, header, buffer_bytes=512, wrap=True)
    for i in range(200):
        writer.write(dispatch_event(i, 1, 0))
    writer.close()
    events = RawTraceReader(path).events()
    assert writer.records_dropped > 0
    assert len(events) < 200
    # Survivors are the most recent, still in order.
    timestamps = [e.local_ts for e in events]
    assert timestamps == sorted(timestamps)
    assert timestamps[-1] == 199


def test_write_after_close_rejected(tmp_path):
    path = tmp_path / "t.raw"
    writer = RawTraceWriter(path, RawFileHeader(0, 1, 0))
    writer.close()
    with pytest.raises(TraceError):
        writer.write(dispatch_event(0, 1, 0))


def test_tiny_buffer_rejected(tmp_path):
    with pytest.raises(TraceError):
        RawTraceWriter(tmp_path / "t.raw", RawFileHeader(0, 1, 0), buffer_bytes=8)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.raw"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(TraceError, match="truncated"):
        RawTraceReader(path)


def test_global_clock_event_payload():
    ev = global_clock_event(local_ts=1_000_018, global_ts=1_000_000)
    assert ev.hook_id == HookId.GLOBAL_CLOCK
    assert ev.local_ts == 1_000_018
    assert ev.args == (1_000_000,)


# ---------------------------------------------------------- the window walk


def _record_at_a_time(reader):
    """The walk the reader used to make — one fetch for the hookword, one
    for the body, per event — as ``(events, error)``."""
    import struct

    from repro.errors import FormatError
    from repro.tracing.hooks import decode_hookword

    events, offset, end = [], RawFileHeader.size(), len(reader.source)
    try:
        while offset < end:
            word = reader.source.fetch(offset, 4)
            if len(word) < 4:
                raise FormatError(f"{reader.path}: truncated event at offset {offset}")
            _hook, record_len = decode_hookword(struct.unpack("<I", word)[0])
            if record_len < 22:
                raise TraceError(
                    f"{reader.path}: corrupt event at offset {offset} "
                    f"(record length {record_len})"
                )
            if offset + record_len > end:
                raise FormatError(f"{reader.path}: truncated event at offset {offset}")
            events.append(reader.event_at(offset, record_len))
            offset += record_len
    except (TraceError, FormatError) as exc:
        return events, (type(exc), str(exc))
    return events, None


def _walked(reader):
    from repro.errors import FormatError

    events = []
    try:
        for event in reader:
            events.append(event)
    except (TraceError, FormatError) as exc:
        return events, (type(exc), str(exc))
    return events, None


def _window_sizes(path):
    """Window sizes that put the boundary before record 10 just before, on
    and just after the first window's edge (and split its hookword), plus
    one smaller than any record and the default."""
    with RawTraceReader(path) as reader:
        boundary = [offset for _hook, offset, _len in reader.scan()][10]
    first = boundary - RawFileHeader.size()
    return [4, first - 3, first, first + 2, first + 4, first + 9, RawTraceReader.WINDOW_BYTES]


@pytest.mark.parametrize("name", ["good.raw", "trunc.raw", "midflip.raw"])
def test_window_walk_is_the_record_at_a_time_walk(corpus, monkeypatch, name):
    path = corpus.path(name)
    with RawTraceReader(path) as reader:
        want = _record_at_a_time(reader)
    assert want[0]
    assert (want[1] is None) == (name == "good.raw")
    for window in _window_sizes(corpus.path("good.raw")):
        monkeypatch.setattr(RawTraceReader, "WINDOW_BYTES", window)
        with RawTraceReader(path) as reader:
            assert _walked(reader) == want, window
            if want[1] is None:
                scanned = list(reader.scan())
                assert len(reader) == len(scanned) == len(want[0])
                assert [reader.event_at(off, n) for _, off, n in scanned] == want[0]
            else:
                with pytest.raises(want[1][0]) as raised:
                    len(reader)
                assert str(raised.value) == want[1][1]


@pytest.mark.parametrize("name", ["good.raw", "trunc.raw", "midflip.raw"])
def test_salvage_walk_does_not_depend_on_the_window(corpus, monkeypatch, name):
    path = corpus.path(name)
    seen = []
    for window in _window_sizes(corpus.path("good.raw")):
        monkeypatch.setattr(RawTraceReader, "WINDOW_BYTES", window)
        with RawTraceReader(path, errors="salvage") as reader:
            events = list(reader)
            seen.append((events, reader.salvage.records_dropped, reader.salvage.bytes_skipped))
    assert all(s == seen[0] for s in seen)
    assert len(seen[0][0]) == corpus.manifest[name].get("recovered_records", 51)


def test_a_record_longer_than_the_window_gets_its_own(tmp_path, monkeypatch):
    path = tmp_path / "long.raw"
    events = [
        dispatch_event(10, 1, 0),
        RawEvent(HookId.MARKER_DEFINE, 20, 1, 0, (1,), "x" * 300),
        dispatch_event(30, 1, 0),
    ]
    with RawTraceWriter(path, RawFileHeader(0, 1, 0)) as writer:
        for event in events:
            writer.write(event)
    monkeypatch.setattr(RawTraceReader, "WINDOW_BYTES", 64)
    with RawTraceReader(path) as reader:
        assert list(reader) == events


def test_columns_match_the_records_when_a_record_straddles_the_window(corpus, monkeypatch):
    """``columns()`` gathers heads, text lengths and payload words per
    window; a window cut through record 10 moves that record to the next
    window and changes no value or dtype."""
    path = corpus.path("good.raw")
    with RawTraceReader(path) as reader:
        whole = reader.columns()
        events = list(reader)
        scanned = list(reader.scan())
    _hook, offset, length = scanned[10]
    monkeypatch.setattr(
        RawTraceReader, "WINDOW_BYTES", offset - RawFileHeader.size() + length // 2
    )
    with RawTraceReader(path) as reader:
        cut = reader.columns()
        texts = [
            reader.source.fetch(at, size).decode("utf-8")
            for at, size in zip(cut.text_offset.tolist(), cut.text_len.tolist())
        ]
    for name in ("offset", "hook", "ts", "tid", "cpu", "nargs", "text_len", "args", "arg_start"):
        a, b = getattr(whole, name), getattr(cut, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    args = cut.args.tolist()
    assert [
        RawEvent(hook, ts, tid, cpu, tuple(args[at : at + count]), text)
        for hook, ts, tid, cpu, at, count, text in zip(
            cut.hook.tolist(), cut.ts.tolist(), cut.tid.tolist(), cut.cpu.tolist(),
            cut.arg_start.tolist(), cut.nargs.tolist(), texts,
        )
    ] == events
    assert cut.offset.tolist() == [offset for _hook, offset, _len in scanned]
