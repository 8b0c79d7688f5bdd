"""``/api/frame`` and ``/api/utilization`` are written from columns
(``TraceSession.frame_json``, ``repro.query.utilization.utilization_json``);
the dict payloads stay as the in-process API.  These tests hold every byte
of the written form to ``json.dumps`` of the dict form — over the view
golden corpus traces and, with hypothesis, over everything a batch can
hold: every standard record type, vector extras, non-finite floats, field
names from all of Unicode, ticks past 2**53 and past int64, string values,
empty and all-pseudo frames, rows two groups cover — and the dict form to
the per-record recipe the daemon used before (``record_json`` below).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.layout import layout_for
from repro.core.records import BeBits, IntervalRecord
from repro.difftool.oracle import run_oracle
from repro.query import build_index, open_trace
from repro.query import utilization as utilization_module
from repro.query.columnar import FrameBatch, batch_from_records, decode_frame_batch
from repro.query.utilization import utilization_json, utilization_payload
from repro.serve import TraceSession
from repro.serve import session as session_module
from repro.serve.session import _frame_columns, _record_dicts, _record_texts
from repro.viz.jumpshot import VIEW_KINDS
from tests.test_view_golden import golden
from tests.test_writepath_batch import record_streams

PROFILE = standard_profile()
FIXTURES = ("good.slog", "sppm.slog", "states.slog", "wide.slog", "sppm-frames.slog")


@pytest.fixture(scope="module")
def sessions(tmp_path_factory):
    """One session per view-golden fixture, its index built in memory."""
    paths = golden.frame_fixtures(tmp_path_factory.mktemp("payload-json"))
    assert sorted(paths) == sorted(FIXTURES)
    opened = {}
    for name, path in paths.items():
        session = opened[name] = TraceSession(path)
        with open_trace(path) as handle:
            session.index = build_index(handle)
    yield opened
    for session in opened.values():
        session.close()


# ------------------------------------------------------------------ /frame


@pytest.mark.parametrize("name", FIXTURES)
def test_frame_json_is_the_dumped_payload(sessions, name):
    session = sessions[name]
    count = session.frame_count()
    assert count
    for index in range(count):
        assert session.frame_json(index) == json.dumps(session.frame_payload(index))
    for index in sorted({0, count // 2, count - 1}):
        for kind in VIEW_KINDS:
            assert session.frame_json(index, view=kind) == json.dumps(
                session.frame_payload(index, view=kind)
            ), (index, kind)


def record_json(record: IntervalRecord, *, pseudo: bool) -> dict:
    """One record of a frame payload, as the daemon built it from record
    objects before it wrote frames from columns."""
    return {
        "type": record.itype, "bebits": int(record.bebits),
        "start": record.start, "end": record.end,
        "node": record.node, "cpu": record.cpu, "thread": record.thread,
        "pseudo": pseudo, "extra": dict(record.extra),
    }


def written(batch: FrameBatch, n_pseudo: int) -> str:
    """The ``records`` value as ``frame_json`` writes it."""
    columns = _frame_columns(batch)
    texts = _record_texts(*columns, n_pseudo)
    if texts is None:
        return json.dumps(_record_dicts(*columns, n_pseudo))
    return "[" + ", ".join(texts) + "]"


def check(batch: FrameBatch, n_pseudo: int, records: list[IntervalRecord]) -> None:
    dicts = _record_dicts(*_frame_columns(batch), n_pseudo)
    want = [record_json(r, pseudo=i < n_pseudo) for i, r in enumerate(records)]
    # repr, not ==: NaN extras, and key order is part of the answer.
    assert repr(dicts) == repr(want)
    assert written(batch, n_pseudo) == json.dumps(want)


@pytest.mark.parametrize("name", FIXTURES)
def test_frame_payload_is_the_per_record_recipe(sessions, name):
    session = sessions[name]
    for index, frame in enumerate(session.reader.frames):
        want = [
            record_json(r, pseudo=i < frame.n_pseudo)
            for i, r in enumerate(session.reader.reference_frame(frame))
        ]
        assert session.frame_payload(index)["records"] == want


@settings(max_examples=150, deadline=None)
@given(record_streams(), st.data())
def test_decoded_frames_of_every_record_type(records, data):
    """What the frame store caches: the decoder's batch — fixed-layout
    types as one group of columns each (uint64 and float fields, ``inf``
    included), ``MPI_Waitall``'s vector ``seqnos`` record by record."""
    blob = b"".join(r.encode(PROFILE, MASK_ALL_MERGED) for r in records)
    batch = decode_frame_batch(blob, PROFILE, MASK_ALL_MERGED)
    n_pseudo = data.draw(st.integers(0, len(records)))
    check(batch, n_pseudo, batch.to_records())
    # A salvage-mode reader's batch mirrors record objects.
    check(batch_from_records(records), n_pseudo, records)


names = st.text(min_size=1, max_size=8)
ticks = st.one_of(
    st.integers(0, 1 << 70), st.sampled_from([(1 << 53) + 1, (1 << 63) - 1, 1 << 63, 1 << 64])
)
values = st.one_of(
    st.integers(-(1 << 70), 1 << 70),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(0, 1 << 64), max_size=4),
    st.lists(st.text(max_size=3), max_size=3),
)


@st.composite
def loose_records(draw):
    """Records no file holds — what a batch is still allowed to: field
    names from all of Unicode (quotes, ``%`` and backslashes among them),
    string and list values, ticks past 2**53 and past int64."""
    keys = draw(st.lists(names, min_size=0, max_size=4, unique=True))
    n = draw(st.integers(0, 12))
    return [
        IntervalRecord(
            draw(st.integers(0, 300)), draw(st.sampled_from(list(BeBits))),
            draw(ticks), draw(ticks), draw(st.integers(0, 0xFFFF)),
            draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
            {key: draw(values) for key in keys if draw(st.booleans())},
        )
        for _ in range(n)
    ]


@settings(max_examples=200, deadline=None)
@given(loose_records(), st.data())
def test_whatever_a_batch_can_hold(records, data):
    n_pseudo = data.draw(st.integers(0, len(records)))
    check(batch_from_records(records), n_pseudo, records)


column_kinds = st.sampled_from(["<i4", "<u8", "<f8", "<f4", "object", "list"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_groups_of_columns(data):
    """Batches built group by group, as the write path builds them: typed
    columns under Unicode names, a per-row group over every row, and rows
    two groups cover (one may even repeat the other's field) — the answer
    is what the batch's own records dump to, whichever route writes it."""
    n = data.draw(st.integers(0, 10))
    batch = FrameBatch(n)
    batch.itype[:] = data.draw(st.lists(st.integers(0, 300), min_size=n, max_size=n))
    batch.start[:] = data.draw(st.lists(st.integers(0, 1 << 62), min_size=n, max_size=n))
    batch.dura[:] = 1
    batch.end = batch.start + batch.dura

    def column(size):
        kind = data.draw(column_kinds)
        if kind == "list":
            return data.draw(st.lists(values, min_size=size, max_size=size))
        if kind == "object":
            drawn = data.draw(st.lists(ticks, min_size=size, max_size=size))
            return np.array(drawn + [None], dtype=object)[:size]
        if kind.startswith("<f"):
            drawn = data.draw(st.lists(st.floats(width=32), min_size=size, max_size=size))
            return np.array(drawn, dtype=kind)
        info = np.iinfo(np.dtype(kind))
        drawn = data.draw(st.lists(st.integers(info.min, info.max), min_size=size, max_size=size))
        return np.array(drawn, dtype=kind)

    for _ in range(data.draw(st.integers(0, 3))):
        keys = tuple(data.draw(st.lists(names, min_size=1, max_size=3, unique=True)))
        if data.draw(st.booleans()):
            batch.add_group(None, keys, {key: column(n) for key in keys})
        else:
            rows = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)))
            if n and rows:
                batch.add_group(
                    np.array(rows, dtype=np.intp), keys, {key: column(len(rows)) for key in keys}
                )
    check(batch, data.draw(st.integers(0, n)), batch.to_records())


def test_the_fast_path_is_the_one_taken(sessions):
    """Identity alone would hold if everything fell back to ``json.dumps``:
    a decoded frame of scalar fields must not."""
    session = sessions["wide.slog"]
    fast = 0
    for frame in session.reader.frames:
        core, groups = _frame_columns(session.reader.read_frame_batch(frame))
        assert all(None not in conversions for *_, conversions in groups)
        assert _record_texts(core, groups, frame.n_pseudo) is not None
        fast += len(groups)
    assert fast
    # ... and a vector field must: its values are lists.
    vector_types = [
        t for t in PROFILE.record_types()
        if not layout_for(PROFILE, t, MASK_ALL_MERGED).fixed
    ]
    assert vector_types
    records = [
        IntervalRecord(t, BeBits.COMPLETE, 5, 7, 1, 2, 3, {"seqnos": [1, 2, 1 << 63]})
        for t in vector_types
    ]
    blob = b"".join(r.encode(PROFILE, MASK_ALL_MERGED) for r in records)
    batch = decode_frame_batch(blob, PROFILE, MASK_ALL_MERGED)
    assert all(None in conversions for *_, conversions in _frame_columns(batch)[1])
    check(batch, 0, batch.to_records())


def test_overlapping_groups_fall_back_for_the_frame(sessions, monkeypatch):
    session = sessions["good.slog"]
    frame = session.reader.frames[0]
    batch = session.reader.read_frame_batch(frame)
    doubled = batch.take(np.arange(batch.n))
    doubled.add_column("once", np.zeros(batch.n, dtype=np.int64))
    doubled.add_column("again", np.arange(batch.n, dtype=np.int64))
    assert _record_texts(*_frame_columns(doubled), frame.n_pseudo) is None
    monkeypatch.setattr(session.reader, "read_frame_batch", lambda frame: doubled)
    payload = session.frame_payload(0)
    assert all("again" in record["extra"] for record in payload["records"])
    assert session.frame_json(0) == json.dumps(payload)


# ------------------------------------------------------------ /utilization


def windows(util):
    span = util.t_max - util.t_min
    return {
        "whole": (util.t_min, util.t_max),
        "third": (util.t_min + span // 3, util.t_min + 2 * span // 3),
        "narrow": (util.t_min + span // 2, util.t_min + span // 2 + max(span // 500, 1)),
        "outside": (util.t_max + 10, util.t_max + 20),
    }


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("kind", ["thread", "cpu"])
def test_utilization_json_is_the_dumped_payload(sessions, name, kind):
    session = sessions[name]
    util = session.index.utilization
    tps = session.reader.ticks_per_sec
    for label, window in windows(util).items():
        for bins in (1, 64, 512, 8192):
            if bins == 8192 and label != "whole":
                continue  # megabytes each; the whole run has every shape
            args = (util, kind, window, bins, tps, PROFILE.record_name)
            assert utilization_json(*args) == json.dumps(utilization_payload(*args)), (
                label, bins
            )
    # The session's two methods, windowed (seconds) and whole.
    t0, t1 = (t / tps for t in windows(util)["third"])
    for window in (None, (t0, t1)):
        text = session.utilization_json(kind, window=window, max_bins=64)
        assert text == json.dumps(session.utilization_payload(kind, window=window, max_bins=64))
        assert json.loads(text)["lanes"]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["good.slog", "states.slog"]), st.sampled_from(["thread", "cpu"]),
    st.integers(1, 600),
    st.one_of(st.floats(min_value=1e-3, max_value=1e12), st.sampled_from([1e-320, 5e-324])),
    st.text(max_size=8), st.data(),
)
def test_utilization_with_any_names_and_tick_rates(sessions, name, kind, bins, tps, label, data):
    """State names from all of Unicode, names that cannot be looked up, and
    tick rates so small the seconds overflow to ``inf`` (``json.dumps``
    spells it ``Infinity``; the writer leaves such an answer to it)."""
    util = sessions[name].index.utilization
    t0 = data.draw(st.integers(util.t_min - 5, util.t_max))
    t1 = data.draw(st.integers(t0, util.t_max + 5))

    def record_name(itype):
        if itype % 3 == 0:
            raise KeyError(itype)
        return f"{label}{itype}"

    args = (util, kind, (t0, t1), bins, tps, record_name)
    with np.errstate(over="ignore"):
        assert utilization_json(*args) == json.dumps(utilization_payload(*args))


def test_no_hierarchy_no_answer(sessions, monkeypatch):
    session = sessions["good.slog"]
    monkeypatch.setattr(session, "index", None)
    assert session.utilization_json("thread") is None
    assert session.utilization_payload("thread") is None


# ------------------------------------------------------------- the oracle


class TestOracleCheck:
    def test_zero_findings(self, corpus):
        report = run_oracle(corpus.path("good.slog"), PROFILE, serve=False)
        assert "payload_parity" in report.checks
        assert report.ok, report.summary()
        # An interval file has no daemon payloads.
        assert "payload_parity" not in run_oracle(
            corpus.path("good.ute"), PROFILE, serve=False
        ).checks

    @pytest.mark.parametrize("broken", ["frame", "utilization"])
    def test_it_bites_when_a_writer_drifts(self, corpus, monkeypatch, broken):
        """One byte off in either writer — a separator the dict route does
        not write — must be a finding naming the body and the byte."""
        if broken == "frame":
            heads = tuple(h.replace('"cpu": ', '"cpu":') for h in session_module._RECORD_HEADS)
            monkeypatch.setattr(session_module, "_RECORD_HEADS", heads)
        else:
            cell = utilization_module._CELL.replace('"busy": ', '"busy":')
            monkeypatch.setattr(utilization_module, "_CELL", cell)
        report = run_oracle(corpus.path("good.slog"), PROFILE, serve=False)
        findings = [f for f in report.findings if f.check == "payload_parity"]
        assert findings and all(broken in f.subject for f in findings)
        assert {f.check for f in report.findings} == {"payload_parity"}
