"""The one scan above the frame store (``repro.query.scan``) and its callers.

Three contracts:

* **Parity** — every windowed read is a caller of one ``Scan``, so over the
  same file, sidecar state and window they all see the same records —
  the scan's own, and the ones ``engine.reference_scan`` decodes over the
  same plan — carry the same plan, and account IO with the same five keys;
* **Byte identity** — every user-visible output of those callers matches
  ``tests/data/scan_golden.json``, produced by the commit before they were
  folded into the scan (see ``tests/data/generate_scan_golden.py``);
* **Outside input** — the text forms (``Query.from_params``, ``T0:T1``
  windows, instants in seconds) refuse malformed and non-finite values with
  a ``FormatError``: a 400 over HTTP, ``prog: error:`` and exit 2 on the
  command line, never a 500 or a traceback.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.analysis.blocking import call_profile, format_call_profile
from repro.cli import main_dump, main_profile, main_query, main_stats
from repro.core import standard_profile
from repro.core.windows import parse_window, seconds_to_ticks
from repro.errors import FormatError
from repro.query import (
    Aggregate,
    ExecStats,
    Query,
    ThreadSel,
    build_index,
    execute,
    index_path_for,
    open_scan,
    open_trace,
    run_query,
    write_index,
)
from repro.query.columnar import batch_from_records, concat_batches
from repro.query.engine import reference_rows, reference_scan
from repro.query.model import CORE_COLUMNS, record_value
from repro.serve import ServeClient, TraceSession
from repro.serve.app import ServerThread
from repro.utils.stats import generate_tables, interval_records

_SPEC = importlib.util.spec_from_file_location(
    "generate_scan_golden",
    Path(__file__).parent / "data" / "generate_scan_golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

PROFILE = standard_profile()
IO_KEYS = {"bytes_read", "fetches", "cache_hits", "frames_decoded", "frames_scanned"}
SIDECARS = ("fresh", "none", "stale")
WINDOWS = ("whole", "mid-third", "nothing")
#: Where the records every caller is held to come from: the scan itself, or
#: the per-record reference (``engine.reference_scan``) over the scan's plan.
EXPECTED_FROM = ("columnar", "record")


# ---------------------------------------------------------------------------
# Fixtures: one .ute and one .slog, each under three sidecar states.


def _write_sidecar(trace: Path, built_from: Path) -> None:
    with open_trace(built_from, PROFILE) as handle:
        write_index(build_index(handle), index_path_for(trace))


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[tuple[str, str], Path]:
    """``{(kind, sidecar state): path}``; the stale sidecar is a valid one
    built over a different trace of the same kind."""
    root = tmp_path_factory.mktemp("scan")
    makers = {"ute": golden.make_ivl, "slog": golden.make_slog}
    out = {}
    for kind, make in makers.items():
        original = make(root / f"original.{kind}")
        other = root / f"other.{kind}"
        if kind == "ute":
            golden.make_ivl(other)
            with open(other, "ab") as handle:
                handle.write(b"\0")  # same frames, different bytes
        else:
            golden.write_big_slog(other, n_nodes=1, threads_per_node=2, n_records=50)
        for state in SIDECARS:
            path = root / state / f"x.{kind}"
            path.parent.mkdir(exist_ok=True)
            shutil.copyfile(original, path)
            if state != "none":
                _write_sidecar(path, path if state == "fresh" else other)
            out[kind, state] = path
    return out


def _window(path: Path, name: str):
    if name == "whole":
        return None
    if name == "nothing":
        return parse_window(golden.WINDOW_NOTHING)
    with open_trace(path, PROFILE) as handle:
        t_min = min(f.start_time for f in handle.frames)
        t_max = max(f.end_time for f in handle.frames)
        tps = handle.ticks_per_sec
    third = (t_max - t_min) / 3
    return ((t_min + third) / tps, (t_max - third) / tps)


def _core(record) -> tuple:
    return tuple(record_value(record, name) for name in CORE_COLUMNS)


# ---------------------------------------------------------------------------
# Parity of the scan's callers.


@pytest.mark.parametrize("expected_from", EXPECTED_FROM)
@pytest.mark.parametrize("window_name", WINDOWS)
@pytest.mark.parametrize("sidecar", SIDECARS)
@pytest.mark.parametrize("kind", ["ute", "slog"])
class TestCallersAgree:
    def test_records_plan_and_io(self, traces, kind, sidecar, window_name, expected_from, capsys):
        path = traces[kind, sidecar]
        window = _window(path, window_name)

        with open_scan(path, PROFILE, window=window) as s:
            misses_before = s.handle.stats()["misses"]
            if expected_from == "record":
                records = list(reference_scan(s.handle, s.query, s.plan))
            else:
                records = [
                    r for batch, mask in s.batches() for r in batch.where(mask).to_records()
                ]
            io = s.io()
            plan = s.plan.describe()
            assert set(io) == IO_KEYS
            assert io["frames_decoded"] == s.handle.stats()["misses"] - misses_before
            assert io["frames_scanned"] == len(s.plan.frames)
            if expected_from == "record":
                # The reference never caches: every visit is a miss, twice over.
                assert io["cache_hits"] == 0
                assert reference_rows(s.handle, s.query, s.plan) == [_core(r) for r in records]
                again = s.io()
                assert again["cache_hits"] == 0
                assert again["frames_decoded"] == 2 * len(s.plan.frames)
            markers = dict(s.handle.markers)
            tps, thread_table = s.handle.ticks_per_sec, s.handle.thread_table
        assert plan["mode"] == ("indexed" if sidecar == "fresh" else "full-scan")
        if sidecar == "stale":
            assert "stale" in plan["reason"]
        if window_name == "nothing":
            assert records == []
            if sidecar == "fresh":
                assert io["frames_scanned"] == 0
        else:
            assert records

        result = run_query(path, Query(), profile=PROFILE, window=window)
        assert result.rows == [_core(r) for r in records]
        assert result.plan.describe() == plan
        assert result.io == io  # both cold: the same reads

        io_log: dict = {}
        streamed = [
            r for batch in interval_records([path], PROFILE, window=window, io_log=io_log)
            for r in batch.to_records()
        ]
        assert streamed == records
        assert io_log[str(path)]["plan"] == plan["mode"]
        assert io_log[str(path)]["frames_decoded"] == io["frames_decoded"]

        batch = concat_batches(list(interval_records([path], PROFILE, window=window)))
        assert list(zip(*(batch.core_array(c).tolist() for c in CORE_COLUMNS))) == result.rows

        argv = [str(path), *(["--window", f"{window[0]!r}:{window[1]!r}"] if window else [])]
        assert main_profile(argv) == 0
        assert capsys.readouterr().out == (
            format_call_profile(
                call_profile(batch_from_records(records), PROFILE, markers=markers)
            ) + "\n"
        )

        if kind != "slog":
            return
        session = TraceSession(path)
        try:
            payload = session.query_payload(Query(), window=window)
            assert [tuple(row) for row in payload["rows"]] == result.rows
            assert payload["plan"] == plan
            assert payload["io"] == io  # the session's first read: cold too
            assert payload["file"] == path.name

            tables, stats_plan, stats_io = session.stats_tables(golden.PROGRAM, window=window)
            assert stats_plan == plan
            assert set(stats_io) == IO_KEYS
            want = generate_tables(
                [batch_from_records(records)], golden.PROGRAM, ticks_per_sec=tps, thread_table=thread_table
            )
            assert [(t.name, t.rows) for t in tables] == [(t.name, t.rows) for t in want]
            scans = 2
            assert session.index_frames_scanned == scans * plan["frames_selected"]
            assert session.index_frames_pruned == scans * plan["frames_pruned"]
            assert session.index_fallbacks == (0 if sidecar == "fresh" else scans)
        finally:
            session.close()


def test_frames_scanned_is_what_the_executor_visited(traces):
    """``frames_scanned`` is derived from the store's lookups; it must equal
    the executor's own count, limit short-circuit included — and the
    reference's, which stops after the same frame."""
    path = traces["slog", "none"]
    for query in (Query(), Query(limit=5), Query(types=frozenset({3}), limit=1), Query(limit=0)):
        with open_scan(path, query=query) as s:
            result = s.result()
            before = s.io()
            assert reference_rows(s.handle, s.query, s.plan) == result.rows
            reference_io = s.io()
        with open_trace(path) as handle:
            counted = ExecStats()
            rows = execute(handle, s.query, s.plan, stats=counted)
        assert result.rows == rows
        assert result.io["frames_scanned"] == counted.frames_scanned
        assert result.io["frames_scanned"] <= len(s.plan.frames)
        assert reference_io["frames_scanned"] - before["frames_scanned"] == counted.frames_scanned
        if query.limit == 0:
            assert rows == [] and counted.frames_scanned == 0


# ---------------------------------------------------------------------------
# One executor: there is nothing to select, and ``limit=0`` reads nothing.


@pytest.mark.parametrize(
    "prog, main, extra", [("ute-query", main_query, []), ("ute-stats", main_stats, ["--json"])]
)
def test_executor_flag_is_a_usage_error(traces, capsys, prog, main, extra):
    with pytest.raises(SystemExit) as excinfo:
        main([str(traces["slog", "fresh"]), *extra, "--executor", "record"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"{prog}: error: unrecognized arguments: --executor record"
    )


def test_executor_is_an_ignored_query_key(traces):
    """``Query.from_params`` ignores keys it does not know: the answer is
    the same request's without the key, byte for byte (both warm)."""
    url = f"query?window={golden.WINDOW}&type=3"
    with ServerThread(traces["slog", "fresh"]) as server:
        client = ServeClient(server.base_url, dataset="default", use_etags=False)
        client.request(f"{client.api_base}/{url}")  # warm the frame cache
        plain = client.request(f"{client.api_base}/{url}")
        for value in ("record", "vectorized"):
            keyed = client.request(f"{client.api_base}/{url}&executor={value}")
            assert keyed.status == 200
            assert keyed.text == plain.text
    assert "executor" not in plain.json()


@pytest.mark.parametrize("grouped", [[], ["--group-by", "node", "--agg", "count"]])
def test_limit_zero_is_no_rows_and_no_reads(traces, capsys, grouped):
    path = traces["slog", "fresh"]
    assert main_query([str(path), "--limit", "0", "--explain", *grouped]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1  # the header
    assert "; decoded 0/" in captured.err
    assert captured.err.splitlines()[0].endswith("read 0 bytes in 0 fetches")
    params = "&group_by=node&agg=count" if grouped else ""
    with ServerThread(path) as server:
        client = ServeClient(server.base_url, dataset="default", use_etags=False)
        payload = client.request(f"{client.api_base}/query?limit=0{params}").json()
    assert payload["rows"] == []
    assert payload["io"] == dict.fromkeys(IO_KEYS, 0)


# ---------------------------------------------------------------------------
# The text form of a query.

_NAMES = st.sampled_from(["start", "dura", "node", "thread", "type", "msgSizeSent"])
_THREADS = st.builds(
    ThreadSel, st.none() | st.integers(0, 99), st.integers(0, 9999)
)
_AGGREGATES = st.one_of(
    st.just("count"),
    st.builds("{}:{}".format, st.sampled_from(["count", "sum", "avg", "min", "max"]), _NAMES),
).map(Aggregate.parse)


@st.composite
def queries(draw) -> Query:
    grouped = draw(st.booleans())
    return Query(
        threads=tuple(draw(st.lists(_THREADS, max_size=3))),
        nodes=frozenset(draw(st.sets(st.integers(0, 300), max_size=4))),
        types=frozenset(draw(st.sets(st.integers(0, 300), max_size=4))),
        columns=tuple(draw(st.lists(_NAMES, min_size=1, max_size=4))),
        group_by=tuple(draw(st.lists(_NAMES, min_size=1, max_size=2))) if grouped else (),
        aggregates=tuple(draw(st.lists(_AGGREGATES, min_size=1, max_size=3))) if grouped else (),
        limit=draw(st.none() | st.integers(0, 10**6)),
    )


class TestQueryText:
    @given(queries())
    def test_round_trip(self, query):
        params = query.to_params()
        assert all(isinstance(v, str) and v for v in params.values())
        assert Query.from_params(params) == query

    def test_defaults_are_the_empty_mapping(self):
        assert Query().to_params() == {}
        assert Query.from_params({}) == Query()
        assert Query.from_params({"select": " , ", "limit": " ", "format": "tsv"}) == Query()

    @pytest.mark.parametrize(
        "params",
        [
            {"node": "1,x"},
            {"type": "0x"},
            {"thread": "a:b"},
            {"thread": "1:2:3"},
            {"agg": "median:dura", "group_by": "node"},
            {"agg": "sum", "group_by": "node"},
            {"limit": "-1"},
            {"limit": "ten"},
            {"group_by": "node"},
            {"agg": "count"},
        ],
    )
    def test_malformed_fields_are_format_errors(self, params):
        with pytest.raises(FormatError):
            Query.from_params(params)


class TestWindowText:
    def test_parse(self):
        assert parse_window("1.5:2") == (1.5, 2.0)
        assert parse_window(":2.5") == (None, 2.5)
        assert parse_window("1e-3:") == (0.001, None)
        assert parse_window("0:0") == (0.0, 0.0)

    @pytest.mark.parametrize(
        "text", ["", "1", "a:b", "2:1", "nan:1", "inf:", "0:inf", ":-inf", "1:nan"]
    )
    def test_refused(self, text):
        with pytest.raises(FormatError) as excinfo:
            parse_window(text)
        assert repr(text) in str(excinfo.value)

    def test_seconds_to_ticks_truncates_and_refuses_non_finite_products(self):
        assert seconds_to_ticks(1.99, 10.0) == 19
        assert seconds_to_ticks(-1.99, 10.0) == -19
        for seconds in (float("nan"), float("inf"), 1e308):
            with pytest.raises(FormatError):
                seconds_to_ticks(seconds, 1e9)


# ---------------------------------------------------------------------------
# Outside input: non-finite windows and instants.

BAD_WINDOWS = ("nan:1", "inf:", "0:inf", ":-inf")


@pytest.fixture(scope="module")
def served(traces):
    with ServerThread(traces["slog", "fresh"]) as server:
        yield ServeClient(server.base_url, dataset="default", use_etags=False)


class TestNonFiniteInput:
    @pytest.mark.parametrize("window", BAD_WINDOWS)
    @pytest.mark.parametrize(
        "route",
        [
            "query?",
            "stats?table=" + urllib.parse.quote(golden.PROGRAM) + "&",
            "view/thread?",
            "utilization?",
        ],
    )
    def test_window_is_a_400_naming_the_text(self, served, route, window):
        response = served.request(f"{served.api_base}/{route}window={window}")
        assert response.status == 400
        assert repr(window) in response.text

    @pytest.mark.parametrize("t", ["nan", "inf", "1e308"])
    def test_instant_is_a_400_naming_the_value(self, served, t):
        response = served.request(f"{served.api_base}/view/thread?t={t}")
        assert response.status == 400
        assert repr(float(t)) in response.json()["error"]

    def test_the_server_still_answers(self, served):
        assert served.request(f"{served.api_base}/query?window=0:0.001").status == 200

    @pytest.mark.parametrize("window", BAD_WINDOWS)
    @pytest.mark.parametrize(
        "prog, main, extra",
        [
            ("ute-query", main_query, []),
            ("ute-stats", main_stats, ["--json"]),
            ("ute-profile", main_profile, []),
            ("ute-dump", main_dump, []),
        ],
    )
    def test_cli_prints_one_line_and_exits_2(self, traces, capsys, prog, main, extra, window):
        code = main([str(traces["slog", "fresh"]), "--window", window, *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"{prog}: error: ")
        assert repr(window) in captured.err
        assert len(captured.err.splitlines()) == 1


# ---------------------------------------------------------------------------
# One --explain printer, local and remote.


def test_explain_is_the_same_text_locally_and_through_a_server(traces, capsys):
    path = traces["slog", "fresh"]
    query = ["--window", golden.WINDOW, "--type", "Marker", "--explain"]
    assert main_query([str(path), *query]) == 0
    local = capsys.readouterr()
    with ServerThread(path) as server:  # fresh: as cold as the local open
        assert main_query(["--server", server.base_url, *query]) == 0
    remote = capsys.readouterr()
    assert local.out == remote.out
    assert local.err == remote.err
    lines = local.err.splitlines()
    assert lines[0].startswith("plan: indexed (pruned via sidecar index); decoded ")
    assert lines[1].startswith("plan:   time-window -> ")
    assert lines[2].startswith("plan:   type-bitmaps -> ")


# ---------------------------------------------------------------------------
# Byte identity with the commit before the scan.


def test_every_golden_digest_is_reproduced(tmp_path):
    """The generator runs in a fresh interpreter (it chdirs, and the frame
    caches it measures must start cold)."""
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, golden.__file__, str(tmp_path / "digests.json"), str(tmp_path)],
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    digests = json.loads((tmp_path / "digests.json").read_text())
    expected = json.loads(golden.GOLDEN.read_text())
    changed = sorted(k for k in expected if digests.get(k) != expected[k])
    assert not changed, f"outputs differ from the golden (see {tmp_path}/out): {changed}"
    assert set(digests) == set(expected)
