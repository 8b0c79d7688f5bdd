"""Columnar batch execution and the aggregate/accounting bugfix sweep.

The contract under test: the columnar executor is an *optimization*, never
an answer change.  The executor and its record-at-a-time reference
(``engine.reference_rows`` over the same open scan) must render
byte-identical output for the same query — over generated traces, over the
damaged corpus in salvage mode, and at every integration surface (CLI,
stats).  Alongside it, the regressions this PR fixed stay
fixed: aggregates over empty groups emit null (not fabricated zeros),
bare ``count`` counts matched records unconditionally, and
``frames_decoded`` reports what was actually decoded.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main_query, main_stats
from repro.core.profilefmt import Profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.difftool.differ import DiffConfig, DiffReport, diff_fieldmaps
from repro.difftool.oracle import run_oracle
from repro.errors import FormatError
from repro.query import (
    Aggregate,
    FrameBatch,
    Query,
    QueryResult,
    ThreadSel,
    batch_from_records,
    open_scan,
    open_trace,
)
from repro.query.engine import ExecStats, execute, reference_rows, reference_scan
from repro.query.model import accumulate, finalize, new_accumulator
from repro.query.planner import plan_query

from tests.conftest import max_examples
from tests.test_analysis import timeline_input
from tests.test_query import PROFILE, SALVAGEABLE, _records, make_ivl, run_cli

MARKER = IntervalType.MARKER
RUNNING = IntervalType.RUNNING


#: Who answers a query below: the executor, or its reference.
ANSWERED_BY = ("columnar", "record")


def answer(path, query, answered_by, *, profile=PROFILE, **kwargs) -> QueryResult:
    """``run_query``, the rows computed by the executor or by
    ``reference_rows`` over the same open scan."""
    with open_scan(path, profile, query, **kwargs) as s:
        if answered_by == "columnar":
            return s.result()
        rows = reference_rows(s.handle, s.query, s.plan)
        return QueryResult(
            query.output_columns(), rows, s.plan, s.io(), s.handle.ticks_per_sec, str(path)
        )


@pytest.fixture()
def ivl(tmp_path):
    return make_ivl(tmp_path / "c.ute")


# ---------------------------------------------------------------------------
# Satellite 1: aggregates over empty groups emit null, not fabricated zeros.


class TestAggregateNulls:
    AGGS = tuple(
        Aggregate.parse(a)
        for a in ("count", "count:markerId", "sum:markerId",
                  "min:markerId", "max:markerId", "avg:markerId")
    )

    def test_finalize_empty_slots_are_none(self):
        state = new_accumulator(self.AGGS)
        # Five matched records, none carrying markerId.
        for _ in range(5):
            state["rows"] += 1
        values = finalize(state, self.AGGS)
        assert values == (5, 0, 0, None, None, None)

    def test_accumulate_skips_missing_field_but_counts_row(self):
        state = new_accumulator(self.AGGS)
        running = IntervalRecord(RUNNING, BeBits.COMPLETE, 0, 10, 0, 0, 0, {})
        marker = IntervalRecord(
            MARKER, BeBits.COMPLETE, 10, 5, 0, 0, 0, {"markerId": 7}
        )
        accumulate(state, self.AGGS, running)
        accumulate(state, self.AGGS, marker)
        assert finalize(state, self.AGGS) == (2, 1, 7, 7, 7, 7.0)

    @pytest.mark.parametrize("answered_by", ANSWERED_BY)
    def test_empty_group_renders_empty_tsv_cell_and_json_null(self, ivl, answered_by):
        query = Query(
            group_by=("type",),
            aggregates=(
                Aggregate.parse("count"),
                Aggregate.parse("min:markerId"),
                Aggregate.parse("avg:markerId"),
            ),
        )
        result = answer(ivl, query, answered_by)
        by_type = {row[0]: row for row in result.rows}
        # RUNNING records never carry markerId: null aggregates, full count.
        assert by_type[int(RUNNING)][1] == 192
        assert by_type[int(RUNNING)][2] is None
        assert by_type[int(RUNNING)][3] is None
        assert by_type[int(MARKER)][1:] == (48, 1, 1.0)
        running_line = [
            line for line in result.to_tsv().splitlines()
            if line.startswith(f"{int(RUNNING)}\t")
        ][0]
        assert running_line == f"{int(RUNNING)}\t192\t\t"
        payload = result.to_payload()
        assert [int(RUNNING), 192, None, None] in payload["rows"]

    def test_differ_treats_null_and_missing_as_equal(self):
        config = DiffConfig()
        report = DiffReport("a", "b", "interval", "interval", config)
        diff_fieldmaps(
            [{"start": 1, "markerId": None}], [{"start": 1}], config, report
        )
        assert report.identical

    def test_differ_still_flags_real_differences(self):
        config = DiffConfig()
        report = DiffReport("a", "b", "interval", "interval", config)
        diff_fieldmaps(
            [{"start": 1, "markerId": 3}], [{"start": 1}], config, report
        )
        assert not report.identical


# ---------------------------------------------------------------------------
# Satellite 3: bare count vs count:FIELD.


class TestBareCount:
    def test_parse_bare_count_has_no_source(self):
        agg = Aggregate.parse("count")
        assert agg.source is None
        assert agg.label == "count"

    def test_parse_count_field_keeps_source(self):
        agg = Aggregate.parse("count:markerId")
        assert agg.source == "markerId"

    @pytest.mark.parametrize("answered_by", ANSWERED_BY)
    def test_bare_vs_field_count_diverge_on_sparse_fields(self, ivl, answered_by):
        query = Query(
            group_by=("node",),
            aggregates=(Aggregate.parse("count"), Aggregate.parse("count:markerId")),
        )
        result = answer(ivl, query, answered_by)
        for _node, bare, non_null in result.rows:
            assert bare == 80  # every matched record of the node
            assert non_null == 16  # only the MARKER records carry markerId


# ---------------------------------------------------------------------------
# Satellite 2: frames_decoded reports actual decodes.


class TestHonestAccounting:
    @pytest.mark.parametrize("answered_by", ANSWERED_BY)
    def test_limit_short_circuit_counts_decoded_frames(self, ivl, answered_by):
        result = answer(ivl, Query(limit=3), answered_by)
        assert len(result.rows) == 3
        assert result.io["frames_decoded"] == 1
        assert result.io["frames_scanned"] == 1
        assert result.io["frames_decoded"] < len(result.plan.frames)

    @pytest.mark.parametrize("answered_by", ANSWERED_BY)
    def test_full_scan_decodes_every_planned_frame(self, ivl, answered_by):
        result = answer(ivl, Query(), answered_by)
        assert result.io["frames_decoded"] == len(result.plan.frames)
        assert result.io["frames_scanned"] == len(result.plan.frames)

    def test_cached_frames_are_not_recounted(self, tmp_path):
        # Few enough frames to fit the reader's LRU cache entirely.
        path = make_ivl(tmp_path / "small.ute", records=_records(60))
        with open_trace(path, PROFILE) as handle:
            plan = plan_query(Query(), handle.frames, None, index_reason="t")
            execute(handle, Query(), plan)
            before = handle.stats()
            stats = ExecStats()
            execute(handle, Query(), plan, stats=stats)
            after = handle.stats()
        # Second run decodes nothing new, but still scans every frame.
        assert after["misses"] == before["misses"]
        assert stats.frames_scanned == len(plan.frames)

    def test_reference_decodes_are_never_cached(self, tmp_path):
        path = make_ivl(tmp_path / "small.ute", records=_records(60))
        for run in (reference_rows, lambda *a: list(reference_scan(*a))):
            with open_scan(path, PROFILE) as s:
                s.rows()  # every frame now sits in the LRU
                warm = s.io()
                run(s.handle, s.query, s.plan)
                after = s.io()
            assert after["cache_hits"] == warm["cache_hits"]
            assert after["frames_decoded"] - warm["frames_decoded"] == len(s.plan.frames)


# ---------------------------------------------------------------------------
# Batch decode parity with the record decoder.


def _key_orders(records):
    return [list(r.extra) for r in records]


class TestBatchDecode:
    """The store's one decode (columnar batch, records materialised from
    it) against the uncached per-record reference decoder."""

    def test_batch_matches_read_frame(self, ivl):
        with open_trace(ivl, PROFILE) as handle:
            for frame in handle.frames:
                records = handle.reference_frame(frame.ordinal)
                batch = handle.read_frame_batch(frame.ordinal)
                assert batch.n == len(records)
                assert batch.to_records() == records
                assert _key_orders(batch.to_records()) == _key_orders(records)
                assert handle.read_frame(frame.ordinal) == records

    @pytest.mark.parametrize("name", ["good.ute", "good.slog", "interop/golden.ute"])
    def test_batch_matches_read_frame_corpus(self, corpus, name):
        with open_trace(corpus.path(name), PROFILE) as handle:
            for frame in handle.frames:
                records = handle.reference_frame(frame.ordinal)
                for got in (
                    handle.read_frame_batch(frame.ordinal).to_records(),
                    handle.read_frame(frame.ordinal),
                ):
                    assert got == records
                    assert _key_orders(got) == _key_orders(records)

    def test_batch_from_records_roundtrip(self):
        records = _records(24)
        batch = batch_from_records(records)
        assert batch.n == 24
        assert batch.to_records() == records
        assert batch.column_values("markerId")[0] == 1
        assert batch.column_values("markerId")[1] is None

    def test_core_array_rejects_extras(self):
        batch = batch_from_records(_records(4))
        with pytest.raises(FormatError, match="not a core column"):
            batch.core_array("markerId")

    def test_rectype_column_packs_type_word(self):
        records = _records(8)
        batch = batch_from_records(records)
        assert batch.column_values("rectype") == [
            (r.itype << 2) | int(r.bebits) for r in records
        ]

    @pytest.mark.parametrize("name,profile_kind", SALVAGEABLE)
    def test_salvage_batches_mirror_salvage_records(self, corpus, name, profile_kind):
        """Salvage-mode batches and records against the resynchronizing
        decoder run directly over the same bytes (fresh report)."""
        from repro.core.salvage import SalvageReport, salvage_frame_records
        from tests.conftest import DATA_DIR

        profile = (
            Profile.read(DATA_DIR / "boundary.profile")
            if profile_kind == "boundary"
            else PROFILE
        )
        with open_trace(corpus.path(name), profile, errors="salvage") as handle:
            for frame in handle.frames:
                want = salvage_frame_records(
                    handle.source.fetch(frame.offset, frame.size),
                    profile,
                    handle.field_mask,
                    base_offset=frame.offset,
                    report=SalvageReport(),
                    expected_records=frame.n_records,
                    expected_size=frame.size,
                    time_span=(frame.start_time, frame.end_time),
                )
                batch = handle.read_frame_batch(frame.ordinal)
                assert batch.to_records() == want
                assert handle.read_frame(frame.ordinal) == want
                assert batch.column_values("start") == [r.start for r in want]
                assert batch.column_values("end") == [r.end for r in want]


# ---------------------------------------------------------------------------
# Executor parity: property over generated traces, plus the oracle.


QUERY_AGGS = st.lists(
    st.sampled_from(
        ["count", "count:markerId", "sum:dura", "min:start", "max:end",
         "avg:dura", "min:markerId", "max:markerId", "avg:markerId"]
    ),
    min_size=1,
    max_size=3,
    unique=True,
)


class TestExecutorParity:
    @given(
        frac0=st.floats(min_value=0.0, max_value=1.0),
        span=st.floats(min_value=0.0, max_value=1.0),
        node=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        thread=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
        itype=st.one_of(st.none(), st.sampled_from([int(RUNNING), int(MARKER)])),
        group=st.sampled_from([(), ("node",), ("node", "type"), ("markerId",)]),
        aggs=QUERY_AGGS,
        limit=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),
    )
    @settings(max_examples=max_examples(60), deadline=None)
    def test_columnar_equals_record(
        self, parity_trace, frac0, span, node, thread, itype, group, aggs, limit
    ):
        """Property: for any supported query shape, the executor and its
        reference render byte-identical TSV — same rows, same group keys,
        same aggregate values, same null cells."""
        path, t_hi_sec = parity_trace
        t0 = frac0 * t_hi_sec
        query = Query(
            threads=(ThreadSel(None, thread),) if thread is not None else (),
            nodes=frozenset({node}) if node is not None else frozenset(),
            types=frozenset({itype}) if itype is not None else frozenset(),
            group_by=group,
            aggregates=tuple(Aggregate.parse(a) for a in aggs) if group else (),
            limit=limit,
        )
        window = (t0, t0 + span * (t_hi_sec - t0))
        record = answer(path, query, "record", window=window)
        columnar = answer(path, query, "columnar", window=window)
        assert record.rows == columnar.rows
        assert record.to_tsv() == columnar.to_tsv()

    @pytest.mark.parametrize("name,profile_kind", SALVAGEABLE)
    def test_salvage_executor_parity(self, corpus, name, profile_kind):
        from tests.conftest import DATA_DIR

        profile = (
            Profile.read(DATA_DIR / "boundary.profile")
            if profile_kind == "boundary"
            else PROFILE
        )
        query = Query(
            group_by=("node", "type"),
            aggregates=(Aggregate.parse("count"), Aggregate.parse("sum:dura")),
        )
        path = corpus.path(name)
        record = answer(path, query, "record", profile=profile, errors="salvage")
        columnar = answer(path, query, "columnar", profile=profile, errors="salvage")
        assert record.to_tsv() == columnar.to_tsv()

    def test_oracle_runs_columnar_check_with_zero_findings(self, ivl):
        report = run_oracle(ivl, PROFILE, serve=False)
        assert "columnar_vs_record" in report.checks
        assert report.ok, report.summary()

    def test_oracle_check_bites_when_the_columnar_path_breaks(self, ivl, monkeypatch):
        """Nothing but the oracle reaches the reference now: a predicate
        mask that loses its last match must be a finding."""
        real_match = FrameBatch.match

        def drop_last_match(batch, query):
            mask = real_match(batch, query)
            hits = np.flatnonzero(mask)
            mask[hits[-1:]] = False
            return mask

        monkeypatch.setattr(FrameBatch, "match", drop_last_match)
        report = run_oracle(ivl, PROFILE, serve=False)
        assert "columnar_vs_record" in {f.check for f in report.findings}


@pytest.fixture(scope="module")
def parity_trace(tmp_path_factory):
    """One shared trace for the parity property (module-scoped: hypothesis
    re-runs the test body many times)."""
    path = make_ivl(tmp_path_factory.mktemp("parity") / "p.ute", _records(400))
    with open_trace(path, PROFILE) as handle:
        t_hi = max((f.end_time for f in handle.frames), default=1)
        tps = handle.ticks_per_sec
    return path, t_hi / tps


# ---------------------------------------------------------------------------
# Integration surfaces: CLI and stats.


class TestIntegration:
    def test_cli_output_is_the_reference_rows_as_tsv(self, ivl):
        argv = [str(ivl), "--group-by", "node,type", "--agg", "count",
                "--agg", "min:markerId"]
        code, out, _ = run_cli(main_query, argv)
        assert code == 0
        query = Query(
            group_by=("node", "type"),
            aggregates=(Aggregate.parse("count"), Aggregate.parse("min:markerId")),
        )
        assert out == answer(ivl, query, "record").to_tsv()

    def test_cli_explain_reports_decodes(self, ivl):
        code, _, err = run_cli(
            main_query, [str(ivl), "--limit", "2", "--explain"]
        )
        assert code == 0
        assert "plan: full-scan" in err
        assert "executor" not in err
        assert "decoded 1/" in err  # limit short-circuit: one frame decoded

    def test_stats_executor_parity_and_honest_io(self, ivl):
        """``ute-stats`` tables equal the predefined tables over the
        reference scan's records."""
        from repro.utils.stats import predefined_tables

        code, out, _ = run_cli(main_stats, [str(ivl), "--json"])
        assert code == 0
        doc = json.loads(out)
        with open_scan(ivl, PROFILE) as s:
            records = [
                r for r in reference_scan(s.handle, s.query, s.plan)
                if r.itype != IntervalType.CLOCKPAIR
            ]
            want = predefined_tables(
                [batch_from_records(records)],
                total_seconds=max(r.end for r in records) / s.handle.ticks_per_sec,
                ticks_per_sec=s.handle.ticks_per_sec,
                thread_table=s.handle.thread_table,
            )
        assert doc["records"] == len(records)
        assert {name: t["rows"] for name, t in doc["tables"].items()} == {
            t.name: [list(k) + list(t.rows[k]) for k in sorted(t.rows)] for t in want
        }
        stats = doc["io"][str(ivl)]
        assert stats["frames_decoded"] == stats["frames_total"]


# ---------------------------------------------------------------------------
# The analysis surface: time-resolved metrics over the query layer's batches.


class TestAnalysisTable:
    def test_metrics_bounds_and_shapes(self, ivl):
        from repro.analysis import (
            communication_efficiency_timeline,
            load_balance_timeline,
        )

        batch = timeline_input(ivl)
        with open_trace(ivl, PROFILE) as handle:
            ticks_per_sec = handle.ticks_per_sec
        lb = load_balance_timeline(batch, bins=8)
        ce = communication_efficiency_timeline(batch, bins=8)
        for metric in (lb, ce):
            assert metric.bins == 8
            assert len(metric.edges) == 9
            assert all(0.0 <= v <= 1.0 for v in metric.values.tolist())
            assert len(metric.centers_seconds(ticks_per_sec)) == 8
            assert json.dumps(metric.as_dict())
        # The generated workload is perfectly balanced and has no MPI.
        assert lb.terms["busy"].shape == (8, 6)
        assert ce.values.tolist() == [1.0] * 8

    def test_imbalanced_workload_scores_below_one(self, tmp_path):
        from repro.analysis import load_balance_timeline

        # Thread (0, 0) runs the whole span; thread (0, 1) runs 1/10th.
        records = [  # writer wants ascending end times
            IntervalRecord(RUNNING, BeBits.COMPLETE, 0, 100_000, 0, 0, 1, {}),
            IntervalRecord(RUNNING, BeBits.COMPLETE, 0, 1_000_000, 0, 0, 0, {}),
        ]
        path = make_ivl(tmp_path / "imb.ute", records)
        lb = load_balance_timeline(timeline_input(path), bins=1)
        assert lb.values[0] == pytest.approx((1_000_000 + 100_000) / 2 / 1_000_000)
