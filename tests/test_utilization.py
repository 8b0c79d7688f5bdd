"""The sparse utilization hierarchy (``repro.query.utilization``).

Covers the grid helpers, builder exactness (busy time at the finest
level equals the summed record durations, every coarser level folds
exactly from the one below), order independence, the lazily folded
levels, the run codec and the binary round-trip, windowed queries, the
sidecar integration, the serving endpoint, and the ``ute-query
--utilization`` command.
"""

import contextlib
import io
import json
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.query import (
    TraceIndex, build_index, index_path_for, open_trace, utilization, write_index,
)
from repro.query.columnar import batch_from_records, pack_keys
from repro.query.utilization import (
    UtilizationBuilder,
    UtilizationIndex,
    cpu_key,
    dominant_state,
    levels_for_span,
    shift_for_span,
    split_thread_key,
    thread_key,
    utilization_json,
    utilization_payload,
)
from repro.utils.slog import SlogWriter
from tests.conftest import max_examples

PROFILE = standard_profile()
MARKER = IntervalType.MARKER


def rec(start, dura, *, node=0, cpu=0, thread=0, itype=IntervalType.RUNNING,
        extra=None):
    return IntervalRecord(
        itype, BeBits.COMPLETE, start, dura, node, cpu, thread, extra or {}
    )


def build(records, **kwargs):
    builder = UtilizationBuilder(**kwargs)
    for r in records:
        builder.add(r)
    return builder.build()


def level0(util, kind="thread"):
    """``{lane: {bin: (count, {state: busy})}}`` at the finest level."""
    return util.level_cells(kind, 0)


def brute_force_levels(records, base_shift, n_levels, key_of):
    """Every level's cells by the definition: per record, per bin, clipped
    overlap at the finest level; each parent the sum of its two children."""
    cells: dict = {}
    for r in records:
        if r.duration <= 0 or r.itype == IntervalType.CLOCKPAIR:
            continue
        lane = cells.setdefault(key_of(r), {})
        first, last = r.start >> base_shift, (r.end - 1) >> base_shift
        for idx in range(first, last + 1):
            lo = idx << base_shift
            overlap = min(r.end, lo + (1 << base_shift)) - max(r.start, lo)
            cell = lane.setdefault(idx, [0, {}])
            cell[1][int(r.itype)] = cell[1].get(int(r.itype), 0) + overlap
        lane[first][0] += 1
    levels = [cells]
    for _ in range(1, n_levels):
        folded: dict = {}
        for key, lane in levels[-1].items():
            up = folded.setdefault(key, {})
            for idx, (count, states) in lane.items():
                parent = up.setdefault(idx >> 1, [0, {}])
                parent[0] += count
                for state, busy in states.items():
                    parent[1][state] = parent[1].get(state, 0) + busy
        levels.append(folded)
    return [
        {key: {idx: (c[0], c[1]) for idx, c in lane.items()} for key, lane in lv.items()}
        for lv in levels
    ]


def sidecar_bytes(util):
    """The aggregates as a whole (source-less) sidecar's bytes."""
    return TraceIndex(0, b"\0" * 32, util.t_min, util.t_max, [], {}, util).encode()


def make_slog(path, records, *, threads=2, frame_bytes=512):
    t1 = max((r.end for r in records), default=1)
    writer = SlogWriter(
        path, PROFILE,
        ThreadTable(
            [ThreadEntry(t, 100 + t, 5000 + t, 0, t, 0, f"t{t}")
             for t in range(threads)]
        ),
        field_mask=MASK_ALL_MERGED, time_range=(0, max(t1, 1)),
        frame_bytes=frame_bytes, node_cpus={0: 2},
    )
    for r in sorted(records, key=lambda r: r.end):
        writer.write(r)
    return writer.close()


def sample_records(n=120, seed=3):
    rng = random.Random(seed)
    records, t = [], {}
    for i in range(n):
        thread = i % 3
        start = t.get(thread, rng.randrange(500)) + rng.randrange(50, 400)
        dura = rng.randrange(40, 900)
        t[thread] = start + dura
        itype = MARKER if i % 7 == 0 else IntervalType.RUNNING
        extra = {"markerId": 1} if itype == MARKER else {}
        records.append(
            rec(start, dura, cpu=thread % 2, thread=thread, itype=itype,
                extra=extra)
        )
    return records


class TestGridHelpers:
    def test_shift_for_span_fits_and_is_minimal(self):
        k = shift_for_span(1000, 90_000, 64)
        assert (90_000 >> k) - (1000 >> k) + 1 <= 64
        if k:
            assert (90_000 >> (k - 1)) - (1000 >> (k - 1)) + 1 > 64

    def test_shift_monotone_in_span(self):
        assert shift_for_span(0, 500_000, 64) >= shift_for_span(0, 50_000, 64)

    def test_levels_reach_a_single_bin(self):
        base = shift_for_span(300, 70_000, 32)
        n = levels_for_span(300, 70_000, base)
        top = base + n - 1
        assert (70_000 >> top) == (300 >> top)

    def test_lane_keys_round_trip(self):
        assert split_thread_key(thread_key(7, 42)) == (7, 42)
        assert split_thread_key(cpu_key(3, 1)) == (3, 1)

    def test_dominant_state_breaks_ties_low(self):
        assert dominant_state({5: 10, 2: 10, 9: 3}) == 2


class TestBuilderExactness:
    def test_finest_level_busy_equals_summed_durations(self):
        records = sample_records()
        util = build(records)
        for r in records:
            assert r.duration > 0
        want = {}
        for r in records:
            key = thread_key(r.node, r.thread)
            want[key] = want.get(key, 0) + r.duration
        for key, cells in level0(util).items():
            got = sum(sum(states.values()) for _, states in cells.values())
            assert got == want[key]

    def test_counts_attribute_each_record_once(self):
        records = sample_records()
        util = build(records)
        total = sum(
            count for cells in level0(util).values() for count, _ in cells.values()
        )
        assert total == len(records)

    def test_every_level_folds_exactly_from_the_one_below(self):
        records = sample_records()
        util = build(records)
        assert util.n_levels > 3
        for kind, key_of in (
            ("thread", lambda r: thread_key(r.node, r.thread)),
            ("cpu", lambda r: cpu_key(r.node, r.cpu)),
        ):
            want = brute_force_levels(records, util.base_shift, util.n_levels, key_of)
            for li in range(util.n_levels):
                assert util.level_cells(kind, li) == want[li]

    def test_zero_duration_and_clockpairs_skip_busy_lanes(self):
        records = [
            rec(100, 500),
            rec(700, 0),
            rec(800, 300, itype=IntervalType.CLOCKPAIR),
        ]
        util = build(records)
        busy = sum(
            sum(states.values()) for cells in level0(util).values()
            for _, states in cells.values()
        )
        assert busy == 500

    def test_order_independence(self):
        records = sample_records()
        shuffled = records[::-1]
        a, b = build(records), build(shuffled)
        assert a.encode() == b.encode()


record_rows = st.lists(
    st.tuples(
        st.integers(0, 3_000_000),
        st.sampled_from([0, 1, 7, 300, 5_000, 120_000, 900_000]),
        st.sampled_from([0, 1, 0x7FFFFFFF]), st.integers(0, 1), st.integers(0, 3),
        st.sampled_from(
            [int(IntervalType.RUNNING), int(MARKER), int(IntervalType.CLOCKPAIR), 7]
        ),
    ),
    max_size=60,
)
grids = st.sampled_from([4096, 64])  # base_bins


def from_rows(rows):
    return [
        rec(start, dura, node=node, cpu=cpu, thread=thread, itype=itype)
        for start, dura, node, cpu, thread, itype in rows
    ]


class TestChunkingAndOrder:
    """One accumulation path: however the same records arrive — any order,
    any chunking, through ``add`` or ``add_batch``, with snapshots in
    between — the sidecar bytes are the same and the cells are the
    brute-force ones."""

    @settings(max_examples=max_examples(60), deadline=None)
    @given(record_rows, grids, st.randoms(use_true_random=False))
    def test_any_chunking_and_order_is_byte_identical(self, rows, grid, rng):
        from unittest import mock

        from repro.query import utilization

        records = from_rows(rows)
        kwargs = {"base_bins": grid}
        reference = UtilizationBuilder(**kwargs)
        reference.add_batch(batch_from_records(records))
        want = sidecar_bytes(reference.build())

        shuffled = list(records)
        rng.shuffle(shuffled)
        # Tiny thresholds so buffer flushes and compactions happen mid-stream.
        with mock.patch.object(utilization, "_COMPACT_ROWS", 16), \
                mock.patch.object(utilization, "_ADD_BUFFER", 5):
            builder = UtilizationBuilder(**kwargs)
            while shuffled:
                n = rng.randint(1, 9)
                chunk, shuffled = shuffled[:n], shuffled[n:]
                if rng.random() < 0.5:
                    for r in chunk:
                        builder.add(r)
                else:
                    builder.add_batch(batch_from_records(chunk))
                if rng.random() < 0.25:
                    builder.build()
            util = builder.build()
        assert sidecar_bytes(util) == want

        for kind, key_of in (
            ("thread", lambda r: thread_key(r.node, r.thread)),
            ("cpu", lambda r: cpu_key(r.node, r.cpu)),
        ):
            exact = brute_force_levels(records, util.base_shift, util.n_levels, key_of)
            for li in range(util.n_levels):
                assert util.level_cells(kind, li) == exact[li]

    @settings(max_examples=max_examples(60), deadline=None)
    @given(
        record_rows, grids,
        st.sampled_from(
            [(0, 1), (0x7FFFFFFE, 0x7FFFFFFF), (0xFFFFFFFE, 0xFFFFFFFF), (0, 0x7FFFFFFF)]
        ),
        st.randoms(use_true_random=False),
    )
    def test_every_batch_merges_into_the_aggregated_head(self, rows, grid, nodes, rng):
        """A snapshot after every batch with the compaction threshold at one
        row: each one merges the aggregated head with the batch's new rows,
        as a live publish does, and the result is still the one-shot build
        and the brute-force cells — for lanes whose keys are near 2**63 and
        2**64 too.  Lanes on neighbouring nodes pack into one key (the
        lexsort is never called); nodes 0 and 2**31 - 1 together overflow it."""
        from unittest import mock

        records = [
            rec(start, dura, node=nodes[node & 1], cpu=cpu, thread=thread, itype=itype)
            for start, dura, node, cpu, thread, itype in rows
        ]
        kwargs = {"base_bins": grid}
        want = sidecar_bytes(build(records, **kwargs))
        with mock.patch.object(utilization, "_COMPACT_ROWS", 1), \
                mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
            builder = UtilizationBuilder(**kwargs)
            rest = list(records)
            while rest:
                n = rng.randint(1, 9)
                builder.add_batch(batch_from_records(rest[:n]))
                rest = rest[n:]
                builder.build()
                assert builder._loose == 0 and not any(builder._rows)
            util = builder.build()
        assert sidecar_bytes(util) == want
        if nodes[1] - nodes[0] == 1:
            assert lexsort.call_count == 0

        for kind, key_of in (
            ("thread", lambda r: thread_key(r.node, r.thread)),
            ("cpu", lambda r: cpu_key(r.node, r.cpu)),
        ):
            exact = brute_force_levels(records, util.base_shift, util.n_levels, key_of)
            for li in range(util.n_levels):
                assert util.level_cells(kind, li) == exact[li]


#: Records a SLOG file can hold (the thread table has threads 0..3 on node 0).
file_rows = st.lists(
    st.tuples(
        st.integers(0, 3_000_000),
        st.sampled_from([0, 1, 7, 300, 5_000, 120_000, 900_000]),
        st.integers(0, 1), st.integers(0, 3),
        st.sampled_from([int(IntervalType.RUNNING), int(IntervalType.CLOCKPAIR), 7]),
    ),
    min_size=1, max_size=60,
)


def unseeded_index(handle):
    """:func:`build_index`'s bytes by the live route: every frame through
    ``add_frame`` of a fresh accumulator, whose builder starts at shift 0."""
    from repro.query.indexfile import IndexAccumulator, hash_file

    acc = IndexAccumulator()
    for f in handle.frames:
        acc.add_frame(
            handle.read_frame_batch(f.ordinal), f.offset, f.size, f.n_records,
            f.start_time, f.end_time,
        )
    return acc.index(handle.path.stat().st_size, hash_file(handle.path)).encode()


class TestSeededGrid:
    """A whole-file build starts on the grid of the frame directory's span.
    No seed at or below the final shift changes a byte, and a directory
    whose span its records do not cover sends the build back to shift 0."""

    # No example count of their own: the nightly ci-long profile deepens them.
    @settings(deadline=None)
    @given(record_rows, grids, st.randoms(use_true_random=False))
    def test_any_seed_up_to_the_final_shift_is_byte_identical(self, rows, grid, rng):
        records = from_rows(rows)
        rng.shuffle(records)
        frames, rest = [], list(records)
        while rest:
            n = rng.choice([1, 1, 2, 5, 60])  # down to one record per frame
            frames.append(batch_from_records(rest[:n]))
            rest = rest[n:]
        reference = UtilizationBuilder(base_bins=grid)
        for batch in frames:
            reference.add_batch(batch)
        want = reference.build()
        seeds = {0, want.base_shift, rng.randint(0, want.base_shift)}
        if records:
            # What a whole-file scan seeds from: the span of every row.
            t0 = min(r.start for r in records)
            t1 = max(r.end for r in records)
            seeds.add(shift_for_span(t0, t1, grid))
        for seed in seeds:
            builder = UtilizationBuilder(base_bins=grid, shift=seed)
            for batch in frames:
                builder.add_batch(batch)
            assert builder.build().encode() == want.encode(), seed

    @settings(deadline=None)
    @given(file_rows, st.sampled_from([256, 300, 512, 4096]))
    def test_build_index_equals_unseeded_frame_by_frame_accounting(self, rows, frame_bytes):
        import tempfile

        records = [
            rec(start, dura, cpu=cpu, thread=thread, itype=itype)
            for start, dura, cpu, thread, itype in rows
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = make_slog(Path(tmp) / "run.slog", records, threads=4, frame_bytes=frame_bytes)
            with open_trace(path, PROFILE) as handle:
                assert build_index(handle).encode() == unseeded_index(handle)

    def wide_directory(self, tmp_path):
        """A trace whose first frame claims to start at tick 0 while its
        records start at 10**9: the directory's span asks for a far coarser
        grid than the records do."""
        import dataclasses

        records = [rec(10**9 + i * 100, 95, thread=i % 2) for i in range(80)]
        path = make_slog(tmp_path / "run.slog", records, frame_bytes=512)
        handle = open_trace(path, PROFILE)
        want = unseeded_index(handle)
        handle.frames[0] = dataclasses.replace(handle.frames[0], start_time=0)
        return handle, want

    def counting(self, handle):
        reads = []
        read = handle.read_frame_batch
        handle.read_frame_batch = lambda ordinal: reads.append(ordinal) or read(ordinal)
        return reads

    def test_a_directory_wider_than_its_records_builds_unseeded(self, tmp_path):
        handle, want = self.wide_directory(tmp_path)
        with handle:
            claimed = (handle.frames[0].start_time, handle.frames[-1].end_time)
            seed = shift_for_span(*claimed, utilization.DEFAULT_BASE_BINS)
            assert seed > TraceIndex.decode(want).utilization.base_shift
            reads = self.counting(handle)
            index = build_index(handle)
            assert len(reads) == 2 * len(handle.frames)
        # Only the frame table keeps the directory's claim; the utilization
        # section is what the records give from shift 0.
        assert index.utilization.encode() == TraceIndex.decode(want).utilization.encode()
        assert index.t_min == 0

    def test_the_pass_runs_once_when_the_spans_agree(self, tmp_path):
        path = make_slog(tmp_path / "run.slog", sample_records(), threads=3, frame_bytes=512)
        with open_trace(path, PROFILE) as handle:
            reads = self.counting(handle)
            index = build_index(handle)
            assert sorted(reads) == [f.ordinal for f in handle.frames]
            assert len(handle.frames) > 1
            assert index.encode() == unseeded_index(handle)


def reference_aggregate(rows):
    """``_aggregate`` by hand: a lexsort, then one Python pass summing the
    rows of every (lane, bin, state)."""
    lane, bins, state, count, busy = rows
    order = np.lexsort((state, bins, lane))
    out: list[list[int]] = []
    for row in zip(*(column[order].tolist() for column in rows)):
        if out and out[-1][:3] == list(row[:3]):
            out[-1][3] += row[3]
            out[-1][4] += row[4]
        else:
            out.append(list(row))
    return [list(column) for column in zip(*out)]


def random_rows(rng, n, lanes, bin_span, state_span):
    return (
        rng.choice(np.array(lanes, np.uint64), n),
        rng.integers(0, bin_span, n, dtype=np.int64),
        rng.integers(0, state_span, n, dtype=np.int64),
        rng.integers(0, 3, n, dtype=np.int64),
        rng.integers(1, 1 << 20, n, dtype=np.int64),
    )


class TestPackedKey:
    """Rows group on one packed int64 key; ``lexsort`` is the fallback only
    for a key that would not fit in 62 bits."""

    def test_packed_keys_order_like_the_columns(self):
        rng = np.random.default_rng(5)
        top = [2**64 - 1, 2**64 - 2**32, 2**64 - 2**33 + 5]
        lane = rng.choice(np.array(top, np.uint64), 500)
        bins = rng.integers(-(2**20), 2**20, 500)
        state = rng.integers(0, 40, 500)
        packed = pack_keys((lane, bins, state))
        assert packed is not None and packed.dtype == np.int64
        order = np.argsort(packed, kind="stable")
        assert np.array_equal(order, np.lexsort((state, bins, lane)))
        first = np.flatnonzero(np.diff(packed[order])) + 1
        tuples = list(zip(lane[order].tolist(), bins[order].tolist(), state[order].tolist()))
        assert len(set(tuples)) == len(first) + 1
        assert pack_keys((lane, bins, rng.integers(0, 2**22, 500))) is None

    def test_an_overflowing_key_falls_back_to_lexsort(self):
        from unittest import mock

        # States spanning 2**29 and bins spanning 2**40: 69 bits of key.
        rng = np.random.default_rng(11)
        rows = random_rows(rng, 400, [thread_key(0, 1), thread_key(3, 2)], 1 << 40, 1 << 29)
        rows = tuple(np.concatenate([c, c[:100]]) for c in rows)  # duplicates to sum
        assert pack_keys(rows[:3]) is None
        with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
            got = utilization._aggregate(rows)
        assert lexsort.call_count == 1
        assert [c.tolist() for c in got] == reference_aggregate(rows)

    def test_a_packed_key_aggregates_like_the_reference(self):
        from unittest import mock

        rng = np.random.default_rng(12)
        lanes = [thread_key(node, t) for node in (0, 1, 5) for t in range(4)]
        rows = random_rows(rng, 3000, lanes, 300, 9)
        with mock.patch("numpy.lexsort", wraps=np.lexsort) as lexsort:
            got = utilization._aggregate(rows)
        assert lexsort.call_count == 0
        assert [c.tolist() for c in got] == reference_aggregate(rows)


merge_lanes = {
    # Neighbouring lanes: one packed key.
    "near": ([thread_key(0, t) for t in range(5)], 60, 4),
    # Lanes near 2**63 and 2**64 with bins spanning 2**40: the lexsort.
    "wide": ([thread_key(0, 1), thread_key(2**31 - 1, 2), 2**64 - 1], 1 << 40, 1 << 29),
}


class TestMerge:
    """``_merge`` of an aggregated head and loose chunks is the level of one
    ``_aggregate`` of both sides' rows, whatever the loose rows reach."""

    @settings(max_examples=max_examples(150), deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 300),
        st.lists(st.integers(0, 120), min_size=1, max_size=4),
        st.sampled_from(sorted(merge_lanes)),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    )
    def test_merge_is_one_aggregate_of_held_and_loose(self, seed, n_held, sizes, lanes, past):
        """``past`` is the share of the bin range the loose rows start in:
        0 is any order, 1 only past every held bin (end-ordered frames)."""
        lanes, bin_span, state_span = merge_lanes[lanes]
        rng = np.random.default_rng(seed)
        held = random_rows(rng, n_held, lanes, bin_span, state_span)
        loose = []
        for n in sizes:
            rows = random_rows(rng, n, lanes, bin_span, state_span)
            lo = int(bin_span * past)
            loose.append((rows[0], lo + rows[1] % (bin_span - lo + 2), *rows[2:]))
        keys, level = utilization._level_of(utilization._aggregate(held))
        want_keys, want = utilization._level_of(
            utilization._aggregate(tuple(map(np.concatenate, zip(held, *loose))))
        )
        got_keys, got = utilization._merge(keys, level, loose)
        assert got_keys.dtype == want_keys.dtype and got_keys.tolist() == want_keys.tolist()
        assert same_level(got, want)

    def test_only_the_reachable_tail_is_sorted(self):
        from unittest import mock

        rng = np.random.default_rng(7)
        lanes = [thread_key(0, t) for t in range(8)]
        held = random_rows(rng, 5000, lanes, 1000, 3)
        keys, level = utilization._level_of(utilization._aggregate(held))
        new = random_rows(rng, 300, lanes, 1000, 3)
        new = (new[0], 990 + new[1] % 20, *new[2:])
        with mock.patch("numpy.argsort", wraps=np.argsort) as argsort:
            utilization._merge(keys, level, [new])
        (call,) = argsort.call_args_list
        tail = int((utilization._rows_of(keys, level)[1] >= 990).sum())
        assert len(call.args[0]) == tail + 300 < len(level.states) // 5


class TestBuildMemo:
    def test_a_build_with_no_record_since_is_the_last_one(self):
        builder = UtilizationBuilder()
        builder.add_batch(batch_from_records(sample_records()))
        first = builder.build()
        assert builder.build() is first
        # No busy row, but each moves the span: a new build.
        for record in (rec(10**6, 0), rec(2 * 10**6, 50, itype=IntervalType.CLOCKPAIR)):
            builder.add(record)
            util = builder.build()
            assert util is not first and util.t_max == record.end
            first = util
        builder.add_batch(batch_from_records([rec(3 * 10**6, 0)]))
        assert builder.build().t_max == 3 * 10**6
        fresh = build(
            sample_records()
            + [rec(10**6, 0), rec(2 * 10**6, 50, itype=IntervalType.CLOCKPAIR), rec(3 * 10**6, 0)]
        )
        assert sidecar_bytes(builder.build()) == sidecar_bytes(fresh)


def chained_levels(table, n_levels):
    """Every level the way the version-3 builder stored them: each one the
    sibling fold (``bin >> 1``) of the level below."""
    rows = utilization._rows_of(table.keys, table.levels[0])
    levels = [table.levels[0]]
    for _ in range(1, n_levels):
        lane, bins, state, count, busy = rows
        rows = utilization._aggregate((lane, bins >> 1, state, count, busy))
        levels.append(utilization._level_of(rows)[1])
    return levels


def same_level(a, b):
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))


class TestLazyLevels:
    """``levels[li]`` is folded on first use from whatever finer level is
    already held; whichever levels were asked for before, and by how many
    threads at once, it is the chained sibling fold column for column."""

    @settings(max_examples=max_examples(40), deadline=None)
    @given(record_rows, grids, st.randoms(use_true_random=False))
    def test_any_request_order_equals_the_chained_fold(self, rows, grid, rng):
        records = from_rows(rows)
        kwargs = {"base_bins": grid}
        reference = build(records, **kwargs)
        n_levels = reference.n_levels
        lazy, raced = (build(records, **kwargs) for _ in range(2))
        orders = [rng.sample(range(n_levels), n_levels) for _ in range(9)]
        for kind in ("thread", "cpu"):
            want = chained_levels(reference._table(kind), n_levels)
            levels = lazy._table(kind).levels
            assert len(levels) == n_levels
            for li in orders[0]:
                assert same_level(levels[li], want[li])
                assert levels[li] is levels[li]  # folded once, then held

            levels = raced._table(kind).levels
            got: list = []
            barrier = threading.Barrier(8)

            def ask(order):
                barrier.wait(timeout=30)
                got.append([(li, levels[li]) for li in order])

            threads = [threading.Thread(target=ask, args=(o,)) for o in orders[1:]]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert len(got) == 8 and not any(t.is_alive() for t in threads)
            for answers in got:
                for li, level in answers:
                    assert same_level(level, want[li])

    def test_coarser_levels_are_not_built_until_asked_for(self):
        util = build(sample_records())
        held = util.thread.levels._held
        assert util.n_levels > 3 and [lv is not None for lv in held] == [True] + [False] * (
            util.n_levels - 1
        )
        util.query("thread", util.t_min, util.t_max, 16)
        assert sum(lv is not None for lv in held) == 2
        with pytest.raises(IndexError):
            util.thread.levels[util.n_levels]


run_columns = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**63 - 1]),
        st.sampled_from([1, 1, 1, 2, 3, 255, 256, 70_000]),
    ),
    max_size=12,
)


class TestRunCodec:
    @settings(max_examples=max_examples(80), deadline=None)
    @given(run_columns)
    def test_round_trip_and_narrowest_dtypes(self, runs):
        column = np.repeat(
            np.array([v for v, _ in runs], np.int64), [n for _, n in runs]
        )
        blob = utilization._encode_runs(column)
        out, pos = utilization._decode_runs(blob, 0, len(blob), len(column))
        assert pos == len(blob)
        assert out.dtype == np.int64 and np.array_equal(out, column)
        # Equal neighbours merge into one run; each array takes the
        # smallest dtype that holds its maximum.
        n_runs, value_code, length_code = utilization._RUNS_HEADER.unpack_from(blob)
        starts = [0] + [i for i in range(1, len(column)) if column[i] != column[i - 1]]
        assert n_runs == (len(starts) if len(column) else 0)
        lengths = np.diff(starts + [len(column)]) if len(column) else []
        for code, top in ((value_code, max(column, default=0)),
                          (length_code, max(lengths, default=0))):
            assert int(top) < 1 << (8 << code)
            assert code == 0 or int(top) >= 1 << (8 << (code - 1))

    def test_a_negative_value_is_refused_not_wrapped(self):
        with pytest.raises(FormatError):
            utilization._encode_runs(np.array([3, -1, 4], np.int64))

    def test_the_declared_length_is_checked_before_anything_is_expanded(self):
        blob = utilization._encode_runs(np.full(1000, 7, np.int64))
        assert len(blob) == 6 + 1 + 2
        for n in (999, 1001, 0, 2**32 - 16):
            with pytest.raises(FormatError):
                utilization._decode_runs(blob, 0, len(blob), n)
        with pytest.raises(FormatError):
            utilization._decode_runs(blob, 0, len(blob) - 1, 1000)


class TestGoldenQueries:
    def test_query_answers_match_the_dict_implementation(self, corpus):
        """``query()`` over the golden corpus, pinned to what the
        dict-of-dict implementation it replaced returned (dumped at commit
        63e2fdc: windows, shift, and every cell of every lane)."""
        golden = json.loads(
            (Path(corpus.root) / "utilization_golden.json").read_text()
        )
        assert sorted(golden) == ["good.slog", "good.ute"]
        for name, cases in golden.items():
            with open_trace(corpus.path(name), PROFILE) as handle:
                util = build_index(handle).utilization
            for case in cases:
                shift, lanes = util.query(
                    case["kind"], case["t0"], case["t1"], case["max_bins"]
                )
                assert shift == case["shift"]
                got = {
                    str(key): [
                        [b0, b1, count, busy, {str(s): v for s, v in states.items()}]
                        for b0, b1, count, busy, states in cells
                    ]
                    for key, cells in lanes.items()
                }
                assert got == case["lanes"]
                assert list(got) == sorted(got, key=int)


class TestEncoding:
    def test_round_trip_is_identity(self):
        util = build(sample_records())
        data = util.encode()
        decoded, pos = UtilizationIndex.decode(data, 0)
        assert pos == len(data)
        assert decoded.encode() == data

    @settings(max_examples=max_examples(60), deadline=None)
    @given(record_rows, grids)
    def test_decode_of_encode_reproduces_level_zero(self, rows, grid):
        util = build(from_rows(rows), base_bins=grid)
        data = util.encode()
        decoded, pos = UtilizationIndex.decode(data, 0)
        assert pos == len(data)
        assert (decoded.base_shift, decoded.n_levels, decoded.t_min, decoded.t_max) == (
            util.base_shift, util.n_levels, util.t_min, util.t_max
        )
        for kind in ("thread", "cpu"):
            built, read = util._table(kind), decoded._table(kind)
            assert read.keys.dtype == built.keys.dtype
            assert np.array_equal(read.keys, built.keys)
            assert len(read.levels) == len(built.levels) == util.n_levels
            assert same_level(read.levels[0], built.levels[0])

    def test_only_the_finest_level_is_stored(self):
        # Asking for every level first changes nothing that is written.
        util = build(sample_records())
        before = util.encode()
        for kind in ("thread", "cpu"):
            for li in range(util.n_levels):
                util.level_cells(kind, li)
        assert util.encode() == before

    def test_absent_section_decodes_to_none(self):
        decoded, pos = UtilizationIndex.decode(
            UtilizationIndex.encode_absent(), 0
        )
        assert decoded is None
        assert pos == len(UtilizationIndex.encode_absent())


class TestQuery:
    def test_cells_cover_busy_and_respect_max_bins(self):
        util = build(sample_records())
        shift, lanes = util.query("thread", util.t_min, util.t_max, 64)
        assert (util.t_max >> shift) - (util.t_min >> shift) + 1 <= 64
        for cells in lanes.values():
            for bin_t0, bin_t1, count, busy, states in cells:
                assert bin_t1 - bin_t0 == 1 << shift
                assert busy == sum(states.values())
                assert count >= 0 and busy > 0

    def test_narrow_window_uses_a_finer_level(self):
        util = build(sample_records())
        whole, _ = util.query("thread", util.t_min, util.t_max, 16)
        mid = (util.t_min + util.t_max) // 2
        narrow, _ = util.query("thread", mid, mid + 100, 16)
        assert narrow <= whole

    def test_window_is_clamped_to_the_indexed_span(self):
        util = build(sample_records())
        shift, lanes = util.query(
            "thread", util.t_min - 10**9, util.t_max + 10**9, 128
        )
        for cells in lanes.values():
            assert cells[0][0] >= (util.t_min >> shift) << shift

    def test_a_window_wholly_outside_the_span_has_no_cells(self):
        """Before the span it used to answer the first bin's cells (one at
        1.000000-1.000016 ms here); after it, nothing.  Both sides now
        answer the same empty payload, at the finest level."""
        util = build([rec(10**6 + i * 1_000, 400, thread=i % 2) for i in range(50)])
        before = (0, 500_000)
        after = (util.t_max + 1, util.t_max + 500_000)
        for kind in ("thread", "cpu"):
            for max_bins in (1, 64, 4096):
                for window in (before, after):
                    shift, cells = util.query(kind, *window, max_bins)
                    assert shift == util.base_shift and len(cells) == 0
                    assert len(cells.bins) == 0 and cells.offsets.tolist() == [0] * (
                        len(util.lanes(kind)) + 1
                    )
                payloads = [
                    utilization_payload(util, kind, window, max_bins, 1e9, str)
                    for window in (before, after)
                ]
                assert [p["lanes"] for p in payloads] == [[], []]
                for payload in payloads:
                    del payload["window"]
                assert payloads[0] == payloads[1]

    def test_utilization_json_of_a_window_outside_the_span(self):
        util = build([rec(10**6 + i * 1_000, 400, thread=i % 2) for i in range(50)])
        for window in ((0, 500_000), (util.t_max + 1, util.t_max + 500_000)):
            text = utilization_json(util, "thread", window, 64, 1e9, str)
            assert text == json.dumps(utilization_payload(util, "thread", window, 64, 1e9, str))
            assert json.loads(text)["lanes"] == []

    def test_repeated_whole_run_queries_match_a_fresh_index(self):
        # Whole-level answers are remembered per kind; whatever was asked
        # before, every answer equals a never-queried index's.
        records = sample_records()
        util = build(records)
        mid = (util.t_min + util.t_max) // 2
        asks = [
            (util.t_min, util.t_max, 16), (util.t_min, util.t_max, 16),
            (util.t_min, util.t_max, 64), (mid, mid + 500, 16),
            (util.t_min, util.t_max, 16), (util.t_min, util.t_max, 1 << 20),
        ]
        for t0, t1, max_bins in asks:
            for kind in ("thread", "cpu"):
                fresh = build(records)
                assert util.query(kind, t0, t1, max_bins) == fresh.query(
                    kind, t0, t1, max_bins
                )

    def test_unknown_lane_kind_raises(self):
        util = build(sample_records())
        with pytest.raises(FormatError):
            util.query("socket", 0, 1, 16)


class TestSidecarIntegration:
    def test_built_index_persists_the_hierarchy(self, tmp_path):
        path = make_slog(tmp_path / "run.slog", sample_records(), threads=3)
        with open_trace(path, PROFILE) as handle:
            index = build_index(handle)
        write_index(index, index_path_for(path))
        from repro.query.indexfile import load_index

        loaded = load_index(index_path_for(path))
        assert loaded.utilization is not None
        assert loaded.utilization.encode() == index.utilization.encode()

    def test_busy_excludes_pseudo_pieces(self, tmp_path):
        # A record spanning a frame boundary is split into pieces plus
        # zero-duration continuation markers; busy time must match the
        # original durations exactly, not double-count the stubs.
        records = [rec(i * 100, 95, thread=i % 2) for i in range(80)]
        path = make_slog(tmp_path / "run.slog", records, frame_bytes=256)
        with open_trace(path, PROFILE) as handle:
            index = build_index(handle)
        util = index.utilization
        busy = sum(
            sum(states.values()) for cells in level0(util).values()
            for _, states in cells.values()
        )
        assert busy == sum(r.duration for r in records)


class TestServeEndpoint:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.serve import ServeClient, ServerConfig, ServerThread

        path = make_slog(
            tmp_path_factory.mktemp("util-serve") / "run.slog",
            sample_records(), threads=3,
        )
        with open_trace(path, PROFILE) as handle:
            write_index(build_index(handle), index_path_for(path))
        with ServerThread(path, ServerConfig(port=0)) as srv:
            yield ServeClient(srv.base_url)

    def test_payload_shape(self, served):
        resp = served.utilization({"lane": "thread"})
        assert resp.status == 200
        payload = json.loads(resp.body)
        assert payload["kind"] == "thread"
        assert payload["levels"] >= 1
        assert payload["lanes"]
        for lane in payload["lanes"]:
            assert "thread" in lane
            for cell in lane["cells"]:
                assert cell["end"] > cell["start"]
                assert 0.0 <= cell["busy_frac"] <= 1.0
                assert cell["dominant"] in (
                    int(k) for k in payload["state_names"]
                ) or str(cell["dominant"]) in payload["state_names"]

    def test_no_trace_io(self, served):
        resp = served.utilization({"lane": "cpu", "bins": "32"})
        assert resp.status == 200
        assert resp.headers.get("x-ute-bytes-read") == "0"
        payload = json.loads(resp.body)
        assert all("cpu" in lane for lane in payload["lanes"])

    def test_bad_lane_is_a_client_error(self, served):
        resp = served.utilization({"lane": "socket"})
        assert resp.status == 400


class TestCli:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = make_slog(
            tmp_path_factory.mktemp("util-cli") / "run.slog",
            sample_records(), threads=3,
        )
        with open_trace(path, PROFILE) as handle:
            write_index(build_index(handle), index_path_for(path))
        return path

    def run(self, argv):
        from repro import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main_query(argv)
        return rc, buf.getvalue()

    def test_tsv_output(self, trace):
        rc, out = self.run([str(trace), "--utilization"])
        assert rc == 0
        header, *rows = out.strip().splitlines()
        assert header.split("\t")[:2] == ["node", "thread"]
        assert rows

    def test_json_output_matches_lane(self, trace):
        rc, out = self.run(
            [str(trace), "--utilization", "--lane", "cpu", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["kind"] == "cpu"
        assert all("cpu" in lane for lane in payload["lanes"])

    def test_without_sidecar_builds_in_memory(self, tmp_path):
        path = make_slog(tmp_path / "fresh.slog", sample_records())
        rc, out = self.run([str(path), "--utilization"])
        assert rc == 0
        assert out.strip().splitlines()[1:]
