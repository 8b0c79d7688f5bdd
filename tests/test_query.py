"""Tests for the indexed query subsystem (``repro.query`` + ``ute-query``).

The contract under test everywhere: the sidecar index changes **bytes
read**, never results.  Indexed and unindexed executions of the same query
must render byte-identical output — including over damaged corpus files
read in salvage mode, and after the trace is atomically replaced under a
now-stale sidecar.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import struct
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main_dump, main_query, main_stats
from repro.core import IntervalFileWriter, standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.profilefmt import Profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.live import LiveIntervalWriter, LiveSlogWriter
from repro.query import (
    MODE_FULL_SCAN,
    MODE_INDEXED,
    Aggregate,
    Query,
    ThreadSel,
    TraceIndex,
    build_index,
    index_path_for,
    load_fresh_index,
    open_trace,
    plan_query,
    run_query,
    write_index,
)
from repro.utils.slog import SlogWriter

PROFILE = standard_profile()
MARKER = IntervalType.MARKER
RUNNING = IntervalType.RUNNING


def _records(n=240):
    """A deterministic workload: 3 nodes x 2 threads, two record types,
    time increasing so frames get disjoint windows."""
    out = []
    for i in range(n):
        node = i % 3
        thread = i % 2
        itype = MARKER if i % 5 == 0 else RUNNING
        extra = {"markerId": 1} if itype == MARKER else {}
        out.append(
            IntervalRecord(
                itype, BeBits.COMPLETE, i * 100_000, 60_000, node, 0, thread, extra
            )
        )
    return out


def thread_table():
    """Three nodes of two threads, as ``_records`` spreads them."""
    return ThreadTable(
        [
            ThreadEntry(n * 2 + t, 100 + n, 5000 + n * 10 + t, n, t, 0, f"n{n}t{t}")
            for n in range(3)
            for t in range(2)
        ]
    )


def make_ivl(path, records=None, *, frame_bytes=512):
    with IntervalFileWriter(
        path, PROFILE, thread_table(), field_mask=MASK_ALL_MERGED,
        markers={1: "phase"}, frame_bytes=frame_bytes,
    ) as writer:
        for record in records if records is not None else _records():
            writer.write(record)
    return path


@pytest.fixture()
def ivl(tmp_path):
    return make_ivl(tmp_path / "q.ute")


@pytest.fixture()
def indexed_ivl(ivl):
    with open_trace(ivl, PROFILE) as handle:
        write_index(build_index(handle), index_path_for(ivl))
    return ivl


def run_cli(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Sidecar format.


class TestIndexFile:
    def test_roundtrip(self, ivl):
        with open_trace(ivl, PROFILE) as handle:
            index = build_index(handle)
        decoded = TraceIndex.decode(index.encode())
        assert decoded.source_size == index.source_size
        assert decoded.source_sha256 == index.source_sha256
        assert decoded.t_min == index.t_min and decoded.t_max == index.t_max
        assert decoded.frames == index.frames
        assert decoded.utilization.encode() == index.utilization.encode()
        assert decoded.postings == index.postings
        assert [f.thread_keys for f in decoded.frames] == [
            f.thread_keys for f in index.frames
        ]
        assert [f.type_bits for f in decoded.frames] == [
            f.type_bits for f in index.frames
        ]

    def test_build_deterministic(self, ivl, tmp_path):
        """Same input file -> bit-identical sidecar, across two builds."""
        with open_trace(ivl, PROFILE) as handle:
            first = build_index(handle).encode()
        with open_trace(ivl, PROFILE) as handle:
            second = build_index(handle).encode()
        assert first == second
        a, b = tmp_path / "a.uteidx", tmp_path / "b.uteidx"
        write_index(TraceIndex.decode(first), a)
        write_index(TraceIndex.decode(second), b)
        # write_index streams encode_chunks(); the file is still encode().
        assert a.read_bytes() == b.read_bytes() == first

    def test_summary_counts(self, ivl):
        with open_trace(ivl, PROFILE) as handle:
            index = build_index(handle)
            total = sum(f.n_records for f in handle.frames)
        info = index.summary()
        assert info["records"] == total == 240
        assert info["frames"] == len(index.frames) > 1
        assert info["threads"] == 6  # 3 nodes x 2 threads

    def test_corrupt_sidecar_rejected(self, indexed_ivl):
        sidecar = index_path_for(indexed_ivl)
        data = bytearray(sidecar.read_bytes())
        data[len(data) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(data))
        index, reason = load_fresh_index(indexed_ivl)
        assert index is None and reason.startswith("corrupt:")

    def test_truncated_sidecar_rejected(self, indexed_ivl):
        sidecar = index_path_for(indexed_ivl)
        sidecar.write_bytes(sidecar.read_bytes()[:40])
        index, reason = load_fresh_index(indexed_ivl)
        assert index is None and reason.startswith("corrupt:")

    def test_index_path_for(self):
        assert index_path_for("d/run.slog").name == "run.slog.uteidx"
        assert index_path_for("d/run.ute").name == "run.ute.uteidx"


def test_an_index_is_not_bigger_than_its_data(tmp_path):
    """ROADMAP item 2's floor: the sidecar of the benchmark's wide trace
    (128 lanes, the worst case: its size follows the lanes, not the
    records) stays within 1.5x the trace, and a Table 1 synthetic SLOG's
    is smaller than the SLOG."""
    from repro.utils.convert import convert_traces
    from repro.utils.merge import merge_interval_files
    from repro.workloads import run_synthetic
    from repro.workloads.bigtrace import write_big_slog
    from repro.workloads.synthetic import SyntheticConfig

    def ratio(path):
        with open_trace(path, PROFILE) as handle:
            sidecar = write_index(build_index(handle), index_path_for(path))
        return sidecar.stat().st_size / Path(path).stat().st_size

    wide = write_big_slog(
        tmp_path / "wide.slog", n_nodes=4, threads_per_node=32,
        n_records=20_000, frame_bytes=13_000,
    )
    assert ratio(wide.path) <= 1.5
    run = run_synthetic(tmp_path / "raw", SyntheticConfig(rounds=206))
    merged = merge_interval_files(
        convert_traces(run.raw_paths, tmp_path / "ivl").interval_paths,
        tmp_path / "merged.ute", PROFILE, slog_path=tmp_path / "table1.slog",
    )
    assert ratio(merged.slog_path) < 1.0


# ---------------------------------------------------------------------------
# Sidecar damage: every malformed v5 file is a FormatError, never a NumPy
# exception and never a wrong answer.

#: The five run-coded columns of a lane table's level 0, in file order.
RUN_COLUMNS = ("bins", "counts", "n_states", "states", "busy")
RUN_FORMATS = "BHIQ"  # dtype codes 0..3: u1, u2, u4, u8


def sidecar_sections(data: bytes) -> list[tuple[str, int, int]]:
    """Walk a version-5 sidecar by the layout in docs/FORMAT.md section 7:
    ``(name, start, end)`` of every section, in file order."""
    out: list[tuple[str, int, int]] = []
    pos = 0

    def take(name: str, size: int) -> None:
        nonlocal pos
        out.append((name, pos, pos + size))
        pos += size

    take("header", 16)
    take("source", 40)
    _, _, n_frames, n_postings, _ = struct.unpack_from("<qqIII", data, pos)
    take("span", 28)
    for i in range(n_frames):
        take(f"frame{i}", 36 + 32)
    for i in range(n_postings):
        (n,) = struct.unpack_from("<I", data, pos + 8)
        take(f"posting{i}", 12 + 4 * n)
    _, _, _, _, n_thread, n_cpu = struct.unpack_from("<IIqqII", data, pos)
    take("util.header", 32)
    for kind, n_lanes in (("thread", n_thread), ("cpu", n_cpu)):
        take(f"{kind}.keys", 8 * n_lanes)
        take(f"{kind}.header", 8)
        take(f"{kind}.lane_cells", 4 * n_lanes)
        for column in RUN_COLUMNS:
            n_runs, value_code, length_code = struct.unpack_from("<IBB", data, pos)
            take(f"{kind}.{column}.runs", 6)
            take(f"{kind}.{column}.values", n_runs << value_code)
            take(f"{kind}.{column}.lengths", n_runs << length_code)
    take("crc", 4)
    assert pos == len(data)
    return out


def resealed(body: bytes) -> bytes:
    """``body`` (a sidecar minus its trailer) under a valid CRC."""
    return body + struct.pack("<I", zlib.crc32(body))


def patched(data: bytes, name: str, fmt: str, change, *, at: int = 0) -> bytes:
    """``data`` with the ``fmt`` value(s) at byte ``at`` of section ``name``
    replaced by ``change(*values)`` and the CRC repaired."""
    start = span_of(data, name)[0] + at
    values = change(*struct.unpack_from(fmt, data, start))
    body = bytearray(data[:-4])
    struct.pack_into(fmt, body, start, *values)
    return resealed(bytes(body))


def span_of(data: bytes, name: str) -> tuple[int, int]:
    """``(start, end)`` of the section called ``name``."""
    return next((start, end) for n, start, end in sidecar_sections(data) if n == name)


def runs_of(data: bytes, column: str) -> tuple[list[int], list[int], int, int]:
    """One run-coded column (``"thread.busy"``) as ``(values, lengths,
    value dtype code, length dtype code)``."""
    n_runs, *codes = struct.unpack_from("<IBB", data, span_of(data, f"{column}.runs")[0])
    values, lengths = (
        list(struct.unpack_from(
            f"<{n_runs}{RUN_FORMATS[code]}", data, span_of(data, f"{column}.{part}")[0]
        ))
        for part, code in zip(("values", "lengths"), codes)
    )
    return values, lengths, *codes


def rerun(data: bytes, column: str, change) -> bytes:
    """``data`` with one run-coded column rewritten: ``change(values,
    lengths, value_code, length_code)`` edits the lists in place and may
    return new dtype codes; the column is re-packed, the CRC repaired."""
    values, lengths, *codes = runs_of(data, column)
    value_code, length_code = change(values, lengths, *codes) or codes
    packed = struct.pack("<IBB", len(values), value_code, length_code)
    packed += struct.pack(f"<{len(values)}{RUN_FORMATS[value_code]}", *values)
    packed += struct.pack(f"<{len(lengths)}{RUN_FORMATS[length_code]}", *lengths)
    start, end = span_of(data, f"{column}.runs")[0], span_of(data, f"{column}.lengths")[1]
    return resealed(data[:start] + packed + data[end:-4])


def run_holding(lengths: list[int], element: int) -> int:
    """Index of the run that holds element ``element`` of the column."""
    for run, n in enumerate(lengths):
        if element < n:
            return run
        element -= n
    raise AssertionError("element beyond the column")


def first_multi_state_row(data: bytes) -> int:
    """Row index of the first thread level-0 cell holding two states."""
    values, lengths, _, _ = runs_of(data, "thread.n_states")
    row = 0
    for n_states, cells in zip(values, lengths):
        if n_states > 1:
            return row
        row += n_states * cells
    raise AssertionError("fixture has no multi-state cell")


def _set(run: int, value: int, *, wide: bool = False):
    """A :func:`rerun` change: run ``run``'s value becomes ``value`` (in a
    u8 column when ``wide``)."""
    def change(values, lengths, value_code, length_code):
        values[run] = value
        return (3 if wide else value_code), length_code
    return change


def _stall_longest_run(values, lengths, *_):
    # Every lane of the fixture has many cells, so the longest run of equal
    # bin deltas lies inside a lane; a delta of 0 there repeats a bin.
    assert max(lengths) >= 3
    values[lengths.index(max(lengths))] = 0


def _equal_states(data: bytes) -> bytes:
    # Rows r and r + 1 are one cell's first two states (so two runs): give
    # the second the first's value and the cell's states no longer increase.
    row = first_multi_state_row(data)
    values, lengths, _, _ = runs_of(data, "thread.states")
    low, high = run_holding(lengths, row), run_holding(lengths, row + 1)
    assert low != high
    return rerun(data, "thread.states", _set(high, values[low]))


def _bump_first_value(values, lengths, *_):
    values[0] += 1


def _grow_first_run(values, lengths, *_):
    lengths[0] += 1


def _shrink_a_run(values, lengths, *_):
    lengths[lengths.index(max(lengths))] -= 1


def _add_empty_run(values, lengths, *_):
    values.append(values[-1] + 1)
    lengths.append(0)


#: CRC-repaired tampering the decoder's own checks must catch.
TAMPERINGS = {
    "unsorted_bins": lambda d: rerun(d, "thread.bins", _stall_longest_run),
    "unsorted_states": _equal_states,
    "unsorted_lane_keys": lambda d: patched(
        d, "thread.keys", "<QQ", lambda a, b: (b, a)
    ),
    "n_states_disagree": lambda d: rerun(d, "thread.n_states", _bump_first_value),
    "lane_cells_disagree": lambda d: patched(
        d, "cpu.lane_cells", "<I", lambda n: (n + 1,)
    ),
    "empty_lane": lambda d: patched(
        d, "thread.lane_cells", "<II", lambda a, b: (0, a + b)
    ),
    "zero_busy": lambda d: rerun(d, "cpu.busy", _set(0, 0)),
    "busy_beyond_int64": lambda d: rerun(d, "cpu.busy", _set(0, 1 << 63, wide=True)),
    "count_beyond_int64": lambda d: rerun(
        d, "thread.counts", _set(0, (1 << 64) - 1, wide=True)
    ),
    "bin_outside_span": lambda d: rerun(
        d, "thread.bins", _set(1, 0xFFFFFFF0, wide=True)
    ),
    "cells_overflow_file": lambda d: patched(
        d, "thread.header", "<II", lambda c, r: (0xFFFFFFF0, r)
    ),
    "rows_overflow_file": lambda d: patched(
        d, "cpu.header", "<II", lambda c, r: (c, 0x7FFFFFFF)
    ),
    "lanes_overflow_file": lambda d: patched(
        d, "util.header", "<IIqqII", lambda s, n, a, b, t, c: (s, n, a, b, 0xFFFFFFF0, c)
    ),
    "levels_disagree_with_span": lambda d: patched(
        d, "util.header", "<IIqqII", lambda s, n, a, b, t, c: (s, n - 1, a, b, t, c)
    ),
    "shift_beyond_int64": lambda d: patched(
        d, "util.header", "<IIqqII", lambda s, n, a, b, t, c: (70, n, a, b, t, c)
    ),
    # A frame's thread keys are stored as the postings that name it.
    "frame_keys_overflow_file": lambda d: patched(
        d, "posting0", "<I", lambda n: (0x7FFFFFFF,), at=8
    ),
    "posting_names_a_missing_frame": lambda d: patched(
        d, "posting0", "<I", lambda o: (0x7FFFFFFF,),
        at=8 + 4 * struct.unpack_from("<I", d, span_of(d, "posting0")[0] + 8)[0],
    ),
    "unsorted_posting_keys": lambda d: patched(
        d, "posting1", "<Q", lambda k: (0,)
    ),
    "unsorted_posting_ordinals": lambda d: patched(
        d, "posting0", "<II", lambda a, b: (b, a), at=12
    ),
    # The run codec's own checks.
    "runs_overrun_the_cells": lambda d: rerun(d, "thread.counts", _grow_first_run),
    "runs_underrun_the_cells": lambda d: rerun(d, "thread.counts", _shrink_a_run),
    "runs_overrun_the_rows": lambda d: rerun(d, "cpu.states", _grow_first_run),
    "zero_length_run": lambda d: rerun(d, "thread.busy", _add_empty_run),
    "value_dtype_code_out_of_range": lambda d: patched(
        d, "cpu.counts.runs", "<B", lambda c: (4,), at=4
    ),
    "length_dtype_code_out_of_range": lambda d: patched(
        d, "thread.bins.runs", "<B", lambda c: (0xFF,), at=5
    ),
    "runs_overflow_file": lambda d: patched(
        d, "cpu.busy.runs", "<I", lambda n: (0x7FFFFFFF,)
    ),
    "trailing_bytes": lambda d: resealed(d[:-4] + b"\0"),
}


def mixed_records(n=240):
    """Like ``_records`` but long enough to overlap: markers run inside
    running intervals, so cells hold several states and lanes many bins."""
    out = []
    for i in range(n):
        itype = MARKER if i % 5 == 0 else RUNNING
        extra = {"markerId": 1} if itype == MARKER else {}
        out.append(
            IntervalRecord(
                itype, BeBits.COMPLETE, i * 100_000, 650_000, i % 3, i % 2, i % 2, extra
            )
        )
    return out


class TestSidecarDamage:
    QUERY = Query(threads=(ThreadSel(None, 1),), t0=2_000_000, t1=9_000_000)

    @pytest.fixture()
    def trace(self, tmp_path):
        path = make_ivl(tmp_path / "mixed.ute", mixed_records())
        with open_trace(path, PROFILE) as handle:
            write_index(build_index(handle), index_path_for(path))
        return path

    def assert_falls_back(self, trace, data):
        """The damaged bytes are refused as ``corrupt:`` and the query
        answers what the full scan answers."""
        with pytest.raises(FormatError):
            TraceIndex.decode(data)
        index_path_for(trace).write_bytes(data)
        index, reason = load_fresh_index(trace)
        assert index is None and reason.startswith("corrupt:")
        damaged = run_query(trace, self.QUERY, profile=PROFILE)
        plain = run_query(trace, self.QUERY, profile=PROFILE, index=False)
        assert damaged.plan.mode == MODE_FULL_SCAN
        assert damaged.rows == plain.rows and len(plain.rows) > 0

    def test_layout_walk_covers_the_file(self, trace):
        data = index_path_for(trace).read_bytes()
        names = [name for name, _, _ in sidecar_sections(data)]
        assert names[:4] == ["header", "source", "span", "frame0"]
        assert "thread.busy.values" in names and names[-1] == "crc"
        assert first_multi_state_row(data) >= 0

    def test_truncation_at_every_section_boundary(self, trace):
        data = index_path_for(trace).read_bytes()
        # Every boundary and the middle of every section: a cut inside a
        # run array is as likely as one between two.
        sections = sidecar_sections(data)
        cuts = sorted(
            {start for _, start, _ in sections if start}
            | {(start + end) // 2 for _, start, end in sections[:-1]}
        )
        assert len(cuts) > 100
        assert cuts[-1] == len(data) - 4  # resealing that one restores the file
        for cut in cuts:
            with pytest.raises(FormatError):
                TraceIndex.decode(data[:cut])
            if cut != cuts[-1]:
                with pytest.raises(FormatError):
                    TraceIndex.decode(resealed(data[:cut]))
        for cut in (cuts[3], cuts[len(cuts) // 2], cuts[-2]):
            self.assert_falls_back(trace, data[:cut])
            self.assert_falls_back(trace, resealed(data[:cut]))

    def test_every_bit_flip_is_rejected(self, trace):
        data = index_path_for(trace).read_bytes()
        rng = random.Random(12)
        for _ in range(300):
            flipped = bytearray(data)
            flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            with pytest.raises(FormatError):
                TraceIndex.decode(bytes(flipped))
        self.assert_falls_back(trace, bytes(flipped))

    def test_crc_repaired_bit_flips_decode_or_raise_format_error(self, trace):
        """With the checksum repaired a flip may land on a value no check
        can know is wrong (a busy total); what it may never do is escape as
        anything but :class:`FormatError` or break a later query."""
        data = index_path_for(trace).read_bytes()
        rng = random.Random(34)
        refused = 0
        for _ in range(400):
            body = bytearray(data[:-4])
            body[rng.randrange(len(body))] ^= 1 << rng.randrange(8)
            try:
                index = TraceIndex.decode(resealed(bytes(body)))
            except FormatError:
                refused += 1
                continue
            util = index.utilization
            if util is not None:
                for kind in ("thread", "cpu"):
                    util.query(kind, util.t_min, util.t_max, 64)
                    util.level_cells(kind, util.n_levels - 1)
        assert refused > 0

    @pytest.mark.parametrize("name", sorted(TAMPERINGS))
    def test_crc_repaired_tampering_is_refused(self, trace, name):
        data = index_path_for(trace).read_bytes()
        tampered = TAMPERINGS[name](data)
        assert tampered != data and zlib.crc32(tampered[:-4]) == struct.unpack(
            "<I", tampered[-4:]
        )[0]
        self.assert_falls_back(trace, tampered)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_versions_are_stale_not_read(self, trace, version):
        """A v1-v4 file (valid magic and checksum, an older version word)
        is never parsed: it reports ``stale:version`` and the planner
        scans."""
        data = index_path_for(trace).read_bytes()
        body = bytearray(data[:-4])
        struct.pack_into("<I", body, 8, version)
        index_path_for(trace).write_bytes(resealed(bytes(body)))
        index, reason = load_fresh_index(trace)
        assert index is None and reason == "stale:version"
        stale = run_query(trace, self.QUERY, profile=PROFILE)
        plain = run_query(trace, self.QUERY, profile=PROFILE, index=False)
        assert stale.plan.mode == MODE_FULL_SCAN and stale.rows == plain.rows

    def test_registry_rebuilds_an_older_version(self, trace):
        from repro.repository import Repository

        sidecar = index_path_for(trace)
        good = sidecar.read_bytes()
        body = bytearray(good[:-4])
        struct.pack_into("<I", body, 8, 4)
        sidecar.write_bytes(resealed(bytes(body)))
        repo = Repository(None, build_indexes=True)
        dataset = repo.attach("old", trace)
        repo._build_index(dataset)
        assert dataset.index_status == "ready"
        assert sidecar.read_bytes() == good


# ---------------------------------------------------------------------------
# Freshness / staleness.


class TestStaleness:
    def test_missing(self, ivl):
        index, reason = load_fresh_index(ivl)
        assert index is None and reason == "missing"

    def test_fresh(self, indexed_ivl):
        index, reason = load_fresh_index(indexed_ivl)
        assert index is not None and reason == "fresh"

    def test_atomic_replace_detected_and_results_identical(self, indexed_ivl, tmp_path):
        """The staleness contract end to end: replace the trace under its
        sidecar, the planner must fall back to full scan, and the query
        answer must be correct for the NEW content."""
        query = ["--window", "0:0.01", "--thread", "1"]
        # Atomically replace the trace with different content (fewer records).
        replacement = make_ivl(tmp_path / "new.ute", _records(120))
        os.replace(replacement, indexed_ivl)
        index, reason = load_fresh_index(indexed_ivl)
        assert index is None and reason.startswith("stale:")
        code, stale_out, err = run_cli(
            main_query, [str(indexed_ivl), *query, "--explain"]
        )
        assert code == 0
        assert "full-scan" in err
        # Ground truth: the same query with the index explicitly disabled.
        code, plain_out, _ = run_cli(
            main_query, [str(indexed_ivl), *query, "--no-index"]
        )
        assert code == 0
        assert stale_out == plain_out

    def test_atomic_replace_same_bytes_stays_fresh(self, indexed_ivl, tmp_path):
        """An atomic rewrite of identical bytes keeps the sidecar valid even
        though the mtime moved (content hash re-verified)."""
        clone = tmp_path / "clone.ute"
        clone.write_bytes(Path(indexed_ivl).read_bytes())
        os.replace(clone, indexed_ivl)
        index, reason = load_fresh_index(indexed_ivl)
        assert index is not None and reason == "fresh"

    def test_size_change_detected(self, indexed_ivl):
        with open(indexed_ivl, "ab") as fh:
            fh.write(b"\x00" * 16)
        index, reason = load_fresh_index(indexed_ivl)
        assert index is None and reason == "stale:size"


# ---------------------------------------------------------------------------
# Planner.


class TestPlanner:
    @pytest.fixture()
    def setup(self, ivl):
        handle = open_trace(ivl, PROFILE)
        index = build_index(handle)
        yield handle, index
        handle.close()

    def test_no_index_full_scan(self, setup):
        handle, _ = setup
        plan = plan_query(Query(), handle.frames, None, index_reason="missing")
        assert plan.mode == MODE_FULL_SCAN
        assert plan.frames == list(range(len(handle.frames)))
        assert plan.frames_pruned == 0

    def test_window_prunes(self, setup):
        handle, index = setup
        t_mid = handle.frames[-1].end_time // 2
        plan = plan_query(Query(t0=0, t1=t_mid // 4), handle.frames, index)
        assert plan.mode == MODE_INDEXED
        assert 0 < len(plan.frames) < len(handle.frames)
        assert ("time-window", len(plan.frames)) in plan.steps

    def test_unknown_thread_prunes_everything(self, setup):
        handle, index = setup
        plan = plan_query(
            Query(threads=(ThreadSel(7, 99),)), handle.frames, index
        )
        assert plan.mode == MODE_INDEXED and plan.frames == []

    def test_node_and_type_steps(self, setup):
        handle, index = setup
        plan = plan_query(
            Query(nodes=frozenset({0}), types=frozenset({int(MARKER)})),
            handle.frames, index,
        )
        assert plan.mode == MODE_INDEXED
        names = [name for name, _ in plan.steps]
        assert "node-sets" in names and "type-bitmaps" in names

    def test_unknown_type_prunes_everything(self, setup):
        handle, index = setup
        plan = plan_query(Query(types=frozenset({200})), handle.frames, index)
        assert plan.frames == []

    def test_frame_count_mismatch_forces_full_scan(self, setup):
        handle, index = setup
        index.frames.pop()
        plan = plan_query(Query(), handle.frames, index)
        assert plan.mode == MODE_FULL_SCAN

    def test_conservative_never_loses_records(self, setup):
        """Every record a full scan admits must live in a planned frame."""
        handle, index = setup
        query = Query(
            t0=3_000_000, t1=15_000_000,
            threads=(ThreadSel(None, 1),),
            types=frozenset({int(RUNNING)}),
        )
        plan = plan_query(query, handle.frames, index)
        planned = set(plan.frames)
        for frame in handle.frames:
            for record in handle.read_frame(frame.ordinal):
                if query.matches(record):
                    assert frame.ordinal in planned


# ---------------------------------------------------------------------------
# Executor parity + model parsing.


QUERIES = [
    {},
    {"window": (0.0, 0.008)},
    {"threads": (ThreadSel(None, 1),)},
    {"threads": (ThreadSel(2, 0),), "window": (0.002, 0.02)},
    {"nodes": frozenset({0, 2})},
    {"types": frozenset({int(MARKER)})},
    {
        "window": (0.0, 0.01),
        "nodes": frozenset({1}),
        "types": frozenset({int(RUNNING)}),
    },
]


class TestExecutorParity:
    @pytest.mark.parametrize("spec", QUERIES)
    def test_indexed_equals_full_scan(self, indexed_ivl, spec):
        window = spec.pop("window", None)
        query = Query(**spec)
        indexed = run_query(indexed_ivl, query, profile=PROFILE, window=window)
        plain = run_query(
            indexed_ivl, query, profile=PROFILE, index=False, window=window
        )
        assert indexed.plan.mode == MODE_INDEXED
        assert plain.plan.mode == MODE_FULL_SCAN
        assert indexed.to_tsv() == plain.to_tsv()
        assert indexed.io["bytes_read"] <= plain.io["bytes_read"]

    def test_grouped_parity(self, indexed_ivl):
        query = Query(
            group_by=("node", "type"),
            aggregates=(Aggregate.parse("count"), Aggregate.parse("sum:dura")),
        )
        indexed = run_query(indexed_ivl, query, profile=PROFILE)
        plain = run_query(indexed_ivl, query, profile=PROFILE, index=False)
        assert indexed.to_tsv() == plain.to_tsv()
        assert indexed.columns == ("node", "type", "count", "sum(dura)")
        total = sum(row[2] for row in indexed.rows)
        assert total == 240

    def test_limit(self, indexed_ivl):
        result = run_query(indexed_ivl, Query(limit=5), profile=PROFILE)
        assert len(result.rows) == 5

    def test_projection(self, indexed_ivl):
        result = run_query(
            indexed_ivl, Query(columns=("start", "thread")), profile=PROFILE
        )
        assert result.columns == ("start", "thread")
        assert all(len(row) == 2 for row in result.rows)


class TestModelParsing:
    def test_thread_sel(self):
        assert ThreadSel.parse("3") == ThreadSel(None, 3)
        assert ThreadSel.parse("1:3") == ThreadSel(1, 3)
        with pytest.raises(FormatError):
            ThreadSel.parse("a:b")

    def test_aggregate(self):
        assert Aggregate.parse("count").fn == "count"
        agg = Aggregate.parse("avg:dura")
        assert (agg.fn, agg.source, agg.label) == ("avg", "dura", "avg(dura)")
        with pytest.raises(FormatError):
            Aggregate.parse("median:dura")
        with pytest.raises(FormatError):
            Aggregate.parse("sum")

    def test_query_validation(self):
        with pytest.raises(FormatError):
            Query(t0=10, t1=5)
        with pytest.raises(FormatError):
            Query(group_by=("node",))
        with pytest.raises(FormatError):
            Query(aggregates=(Aggregate.parse("count"),))
        with pytest.raises(FormatError):
            Query(limit=-1)


# ---------------------------------------------------------------------------
# CLI.


class TestQueryCli:
    def test_build_index_writes_sidecar(self, ivl):
        code, out, err = run_cli(main_query, [str(ivl), "--build-index"])
        assert code == 0
        sidecar = Path(out.strip())
        assert sidecar == index_path_for(ivl) and sidecar.exists()
        assert "indexed" in err

    def test_build_index_deterministic_bytes(self, ivl):
        run_cli(main_query, [str(ivl), "--build-index"])
        first = index_path_for(ivl).read_bytes()
        run_cli(main_query, [str(ivl), "--build-index"])
        assert index_path_for(ivl).read_bytes() == first

    def test_query_tsv_and_parity(self, indexed_ivl):
        argv = [str(indexed_ivl), "--window", "0:0.01", "--thread", "1"]
        code, indexed_out, err = run_cli(main_query, [*argv, "--explain"])
        assert code == 0
        assert "plan: indexed" in err
        code, plain_out, _ = run_cli(main_query, [*argv, "--no-index"])
        assert code == 0
        assert indexed_out == plain_out
        header = indexed_out.splitlines()[0].split("\t")
        assert header[:3] == ["start", "end", "dura"]

    def test_query_json(self, indexed_ivl):
        code, out, _ = run_cli(
            main_query,
            [str(indexed_ivl), "--group-by", "node", "--agg", "count",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["node", "count"]
        assert doc["plan"]["mode"] == MODE_INDEXED
        assert doc["io"]["bytes_read"] > 0
        assert sum(row[1] for row in doc["rows"]) == 240

    def test_type_by_name(self, indexed_ivl):
        code, by_name, _ = run_cli(
            main_query, [str(indexed_ivl), "--type", "marker"]
        )
        assert code == 0
        code, by_id, _ = run_cli(
            main_query, [str(indexed_ivl), "--type", str(int(MARKER))]
        )
        assert by_name == by_id
        assert len(by_name.splitlines()) == 1 + 48  # 240 / 5 markers

    def test_bad_window(self, ivl):
        code, _, err = run_cli(main_query, [str(ivl), "--window", "zzz"])
        assert code == 2 and "window" in err

    def test_unknown_type_name(self, ivl):
        code, _, err = run_cli(main_query, [str(ivl), "--type", "bogus"])
        assert code == 2 and "bogus" in err

    def test_missing_input(self, tmp_path):
        code, _, err = run_cli(main_query, [str(tmp_path / "none.ute")])
        assert code == 2 and "not found" in err


class TestDumpSeek:
    def test_frame_flag_matches_full_dump(self, ivl):
        code, full, _ = run_cli(main_dump, [str(ivl)])
        assert code == 0
        code, framed, _ = run_cli(main_dump, [str(ivl), "--frame", "0"])
        assert code == 0
        assert "# selection: 1 frame(s)" in framed
        body = [l for l in framed.splitlines() if not l.startswith("#")]
        assert body and all(line in full for line in body)

    def test_window_flag(self, ivl):
        code, out, _ = run_cli(main_dump, [str(ivl), "--window", "0:0.003"])
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        full_body = [
            l for l in run_cli(main_dump, [str(ivl)])[1].splitlines()
            if not l.startswith("#")
        ]
        assert 0 < len(body) < len(full_body)

    def test_frame_out_of_range(self, ivl):
        code, _, err = run_cli(main_dump, [str(ivl), "--frame", "9999"])
        assert code == 2 and "out of range" in err

    def test_raw_rejects_seek_flags(self, tmp_path, corpus):
        code, _, err = run_cli(
            main_dump, [str(corpus.path("good.raw")), "--frame", "0"]
        )
        assert code == 2 and "frame directory" in err

    def test_slog_window(self, corpus):
        code, out, _ = run_cli(
            main_dump, [str(corpus.path("good.slog")), "--window", "0:1"]
        )
        assert code == 0 and "# selection:" in out


class TestStatsJson:
    def test_per_file_io(self, tmp_path):
        """Multi-file --json runs must report each file's own accounting."""
        a = make_ivl(tmp_path / "a.ute")
        b = make_ivl(tmp_path / "b.ute", _records(120))
        code, out, _ = run_cli(main_stats, [str(a), str(b), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc["io"]) == {str(a), str(b)}
        for stats in doc["io"].values():
            assert stats["bytes_fetched"] > 0
            assert stats["frames_decoded"] == stats["frames_total"]
            assert stats["plan"] == MODE_FULL_SCAN
        # Different files, different sizes -> independent numbers.
        assert doc["io"][str(a)]["bytes_fetched"] != doc["io"][str(b)]["bytes_fetched"]
        assert doc["tables"]

    def test_windowed_json_uses_index(self, tmp_path):
        path = make_ivl(tmp_path / "w.ute")
        run_cli(main_query, [str(path), "--build-index"])
        code, out, _ = run_cli(
            main_stats, [str(path), "--json", "--window", "0:0.005"]
        )
        assert code == 0
        doc = json.loads(out)
        stats = doc["io"][str(path)]
        assert stats["plan"] == MODE_INDEXED
        assert stats["frames_decoded"] < stats["frames_total"]


# ---------------------------------------------------------------------------
# Salvage-mode parity over the damaged corpus (hypothesis).

#: Corpus files that salvage cleanly, with the profile each needs.
SALVAGEABLE = [
    ("cut-254.ute", "boundary"),
    ("cut-255.ute", "boundary"),
    ("cut-256.ute", "boundary"),
    ("flip-dirlink.ute", "standard"),
    ("trunc-tail.ute", "standard"),
    ("flip-frame.slog", "standard"),
]


@pytest.fixture(scope="module")
def salvage_corpus(tmp_path_factory):
    """Corpus copies with sidecar indexes built through salvage reads."""
    import shutil

    from tests.conftest import DATA_DIR

    tmp = tmp_path_factory.mktemp("salvage-idx")
    boundary = Profile.read(DATA_DIR / "boundary.profile")
    prepared = {}
    for name, profile_kind in SALVAGEABLE:
        dest = tmp / name
        shutil.copyfile(DATA_DIR / name, dest)
        profile = boundary if profile_kind == "boundary" else PROFILE
        with open_trace(dest, profile, errors="salvage") as handle:
            write_index(build_index(handle), index_path_for(dest))
        prepared[name] = (dest, profile)
    return prepared


@given(
    pick=st.sampled_from([name for name, _ in SALVAGEABLE]),
    frac0=st.floats(min_value=0.0, max_value=1.0),
    span=st.floats(min_value=0.0, max_value=1.0),
    thread=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    node=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
)
@settings(max_examples=40, deadline=None)
def test_salvage_parity_indexed_vs_full(salvage_corpus, pick, frac0, span, thread, node):
    """Property: over damaged-but-salvageable files, an indexed query and a
    full scan render byte-identical rows (salvage reads are deterministic,
    and the planner is conservative)."""
    path, profile = salvage_corpus[pick]
    with open_trace(path, profile, errors="salvage") as handle:
        t_hi = max((f.end_time for f in handle.frames), default=1)
        tps = handle.ticks_per_sec
    t0 = frac0 * t_hi / tps
    t1 = t0 + span * (t_hi / tps - t0)
    query = Query(
        threads=(ThreadSel(None, thread),) if thread is not None else (),
        nodes=frozenset({node}) if node is not None else frozenset(),
    )
    indexed = run_query(
        path, query, profile=profile, errors="salvage", window=(t0, t1)
    )
    plain = run_query(
        path, query, profile=profile, errors="salvage", index=False,
        window=(t0, t1),
    )
    assert indexed.plan.mode == MODE_INDEXED
    assert indexed.to_tsv() == plain.to_tsv()
    assert indexed.io["bytes_read"] <= plain.io["bytes_read"]


# ---------------------------------------------------------------------------
# Grown and replaced traces: a sidecar is rebuilt or fresh, never extended.


def _write_stream(kind, path, records):
    """``records`` through one of the four trace writers, frames cut at
    512 bytes; the live writers also publish an epoch every 64 records."""
    if kind == "interval":
        return make_ivl(path, records)
    common = {"markers": {1: "phase"}, "field_mask": MASK_ALL_MERGED, "frame_bytes": 512}
    if kind == "slog":
        writer = SlogWriter(
            path, PROFILE, thread_table(), time_range=(0, 24_000_000), **common
        )
    else:
        live = LiveSlogWriter if kind == "live-slog" else LiveIntervalWriter
        writer = live(path, PROFILE, thread_table(), **common)
    with writer:
        for i, record in enumerate(records):
            writer.write(record)
            if kind != "slog" and i % 64 == 63:
                writer.publish(seal=True)
    return path


class TestIndexExtension:
    """There is no index extension: no writer grows a trace file by
    appending to it, so a sidecar covering fewer bytes than its trace is
    ``stale:size`` and rebuilt, and a same-content replace stays fresh."""

    @pytest.mark.parametrize("kind", ["interval", "slog", "live-slog", "live-interval"])
    def test_no_writer_grows_a_file_by_byte_prefix(self, tmp_path, kind):
        """The file written from the first ``k`` records of a stream is
        never a byte prefix of the file written from all of it — for ``k``
        of one record, one on the first frame boundary, mid-stream and one
        short of the whole.  A SLOG's metadata (frame count, frame index,
        preview) comes first, and an interval file back-patches its last
        directory as it grows.  A live container's virtual file does grow
        by prefix, but its writer republishes the whole index with every
        epoch, so nothing needs to extend one either."""
        records = _records()
        full = _write_stream(kind, tmp_path / f"full.{kind}", records).read_bytes()
        with open_trace(tmp_path / f"full.{kind}", PROFILE) as handle:
            boundary = handle.frames[0].n_records
        assert 1 < boundary < len(records) // 2
        for k in (1, boundary, 37, 100, len(records) - 1):
            part = _write_stream(kind, tmp_path / f"k{k}.{kind}", records[:k])
            data = part.read_bytes()
            assert len(data) < len(full) and not full.startswith(data), k

    def test_same_content_replace_skips_rebuild(self, indexed_ivl):
        """An atomic same-bytes replace bumps the mtime only; the sidecar
        stays fresh and the build path does no work at all."""
        from repro.core.atomicio import atomic_write_bytes
        from repro.repository import Repository

        sidecar = index_path_for(indexed_ivl)
        before = sidecar.stat().st_mtime_ns
        os.utime(
            indexed_ivl, ns=(before + 2_000_000_000, before + 2_000_000_000)
        )
        atomic_write_bytes(indexed_ivl, indexed_ivl.read_bytes())
        _, reason = load_fresh_index(indexed_ivl)
        assert reason == "fresh"

        repo = Repository(None, build_indexes=True)
        dataset = repo.attach("same", indexed_ivl)
        assert dataset.index_status == "ready"
        repo._build_index(dataset)
        assert sidecar.stat().st_mtime_ns == before  # never rewritten


def test_a_grown_trace_decodes_its_sidecar_once(ivl, monkeypatch):
    """The sidecar of a shorter version of the trace (its first two frames,
    stamped with the size and hash of the bytes they cover) reads
    ``stale:size`` from a single decode, and the repository replaces it
    with what ``build_index`` writes for the whole file."""
    import dataclasses
    import hashlib

    from repro.query import indexfile
    from repro.repository import Repository

    with open_trace(ivl, PROFILE) as handle:
        full = build_index(handle).encode()
        handle.frames = handle.frames[:2]
        base = build_index(handle)
    size = base.frames[-1].offset + base.frames[-1].size
    write_index(
        dataclasses.replace(
            base, source_size=size,
            source_sha256=hashlib.sha256(ivl.read_bytes()[:size]).digest(),
        ),
        index_path_for(ivl),
    )
    decodes = []
    load_index = indexfile.load_index
    monkeypatch.setattr(
        indexfile, "load_index", lambda path: decodes.append(path) or load_index(path)
    )
    assert load_fresh_index(ivl) == (None, "stale:size") and len(decodes) == 1
    repo = Repository(None, build_indexes=True)
    dataset = repo.attach("grown", ivl)
    repo._build_index(dataset)
    assert dataset.index_status == "ready"
    assert index_path_for(ivl).read_bytes() == full
