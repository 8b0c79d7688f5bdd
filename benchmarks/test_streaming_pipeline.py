"""Streaming pipeline benchmarks.

Exercises the bounded-memory byte sources on a directly written synthetic
trace of >= 500k events across four nodes, converted once:

* frame display cost — fetch accounting proves one frame's display reads
  O(frame) bytes, not O(file);
* streaming merge — byte-identical merged output across runs.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import report
from repro.core import IntervalReader
from repro.core.bytesource import FileSource
from repro.core.frames import FrameDirectory
from repro.core.profilefmt import standard_profile
from repro.tracing.events import RawEvent, global_clock_event
from repro.tracing.hooks import HookId, MPI_FN_IDS, hook_for_mpi_begin, hook_for_mpi_end
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.tracing.rawfile import RawFileHeader, RawTraceWriter

N_NODES = 4
EVENTS_PER_NODE = 125_000  # >= 500k events total
_BARRIER = MPI_FN_IDS["MPI_Barrier"]


def _write_node(path: Path, node: int) -> int:
    """Write one node's synthetic raw trace; returns its event count."""
    events = 0
    with RawTraceWriter(path, RawFileHeader(node, 2, 0), buffer_bytes=1 << 22) as w:
        w.write(global_clock_event(0, node * 3))
        w.write(RawEvent(HookId.THREAD_INFO, 0, 500, 0, (1000, node, 0, 0), "main"))
        w.write(RawEvent(HookId.DISPATCH, 5, 500, 0))
        events += 3
        t = 10
        begin = hook_for_mpi_begin(_BARRIER)
        end = hook_for_mpi_end(_BARRIER)
        while events < EVENTS_PER_NODE - 1:
            w.write(RawEvent(begin, t, 500, 0, (0, 0, events, 0)))
            w.write(RawEvent(end, t + 40, 500, 0))
            events += 2
            t += 100
        w.write(global_clock_event(t, t + node * 3))
        events += 1
    return events


@pytest.fixture(scope="module")
def big_traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("streaming")
    paths = []
    total = 0
    for node in range(N_NODES):
        path = tmp / f"node{node}.raw"
        total += _write_node(path, node)
        paths.append(path)
    assert total >= 500_000
    return {"tmp": tmp, "raw": paths, "events": total}


@pytest.fixture(scope="module")
def converted(big_traces):
    t0 = time.perf_counter()
    result = convert_traces(big_traces["raw"], big_traces["tmp"] / "ivl")
    report(
        "streaming pipeline: convert "
        f"({big_traces['events']} events, {N_NODES} nodes): "
        f"{time.perf_counter() - t0:.2f}s"
    )
    return result


def test_frame_display_reads_o_frame_bytes(converted):
    """Displaying one frame fetches the directory chain plus that frame —
    never the record bytes of any other frame."""
    profile = standard_profile()
    path = converted.interval_paths[0]
    file_size = path.stat().st_size
    with IntervalReader(path, profile, source=FileSource(path)) as reader:
        _, first, last = reader.totals()
        dir_bytes = sum(
            FrameDirectory.encoded_size(d.n_frames) for d in reader.directories()
        )
        frame = reader.find_frame((first + last) // 2)
        assert frame is not None
        reader.source.reset_accounting()
        records = reader.read_frame(frame)
        assert records
        fetched = reader.source.bytes_fetched
    # One frame's display costs at most the directory walk (find_frame) plus
    # the frame itself — O(frame + index), a tiny fraction of the file.
    budget = frame.size + dir_bytes + 4096
    assert fetched <= budget, (fetched, budget)
    assert fetched < file_size / 10, (fetched, file_size)
    report(
        f"  frame display: {fetched} bytes fetched for a {frame.size}-byte frame "
        f"({file_size} byte file)"
    )


def test_streaming_merge_is_deterministic(big_traces, converted):
    tmp = big_traces["tmp"]
    profile = standard_profile()
    inputs = converted.interval_paths

    t0 = time.perf_counter()
    merge_interval_files(inputs, tmp / "m-stream.ute", profile)
    t_merge = time.perf_counter() - t0
    merge_interval_files(inputs, tmp / "m-again.ute", profile)
    assert (tmp / "m-stream.ute").read_bytes() == (tmp / "m-again.ute").read_bytes()
    report(f"  merge ({len(inputs)} files): {t_merge:.2f}s, re-run output identical")
