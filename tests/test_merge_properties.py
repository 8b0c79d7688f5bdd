"""Property-based tests for the merge utility over random per-node files."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IntervalFileWriter, IntervalReader, standard_profile
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.utils.merge import merge_interval_files
from tests.conftest import max_examples

PROFILE = standard_profile()


@st.composite
def node_file_spec(draw, node_id: int):
    """Random clock parameters and record schedule for one node."""
    offset = draw(st.integers(min_value=0, max_value=5_000_000))
    drift_ppm = draw(st.floats(min_value=-100, max_value=100))
    n_records = draw(st.integers(min_value=1, max_value=40))
    gaps = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=n_records,
            max_size=n_records,
        )
    )
    durations = draw(
        st.lists(
            st.integers(min_value=1, max_value=5_000),
            min_size=n_records,
            max_size=n_records,
        )
    )
    return node_id, offset, drift_ppm, gaps, durations


def build_node_file(tmp_path, spec):
    """Write one node's interval file with clock pairs reflecting its
    drifting clock, returning (path, true-time records)."""
    node_id, offset, drift_ppm, gaps, durations = spec
    rate = 1 + drift_ppm * 1e-6

    def local(true_ns: int) -> int:
        return offset + round(rate * true_ns)

    true_records = []
    t = 0
    for gap, dura in zip(gaps, durations):
        t += gap
        true_records.append((t, dura))
        t += dura
    horizon = t + 1000

    records = []
    # Clock pairs bracket the run (sampler start + stop).
    for g in (0, horizon):
        records.append(
            IntervalRecord(
                IntervalType.CLOCKPAIR, BeBits.COMPLETE, local(g), 0,
                node_id, 0, 0, {"globalTs": g},
            )
        )
    for start, dura in true_records:
        records.append(
            IntervalRecord(
                IntervalType.RUNNING, BeBits.COMPLETE,
                local(start), local(start + dura) - local(start),
                node_id, 0, 0,
            )
        )
    records.sort(key=lambda r: r.end)
    path = tmp_path / f"n{node_id}.ute"
    table = ThreadTable([ThreadEntry(node_id, 1, 100 + node_id, node_id, 0, 0, "t")])
    with IntervalFileWriter(
        path, PROFILE, table, field_mask=MASK_ALL_PER_NODE, frame_bytes=512
    ) as writer:
        for rec in records:
            writer.write(rec)
    return path, true_records


@given(data=st.data(), n_nodes=st.integers(min_value=1, max_value=4))
@settings(max_examples=max_examples(40), deadline=None)
def test_merge_recovers_true_time(tmp_path_factory, data, n_nodes):
    """For any drifting clocks, the merged records land within a couple of
    ticks of the true times, in correct global order."""
    tmp = tmp_path_factory.mktemp("mp")
    paths = []
    truth: dict[int, list[tuple[int, int]]] = {}
    for node_id in range(n_nodes):
        spec = data.draw(node_file_spec(node_id))
        path, true_records = build_node_file(tmp, spec)
        paths.append(path)
        truth[node_id] = true_records

    result = merge_interval_files(paths, tmp / "merged.ute", PROFILE)
    reader = IntervalReader(tmp / "merged.ute", PROFILE)
    merged = list(reader.intervals())

    # Global ordering invariant.
    ends = [r.end for r in merged]
    assert ends == sorted(ends)

    # Per node: adjusted times match the true schedule within rounding.
    by_node: dict[int, list[IntervalRecord]] = {}
    for r in merged:
        by_node.setdefault(r.node, []).append(r)
    for node_id, true_records in truth.items():
        got = sorted(by_node[node_id], key=lambda r: r.start)
        expected = sorted(true_records)
        assert len(got) == len(expected)
        for record, (start, dura) in zip(got, expected):
            assert abs(record.start - start) <= 3
            assert abs(record.end - (start + dura)) <= 3


@given(data=st.data())
@settings(max_examples=max_examples(25), deadline=None)
def test_merge_preserves_record_count_and_local_start(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("mp2")
    spec = data.draw(node_file_spec(0))
    path, true_records = build_node_file(tmp, spec)
    merge_interval_files([path], tmp / "m.ute", PROFILE)
    reader = IntervalReader(tmp / "m.ute", PROFILE)
    merged = list(reader.intervals())
    assert len(merged) == len(true_records)
    # localStart preserves the original (pre-adjustment) timestamps.
    node_id, offset, drift_ppm, *_ = spec
    rate = 1 + drift_ppm * 1e-6
    for record, (start, _dura) in zip(
        sorted(merged, key=lambda r: r.start), sorted(true_records)
    ):
        assert record.extra["localStart"] == offset + round(rate * start)
