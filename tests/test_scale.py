"""Scale tests: the 'extremely scalable' claims at larger node/task counts."""

import pytest

from repro.core import IntervalReader, standard_profile
from repro.core.records import IntervalType
from repro.core.threadtable import MAX_THREADS_PER_NODE, ThreadEntry, ThreadTable
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.validate import validate_interval_file
from repro.workloads import run_synthetic
from repro.workloads.synthetic import SyntheticConfig

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """16 tasks across 8 nodes, 3 threads each — a 16-way merge."""
    tmp = tmp_path_factory.mktemp("scale")
    config = SyntheticConfig(n_tasks=16, threads_per_task=3, rounds=15)
    run = run_synthetic(tmp / "raw", config, nodes=8, cpus_per_node=4)
    conv = convert_traces(run.raw_paths, tmp / "ivl")
    merged = merge_interval_files(
        conv.interval_paths, tmp / "m.ute", PROFILE, slog_path=tmp / "r.slog"
    )
    return tmp, run, conv, merged


class TestManyNodes:
    def test_one_file_per_node(self, big_run):
        _, run, conv, _ = big_run
        assert len(run.raw_paths) == 8
        assert len(conv.interval_paths) == 8

    def test_merged_covers_all_tasks(self, big_run):
        _, _, _, merged = big_run
        reader = IntervalReader(merged.merged_path, PROFILE)
        tasks = {e.mpi_task for e in reader.thread_table if e.mpi_task >= 0}
        assert tasks == set(range(16))

    def test_merged_ordering_at_k16(self, big_run):
        _, _, _, merged = big_run
        reader = IntervalReader(merged.merged_path, PROFILE)
        ends = [r.end for r in reader.intervals()]
        assert ends == sorted(ends)
        assert len(ends) > 1000

    def test_merged_file_validates(self, big_run):
        _, _, _, merged = big_run
        report = validate_interval_file(merged.merged_path, PROFILE)
        assert report.ok, report.summary()

    def test_all_nodes_clock_adjusted_independently(self, big_run):
        _, _, _, merged = big_run
        ratios = [a.ratio for a in merged.adjustments]
        assert len(ratios) == 8
        assert len(set(ratios)) == 8  # each node's drift differs

    def test_views_handle_sixteen_tasks(self, big_run):
        from repro.viz.jumpshot import Jumpshot

        tmp, _, _, merged = big_run
        viewer = Jumpshot(merged.slog_path)
        view = viewer.build_view(viewer.batch(viewer.slog.frames), "thread")
        # 16 tasks x 3 threads = 48 timelines.
        assert len(view.rows) == 48
        assert len(viewer.view_svg_window(None, None, kind="thread")) > 10_000


class TestThreadTableCapacity:
    def test_paper_scale_thread_count(self):
        """The format claim: 512 threads/node x thousands of nodes supports
        millions of threads.  Exercise a slice of that space."""
        table = ThreadTable()
        for node in range(16):
            for ltid in range(MAX_THREADS_PER_NODE):
                table.add(ThreadEntry(-1, 1, node * 10_000 + ltid, node, ltid, 1))
        assert len(table) == 16 * 512
        encoded = table.encode()
        decoded, _ = ThreadTable.decode(encoded, 0, len(table))
        assert len(decoded) == len(table)
        assert decoded.lookup(11, 317).system_tid == 11 * 10_000 + 317
