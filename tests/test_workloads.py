"""Tests for the traceable workloads: each runs, traces, and exhibits the
structure its figure depends on."""

import pytest

from repro.core import IntervalReader, standard_profile
from repro.core.records import IntervalType
from repro.core.threadtable import THREAD_TYPE_MPI, THREAD_TYPE_SYSTEM, THREAD_TYPE_USER
from repro.tracing.hooks import MPI_FN_IDS, hook_for_mpi_begin, is_mpi_begin
from repro.tracing.rawfile import RawTraceReader
from repro.utils.convert import convert_traces
from repro.workloads import (
    run_flash,
    run_pingpong,
    run_sppm,
    run_stencil,
    run_synthetic,
)
from repro.workloads.flash import FlashConfig
from repro.workloads.pingpong import PingPongConfig
from repro.workloads.sppm import SppmConfig
from repro.workloads.stencil import StencilConfig
from repro.workloads.synthetic import SyntheticConfig

PROFILE = standard_profile()


class TestPingPong:
    def test_produces_balanced_sends_and_recvs(self, tmp_path):
        run = run_pingpong(tmp_path, PingPongConfig(repeats=3, sizes=(64,)))
        events = [e for p in run.raw_paths for e in RawTraceReader(p)]
        sends = sum(
            1 for e in events if e.hook_id == hook_for_mpi_begin(MPI_FN_IDS["MPI_Send"])
        )
        recvs = sum(
            1 for e in events if e.hook_id == hook_for_mpi_begin(MPI_FN_IDS["MPI_Recv"])
        )
        assert sends == recvs == 6  # 3 repeats x 2 directions

    def test_one_raw_file_per_node(self, tmp_path):
        run = run_pingpong(tmp_path)
        assert len(run.raw_paths) == 2


class TestStencil:
    def test_nonblocking_ops_traced(self, tmp_path):
        run = run_stencil(tmp_path, StencilConfig(iterations=2))
        events = [e for p in run.raw_paths for e in RawTraceReader(p)]
        hooks = {e.hook_id for e in events}
        for fn in ("MPI_Isend", "MPI_Irecv", "MPI_Waitall"):
            assert hook_for_mpi_begin(MPI_FN_IDS[fn]) in hooks

    def test_all_ranks_finish(self, tmp_path):
        run = run_stencil(tmp_path, StencilConfig(iterations=2))
        from repro.cluster.scheduler import ThreadState

        assert all(t.state is ThreadState.DONE for t in run.runtime.main_threads)


class TestSppm:
    @pytest.fixture(scope="class")
    def converted(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sppm")
        run = run_sppm(tmp / "raw", SppmConfig(iterations=2))
        result = convert_traces(run.raw_paths, tmp / "ivl")
        readers = [IntervalReader(p, PROFILE) for p in result.interval_paths]
        return run, result, readers

    def test_thread_categories(self, converted):
        _, _, readers = converted
        for reader in readers:
            table = reader.thread_table
            assert len(table.of_type(THREAD_TYPE_MPI)) == 1
            assert len(table.of_type(THREAD_TYPE_USER)) == 3  # 2 active + idle
            assert len(table.of_type(THREAD_TYPE_SYSTEM)) == 2

    def test_one_idle_user_thread_per_node(self, converted):
        _, _, readers = converted
        for reader in readers:
            busy = {}
            for r in reader.intervals():
                if r.duration > 0:
                    busy[r.thread] = busy.get(r.thread, 0) + r.duration
            user_tids = {e.logical_tid for e in reader.thread_table.of_type(THREAD_TYPE_USER)}
            idle = [t for t in user_tids if busy.get(t, 0) == 0]
            assert len(idle) == 1

    def test_mpi_calls_only_on_mpi_thread(self, converted):
        _, _, readers = converted
        for reader in readers:
            mpi_tid = reader.thread_table.of_type(THREAD_TYPE_MPI)[0].logical_tid
            for r in reader.intervals():
                if IntervalType.is_mpi(r.itype):
                    assert r.thread == mpi_tid

    def test_markers_present(self, converted):
        _, result, _ = converted
        assert set(result.marker_table.values()) == {"sppm:init", "sppm:timestep"}


class TestFlash:
    def test_phase_markers_defined(self, tmp_path):
        run = run_flash(tmp_path, FlashConfig(iterations=10))
        result = convert_traces(run.raw_paths, tmp_path / "ivl")
        assert set(result.marker_table.values()) == {
            "flash:init", "flash:refine", "flash:checkpoint", "flash:termination",
        }

    def test_refinement_happens_on_schedule(self, tmp_path):
        config = FlashConfig(iterations=10, refine_every=5, checkpoint_every=10)
        run = run_flash(tmp_path, config)
        events = [e for p in run.raw_paths for e in RawTraceReader(p)]
        allgathers = sum(
            1 for e in events
            if e.hook_id == hook_for_mpi_begin(MPI_FN_IDS["MPI_Allgather"])
        )
        # 2 refinements x 4 tasks.
        assert allgathers == 2 * config.n_tasks


class TestSynthetic:
    def test_event_count_scales_linearly_with_rounds(self, tmp_path):
        counts = {}
        for rounds in (20, 80):
            run = run_synthetic(
                tmp_path / str(rounds), SyntheticConfig(rounds=rounds)
            )
            counts[rounds] = sum(len(RawTraceReader(p)) for p in run.raw_paths)
        ratio = counts[80] / counts[20]
        assert 3.2 < ratio < 4.8  # linear-ish in rounds

    def test_deterministic(self, tmp_path):
        """Two identical runs produce byte-identical traces."""
        a = run_synthetic(tmp_path / "a", SyntheticConfig(rounds=15))
        b = run_synthetic(tmp_path / "b", SyntheticConfig(rounds=15))
        for pa, pb in zip(a.raw_paths, b.raw_paths):
            ea = [
                (e.hook_id, e.local_ts, e.cpu, e.args, e.text)
                for e in RawTraceReader(pa)
            ]
            eb = [
                (e.hook_id, e.local_ts, e.cpu, e.args, e.text)
                for e in RawTraceReader(pb)
            ]
            assert ea == eb


def test_two_runs_in_one_process_write_the_same_raw_traces(tmp_path):
    """System thread ids are numbered per cluster, so a run's thread table
    (and every byte downstream of it) does not depend on what was
    simulated earlier in the process."""
    config = SyntheticConfig(rounds=5)
    first = run_synthetic(tmp_path / "a", config)
    second = run_synthetic(tmp_path / "b", config)
    assert len(first.raw_paths) == len(second.raw_paths) > 1
    for a, b in zip(first.raw_paths, second.raw_paths):
        assert a.read_bytes() == b.read_bytes()
