"""Merge determinism and the merge CLI's input checks.

The merge is serial and deterministic — records with equal adjusted end
times order by (input-file index, record ordinal).
"""

import pytest

from repro.core import IntervalFileWriter, IntervalReader, standard_profile
from repro.core.fields import MASK_ALL_PER_NODE
from repro.core.profilefmt import Profile
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.errors import MergeError

PROFILE = standard_profile()


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """A small multi-node synthetic run's raw trace files."""
    from repro.workloads import run_synthetic
    from repro.workloads.synthetic import SyntheticConfig

    out = tmp_path_factory.mktemp("run")
    run = run_synthetic(out, SyntheticConfig(rounds=12))
    assert len(run.raw_paths) > 1
    return run


class TestMergeDeterminism:
    @pytest.fixture(scope="class")
    def intervals(self, traced_run, tmp_path_factory):
        out = tmp_path_factory.mktemp("ivl")
        result = convert_traces(traced_run.raw_paths, out)
        return result

    def test_byte_identical_across_runs(self, intervals, tmp_path):
        profile = Profile.read(intervals.profile_path)
        outputs = []
        for name in ("a", "b"):
            merged = tmp_path / f"{name}.ute"
            slog = tmp_path / f"{name}.slog"
            merge_interval_files(
                intervals.interval_paths, merged, profile, slog_path=slog,
            )
            outputs.append((merged.read_bytes(), slog.read_bytes()))
        assert outputs[1] == outputs[0]

    def test_equal_end_times_order_by_file_index(self, tmp_path):
        """Records tying on adjusted end time come out grouped by input-file
        position, each file's records in ordinal order."""

        def write_input(name, node):
            table = ThreadTable([ThreadEntry(0, 1, 1, node, 0, 0, "t")])
            path = tmp_path / name
            with IntervalFileWriter(
                path, PROFILE, table, field_mask=MASK_ALL_PER_NODE,
            ) as writer:
                for i in range(8):
                    # Identical times in both files: every record ties.
                    writer.write(
                        IntervalRecord(
                            IntervalType.RUNNING, BeBits.COMPLETE,
                            i * 100, 50, node, 0, 0,
                        )
                    )
            return path

        first = write_input("n0.ute", 0)
        second = write_input("n1.ute", 1)
        merged = tmp_path / "tie.ute"
        merge_interval_files([first, second], merged, PROFILE)
        with IntervalReader(merged, PROFILE) as reader:
            nodes = [r.node for r in reader.intervals()]
        assert nodes == [0, 1] * 8  # at each end time: file 0, then file 1

        # Reversing the input list reverses the tie order — the file
        # *position* decides, not the path or node id.
        merged_rev = tmp_path / "tie-rev.ute"
        merge_interval_files([second, first], merged_rev, PROFILE)
        with IntervalReader(merged_rev, PROFILE) as reader:
            nodes = [r.node for r in reader.intervals()]
        assert nodes == [1, 0] * 8

    def test_thread_type_filter_applied_per_file(self, tmp_path):
        """Regression: the thread-category filter must use each file's own
        selection, not the last file's (the old generator-expression bug)."""
        from repro.core.threadtable import THREAD_TYPE_MPI, THREAD_TYPE_SYSTEM

        def write_input(name, node, thread_type):
            table = ThreadTable(
                [ThreadEntry(0, 1, 1, node, 0, thread_type, f"t{node}")]
            )
            path = tmp_path / name
            with IntervalFileWriter(
                path, PROFILE, table, field_mask=MASK_ALL_PER_NODE,
            ) as writer:
                for i in range(4):
                    writer.write(
                        IntervalRecord(
                            IntervalType.RUNNING, BeBits.COMPLETE,
                            i * 100, 50, node, 0, 0,
                        )
                    )
            return path

        # File 0's only thread is MPI-type; file 1's is system-type.  A
        # merge selecting MPI threads must keep file 0's records even
        # though file 1's selection set (the last bound) is empty.
        mpi_file = write_input("mpi.ute", 0, THREAD_TYPE_MPI)
        sys_file = write_input("sys.ute", 1, THREAD_TYPE_SYSTEM)
        merged = tmp_path / "filtered.ute"
        merge_interval_files(
            [mpi_file, sys_file], merged, PROFILE,
            thread_types={THREAD_TYPE_MPI},
        )
        with IntervalReader(merged, PROFILE) as reader:
            nodes = {r.node for r in reader.intervals()}
        assert nodes == {0}

    def test_duplicate_inputs_rejected(self, tmp_path):
        table = ThreadTable([ThreadEntry(0, 1, 1, 0, 0, 0, "t")])
        path = tmp_path / "one.ute"
        with IntervalFileWriter(
            path, PROFILE, table, field_mask=MASK_ALL_PER_NODE
        ) as writer:
            writer.write(
                IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, 0, 50, 0, 0, 0)
            )
        with pytest.raises(MergeError, match="duplicate input"):
            merge_interval_files([path, path], tmp_path / "dup.ute", PROFILE)
        with pytest.raises(MergeError, match="nothing to merge"):
            merge_interval_files([], tmp_path / "none.ute", PROFILE)


class TestMergeCli:
    def test_duplicate_inputs_one_line_error(self, tmp_path, capsys):
        from repro.cli import main_merge

        with pytest.raises(SystemExit) as exc:
            main_merge(["a.ute", "a.ute", "-o", str(tmp_path / "out.ute")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "duplicate input file: a.ute" in err

    def test_slogmerge_duplicate_inputs_rejected(self, tmp_path, capsys):
        from repro.cli import main_slogmerge

        with pytest.raises(SystemExit) as exc:
            main_slogmerge(["b.ute", "b.ute", "-o", str(tmp_path / "out.ute")])
        assert exc.value.code == 2
        assert "duplicate input file: b.ute" in capsys.readouterr().err

    def test_no_inputs_rejected(self, capsys):
        from repro.cli import main_merge

        with pytest.raises(SystemExit) as exc:
            main_merge([])
        assert exc.value.code == 2

    def test_globbed_profile_used_not_merged(self, traced_run, tmp_path, capsys):
        """``ute-merge ivl/*.ute`` sweeps in the convert output's
        profile.ute; the CLI must use it as the profile, not choke on it."""
        from repro.cli import main_merge

        result = convert_traces(traced_run.raw_paths, tmp_path / "ivl")
        inputs = sorted(str(p) for p in (tmp_path / "ivl").glob("*.ute"))
        assert str(result.profile_path) in inputs
        merged = tmp_path / "glob.ute"
        assert main_merge(inputs + ["-o", str(merged)]) == 0
        capsys.readouterr()
        # Identical to merging the interval files with an explicit profile.
        explicit = tmp_path / "explicit.ute"
        merge_interval_files(
            result.interval_paths, explicit, Profile.read(result.profile_path)
        )
        assert merged.read_bytes() == explicit.read_bytes()

    def test_conflicting_profiles_rejected(self, traced_run, tmp_path, capsys):
        from repro.cli import main_merge

        result = convert_traces(traced_run.raw_paths, tmp_path / "ivl")
        other = tmp_path / "other-profile.ute"
        other.write_bytes(result.profile_path.read_bytes())
        inputs = [str(p) for p in result.interval_paths]
        with pytest.raises(SystemExit) as exc:
            main_merge(
                inputs
                + [str(result.profile_path)]
                + ["--profile", str(other), "-o", str(tmp_path / "x.ute")]
            )
        assert exc.value.code == 2
        assert "conflicting profile files" in capsys.readouterr().err
