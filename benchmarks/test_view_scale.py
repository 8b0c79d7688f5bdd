"""The utilization hierarchy stays exact at scale.

On a 100 000-record trace the exactness oracle must stay silent: every
level of the hierarchy equals a direct windowed recompute
(``aggregate_vs_exact``).  The scalability pin beside it (a whole-run view
of 100x the records answers from the aggregate, decodes no frame and takes
at most 2x the small trace's median) is tier-1:
``tests/test_view_parity.py::TestWholeRunViewScale``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import report
from repro.difftool.oracle import OracleReport, _check_aggregate_vs_exact
from repro.query import build_index, index_path_for, open_trace, write_index
from repro.workloads import write_big_slog

N_RECORDS = 100_000


@pytest.fixture(scope="module")
def large(workspace, profile):
    """A 100 000-record trace over 32 lanes, with its sidecar index."""
    path = workspace / "view-scale" / "large.slog"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_big_slog(path, n_nodes=2, threads_per_node=16, n_records=N_RECORDS)
    with open_trace(path, profile) as handle:
        write_index(build_index(handle), index_path_for(path))
    return path


def test_aggregate_vs_exact_oracle_silent_at_scale(large, profile):
    oracle = OracleReport(str(large), "slog")
    _check_aggregate_vs_exact(oracle, large, profile)
    assert oracle.ok, oracle.summary()
    report(
        f"aggregate_vs_exact oracle at {N_RECORDS} records: "
        f"{len(oracle.findings)} findings"
    )
