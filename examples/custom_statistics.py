#!/usr/bin/env python
"""Custom statistics: the declarative table language on a stencil run.

Shows the section 3.2 workflow with user-written table programs — including
the paper's own example program (average duration per (node, cpu) for
intervals starting in the first 2 seconds), message accounting via the
Figure 5 field (msgSizeSent), and a per-bin communication profile.

Run:  python examples/custom_statistics.py [output-dir]
"""

import sys
from pathlib import Path

from repro.core import IntervalReader, standard_profile
from repro.core.records import IntervalType
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.query.columnar import batch_from_records
from repro.utils.stats import generate_tables
from repro.workloads import run_stencil
from repro.workloads.stencil import StencilConfig

#: The example program from paper section 3.2, verbatim in structure.
PAPER_EXAMPLE = """
table name=sample condition=(start < 2)
      x=("node", node)
      x=("processor", cpu)
      y=("avg(duration)", dura, avg)
"""

CUSTOM_PROGRAM = """
table name=mpi_time_by_task
      condition=(type >= 1 and type < 100)
      x=("node", node)
      x=("thread", thread)
      y=("mpi seconds", dura, sum)
      y=("mpi intervals", dura, count)
      y=("max interval", dura, max)
table name=message_sizes
      condition=(msgSizeSent > 0)
      x=("size", msgSizeSent)
      y=("count", msgSizeSent, count)
table name=comm_profile
      condition=(type >= 1 and type < 100)
      x=("bin", bin(start, 0, 1, 20))
      y=("comm seconds", dura, sum)
"""


def main(out_dir: str = "stats-out") -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    profile = standard_profile()
    run = run_stencil(out / "raw", StencilConfig(iterations=6))
    result = convert_traces(run.raw_paths, out / "intervals")
    merge_interval_files(result.interval_paths, out / "merged.ute", profile)
    reader = IntervalReader(out / "merged.ute", profile)
    records = [r for r in reader.intervals() if r.itype != IntervalType.CLOCKPAIR]
    total_s = reader.totals()[2] / 1e9
    print(f"{len(records)} records over {total_s:.4f}s\n")

    print("--- the paper's own example program ---")
    (table,) = generate_tables([batch_from_records(records)], PAPER_EXAMPLE)
    print(table.to_tsv())

    print("--- custom tables ---")
    program = CUSTOM_PROGRAM.replace("bin(start, 0, 1, 20)",
                                     f"bin(start, 0, {total_s!r}, 20)")
    for table in generate_tables([batch_from_records(records)], program):
        path = table.write(out / f"{table.name}.tsv")
        print(f"[{table.name}] -> {path}")
        print(table.to_tsv())


if __name__ == "__main__":
    main(*sys.argv[1:2])
