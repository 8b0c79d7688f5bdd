"""Figure 6: the statistics viewer's pre-defined table.

The paper's Figure 6 visualizes a pre-defined statistics table — the sum of
the duration of *interesting* intervals (states other than Running) per
node and per 50 equally sized time bins — and reads program phases off it:
busy initialization, a quieter middle with bursts, and a busy termination.

Reproduced on the FLASH-shaped run: the same table via the declarative
statistics language, its SVG rendering, and the phase-structure claims
checked numerically.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import report
from repro.core.reader import IntervalReader
from repro.query.columnar import batch_from_records
from repro.utils.stats import predefined_tables
from repro.viz.statviewer import render_binned_table_svg


def test_figure6_statistics_table(benchmark, flash_pipeline, profile):
    reader = IntervalReader(flash_pipeline["merge"].merged_path, profile)
    records = list(reader.intervals())
    total_s = reader.totals()[2] / 1e9
    batches = [batch_from_records(records)]

    tables = benchmark(
        lambda: predefined_tables(batches, total_seconds=total_s)
    )
    binned = next(t for t in tables if t.name == "interesting_by_node_bin")
    out_svg = render_binned_table_svg(
        binned, flash_pipeline["out"] / "figure6.svg", total_seconds=total_s
    )
    out_tsv = binned.write(flash_pipeline["out"] / "figure6.tsv")

    # Collapse nodes: interesting duration per bin.
    nodes = sorted({k[0] for k in binned.rows})
    per_bin = np.zeros(50)
    for (node, b), (value,) in binned.rows.items():
        per_bin[b] += value

    # The Figure 6 reading: init and termination are busy, the middle is
    # mostly quiet with isolated bursts.
    head = per_bin[:4].mean()
    tail = per_bin[-4:].mean()
    middle = per_bin[8:42]
    quiet = float(np.median(middle))
    assert head > 10 * max(quiet, 1e-9), "initialization phase not visible"
    assert tail > 10 * max(quiet, 1e-9), "termination phase not visible"
    bursts = int((middle > 5 * max(quiet, 1e-9)).sum())
    assert bursts >= 2, "refinement/checkpoint bursts not visible"

    sparkline = "".join(
        " .:-=+*#%@"[min(int(v / per_bin.max() * 9), 9)] if per_bin.max() else " "
        for v in per_bin
    )
    report(
        "", "FIGURE 6 — sum of interesting-interval duration per node per 50 bins",
        "paper: phases visible — busy start, quiet middle with bursts, busy end",
        f"  nodes: {nodes}, run {total_s:.3f}s, table -> {out_tsv}, viewer -> {out_svg}",
        f"  per-bin activity: |{sparkline}|",
        f"  init mean {head:.4f}s, middle median {quiet:.6f}s, term mean {tail:.4f}s, "
        f"bursts in middle: {bursts}",
    )


def test_paper_example_program(benchmark, flash_pipeline, profile):
    """The verbatim section 3.2 example: avg duration per (node, cpu) for
    intervals starting in the first 2 seconds."""
    from repro.utils.stats import generate_tables

    reader = IntervalReader(flash_pipeline["merge"].merged_path, profile)
    records = list(reader.intervals())
    program = """
    table name=sample condition=(start < 2)
          x=("node", node) x=("processor", cpu)
          y=("avg(duration)", dura, avg)
    """
    batches = [batch_from_records(records)]
    (table,) = benchmark(lambda: generate_tables(batches, program))
    assert table.name == "sample"
    assert table.x_labels == ("node", "processor")
    assert len(table.rows) >= 4  # at least one row per node
    report(
        "", "SECTION 3.2 example program output (first rows):",
        *["  " + line for line in table.to_tsv().splitlines()[:6]],
    )
