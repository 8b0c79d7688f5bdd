"""Read-path golden digests
(``PYTHONPATH=src python tests/data/generate_scan_golden.py [OUT.json [WORKDIR]]``).

Every output a windowed read produces for a user — ``ute-query`` TSV / JSON
(indexed and ``--no-index``) and its ``--explain`` stderr, ``ute-stats
--json --window``, ``ute-profile --window``, and the daemon's ``/query``,
``/stats``, ``/view`` and ``/utilization`` bodies with their
``X-UTE-Bytes-Read`` header — is produced over two fixed fixtures (a
multi-frame ``.ute`` and a bigtrace ``.slog``, each with a fresh sidecar)
and hashed.  ``scan_golden.json`` was produced by the commit *before* the
eight resolve → open → plan → run recipes became callers of one
``repro.query.scan`` and regenerated once since, when the ``executor``
option went: every output was shown equal to its predecessor after deleting
``"executor": "columnar"`` / `` (columnar executor)`` (and the two ``io``
keys ``/stats`` gained) — CHANGES.md, ISSUE 21.  ``tests/test_scan.py``
re-runs this script with the current code and requires the same bytes.  WORKDIR additionally receives every
hashed output as ``out/<key>.txt``, so two runs can be diffed.

Not pinned: the ``plan:   <step>`` lines of ``--explain`` (the local
printer showed the step tuple's repr; it now prints ``step -> remaining``
like the remote one) — they are filtered out before hashing.

The CLI runs with WORKDIR as the current directory and relative paths, so
the ``file`` fields are stable; the HTTP requests go to one fresh
``ServerThread`` in one fixed order, because the ``io`` block of each answer
depends on what the frame cache already holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import urllib.parse
import urllib.request
from pathlib import Path

from repro import cli
from repro.core import IntervalFileWriter, standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.serve.app import ServerThread
from repro.workloads import write_big_slog

DATA_DIR = Path(__file__).resolve().parent
GOLDEN = DATA_DIR / "scan_golden.json"

#: Seconds; both fixtures tick at 1 GHz and span about 24 ms.
WINDOW = "0.008:0.016"
#: A window past the end of both fixtures.
WINDOW_NOTHING = "5:6"
PROGRAM = (
    'table name=by_node_type x=("node", node) x=("type", type) '
    'y=("count", dura, count) y=("busy", dura, sum)'
)


def make_ivl(path: Path) -> Path:
    """A deterministic interval file: 3 nodes x 2 threads, two record
    types, 240 records in ~40 frames with disjoint time ranges."""
    table = ThreadTable(
        [
            ThreadEntry(n * 2 + t, 100 + n, 5000 + n * 10 + t, n, t, 0, f"n{n}t{t}")
            for n in range(3)
            for t in range(2)
        ]
    )
    with IntervalFileWriter(
        path, standard_profile(), table, field_mask=MASK_ALL_MERGED,
        markers={1: "phase"}, frame_bytes=512,
    ) as writer:
        for i in range(240):
            marker = i % 5 == 0
            writer.write(
                IntervalRecord(
                    IntervalType.MARKER if marker else IntervalType.RUNNING,
                    BeBits.COMPLETE, i * 100_000, 60_000, i % 3, 0, i % 2,
                    {"markerId": 1} if marker else {},
                )
            )
    return path


def make_slog(path: Path) -> Path:
    """A deterministic SLOG: 2 nodes x 4 threads, 3000 records, 4 KiB frames."""
    write_big_slog(
        path, n_nodes=2, threads_per_node=4, n_records=3000, cpus_per_node=4,
        frame_bytes=4096,
    )
    return path


def build_fixtures(work: Path) -> tuple[Path, Path]:
    """``(x.ute, x.slog)`` under ``work``, each with a fresh sidecar."""
    ivl, slog = make_ivl(work / "x.ute"), make_slog(work / "x.slog")
    for path in (ivl, slog):
        assert run_cli(cli.main_query, [str(path), "--build-index"])[0] == 0
    return ivl, slog


def run_cli(fn, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    return code, out.getvalue(), err.getvalue()


def explain_without_steps(stderr: str) -> str:
    return "".join(
        line for line in stderr.splitlines(keepends=True)
        if not line.startswith("plan:   ")
    )


def cli_outputs() -> dict[str, str]:
    """CLI stdout (and ``--explain`` stderr) keyed by a stable name; run
    from the fixture directory."""
    outputs: dict[str, str] = {}

    def record(key: str, fn, argv: list[str], *, explain: bool = False) -> None:
        code, out, err = run_cli(fn, argv)
        assert code == 0, (key, code, err)
        outputs[key] = out
        if explain:
            outputs[key + ".explain"] = explain_without_steps(err)

    grouped = ["--group-by", "node,type", "--agg", "count", "--agg", "sum:dura"]
    for trace in ("x.ute", "x.slog"):
        for label, extra in (("indexed", []), ("no-index", ["--no-index"])):
            base = f"ute-query/{trace}/{label}"
            record(f"{base}/window.tsv", cli.main_query,
                   [trace, "--window", WINDOW, "--explain", *extra], explain=True)
            record(f"{base}/window.json", cli.main_query,
                   [trace, "--window", WINDOW, "--format", "json", *extra])
            record(f"{base}/grouped.tsv", cli.main_query,
                   [trace, "--window", WINDOW, *grouped, "--explain", *extra],
                   explain=True)
            record(f"{base}/filtered.json", cli.main_query,
                   [trace, "--thread", "1:1", "--node", "1", "--type", "Marker",
                    "--select", "start,dura,markerId", "--limit", "7",
                    "--format", "json", "--explain", *extra], explain=True)
            record(f"{base}/nothing.tsv", cli.main_query,
                   [trace, "--window", WINDOW_NOTHING, "--explain", *extra],
                   explain=True)
        record(f"ute-stats/{trace}/window.json", cli.main_stats,
               [trace, "--json", "--window", WINDOW])
        record(f"ute-profile/{trace}/window", cli.main_profile,
               [trace, "--window", WINDOW])
        record(f"ute-profile/{trace}/whole", cli.main_profile,
               [trace, "--include-running"])
    record("ute-stats/both/window.json", cli.main_stats,
           ["x.ute", "x.slog", "--json", "--window", ":0.01"])
    return outputs


def serve_outputs(slog: Path) -> dict[str, str]:
    """HTTP bodies (plus the bytes-read header) of one fixed request
    sequence against a fresh server over ``slog``."""
    quote = urllib.parse.quote
    requests = [
        ("view.cold", "view/thread-connected?t=0.002"),
        ("query.json", f"query?window={WINDOW}&group_by=node,type&agg=count,sum:dura"),
        ("query.tsv", f"query?window={WINDOW}&thread=1:1&limit=9&format=tsv"),
        ("stats.json", f"stats?format=json&window={WINDOW}&table={quote(PROGRAM)}"),
        ("stats.tsv", f"stats?table={quote(PROGRAM)}"),
        ("view.t", "view/thread?t=0.012"),
        ("view.window", f"view/thread?window={WINDOW}"),
        ("view.narrow", "view/processor?window=0.0100:0.0104&width=600"),
        ("utilization.window", f"utilization?window={WINDOW}&bins=32"),
        ("utilization.cpu", "utilization?lane=cpu"),
        ("query.nothing.json", f"query?window={WINDOW_NOTHING}"),
    ]
    outputs: dict[str, str] = {}
    with ServerThread(slog) as server:
        for key, path in requests:
            url = f"{server.base_url}/api/d/default/{path}"
            with urllib.request.urlopen(url) as response:
                body = response.read().decode()
                read = response.headers.get("X-UTE-Bytes-Read")
            outputs[f"serve/{key}"] = f"X-UTE-Bytes-Read: {read}\n{body}"
    return outputs


def build(work: Path) -> dict[str, str]:
    """Run everything under ``work``; returns ``{key: sha256}``."""
    work.mkdir(parents=True, exist_ok=True)
    _, slog = build_fixtures(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        outputs = cli_outputs()
    finally:
        os.chdir(cwd)
    outputs.update(serve_outputs(slog))
    for key, text in outputs.items():
        dump = work / "out" / (key.replace("/", "__") + ".txt")
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(text)
    return {
        key: hashlib.sha256(text.encode()).hexdigest()
        for key, text in sorted(outputs.items())
    }


if __name__ == "__main__":
    import tempfile

    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        digests = build(Path(sys.argv[2]) if len(sys.argv) > 2 else Path(tmp))
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {out}")
