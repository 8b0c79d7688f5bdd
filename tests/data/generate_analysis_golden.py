"""Analysis-path golden digests
(``PYTHONPATH=src python tests/data/generate_analysis_golden.py [OUT.json [WORKDIR]]``).

Every output the read-side analyses hand a user is produced over fixed
traces and hashed:

* ``ute-profile`` stdout over the per-node ``.ute`` files of a synthetic
  run (all of them in one call), their ``merged.ute``, the SLOG of the same
  merge, and the stencil (2 KiB frames, so pseudo-interval leads fold in)
  and ping-pong SLOGs — each plain, with
  ``--include-running``, with ``--window`` (the middle of the run, so the
  window cuts states open) and with both;
* the ``ute-report`` HTML of the ping-pong and stencil SLOGs;
* ``TraceSession.arrows_payload`` of every frame of an sPPM SLOG in 1 KiB
  frames (messages cross frames), of the stencil SLOG (``MPI_Waitall``
  completes receives through its ``seqnos`` vector) and of the ping-pong
  SLOG, as ``json.dumps`` of each file's list of payloads.

``analysis_golden.json`` holds the digests as produced by the commit
*before* spans, the call profile and arrow matching were folded over frame
columns; ``tests/test_analysis_golden.py`` re-runs this script with the
current code in a fresh interpreter and requires the same bytes.  Only
entry points present on both sides of that change are used.  The CLI runs
with WORKDIR as the current directory and relative paths, so file names in
the outputs are stable.  WORKDIR additionally receives every hashed output
as ``out/<key>.txt``, so two runs can be diffed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from repro import cli
from repro.query import open_trace
from repro.serve import TraceSession

DATA_DIR = Path(__file__).resolve().parent
GOLDEN = DATA_DIR / "analysis_golden.json"

#: The share of each run its ``--window`` covers.
WINDOW_SHARE = (0.35, 0.65)


def run_cli(fn, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(argv)
    assert code == 0, (argv, code, err.getvalue())
    return out.getvalue()


def traced(workload: str, name: str, *extra: str, frame_bytes: int = 32768) -> list[str]:
    """trace -> convert -> slogmerge of one built-in workload, in the
    current directory: ``<name>.slog`` and ``<name>.ute`` (the merge, cut
    into ``frame_bytes`` frames), and the per-node interval files, which
    are returned."""
    run_cli(cli.main_trace, [workload, "-o", f"{name}-raw", *extra])
    raws = sorted(str(p) for p in Path(f"{name}-raw").glob("*.raw"))
    run_cli(cli.main_convert, [*raws, "-o", f"{name}-ivl"])
    utes = sorted(
        str(p) for p in Path(f"{name}-ivl").glob("*.ute") if p.name != "profile.ute"
    )
    run_cli(cli.main_slogmerge, [
        *utes, "-o", f"{name}.ute", "--slog", f"{name}.slog",
        "--frame-bytes", str(frame_bytes),
    ])
    return utes


def window_of(path: str) -> str:
    """``--window`` text for the middle of the run in ``path``."""
    with open_trace(path, None) as handle:
        t0 = min(f.start_time for f in handle.frames)
        t1 = max(f.end_time for f in handle.frames)
        tps = handle.ticks_per_sec
    lo, hi = (t0 + (t1 - t0) * share for share in WINDOW_SHARE)
    return f"{lo / tps!r}:{hi / tps!r}"


def outputs() -> dict[str, str]:
    """Every hashed output, keyed by a stable name; run from WORKDIR."""
    smoke = traced("synthetic", "smoke", "--rounds", "10")
    traced("stencil", "stencil", frame_bytes=2048)
    traced("pingpong", "pingpong")
    traced("sppm", "sppm", "--iterations", "1", frame_bytes=1024)
    run_cli(cli.main_merge, [*smoke, "-o", "merged.ute"])

    out: dict[str, str] = {}
    inputs = {
        "smoke": smoke,
        "merged.ute": ["merged.ute"],
        "run.slog": ["smoke.slog"],
        "stencil.slog": ["stencil.slog"],
        "pingpong.slog": ["pingpong.slog"],
    }
    for name, paths in inputs.items():
        window = ["--window", window_of(paths[0])]
        running = ["--include-running"]
        for label, extra in (
            ("plain", []), ("running", running), ("window", window),
            ("window+running", window + running),
        ):
            out[f"ute-profile/{name}/{label}"] = run_cli(
                cli.main_profile, [*paths, *extra]
            )
    for name in ("pingpong", "stencil"):
        run_cli(cli.main_report, [f"{name}.slog", "-o", f"{name}.html"])
        out[f"ute-report/{name}.html"] = Path(f"{name}.html").read_text()
    for name in ("sppm", "stencil", "pingpong"):
        session = TraceSession(Path(f"{name}.slog"))
        try:
            payloads = [session.arrows_payload(i) for i in range(session.frame_count())]
        finally:
            session.close()
        out[f"arrows_payload/{name}.slog"] = json.dumps(payloads)
    return out


def build(work: Path) -> dict[str, str]:
    """Run everything under ``work``; returns ``{key: sha256}``."""
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        texts = outputs()
    finally:
        os.chdir(cwd)
    for key, text in texts.items():
        dump = work / "out" / (key.replace("/", "__") + ".txt")
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(text)
    return {
        key: hashlib.sha256(text.encode()).hexdigest()
        for key, text in sorted(texts.items())
    }


if __name__ == "__main__":
    import tempfile

    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        digests = build(Path(sys.argv[2]) if len(sys.argv) > 2 else Path(tmp))
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests -> {out}")
