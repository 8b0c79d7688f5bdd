"""Render-path golden digests
(``PYTHONPATH=src python tests/data/generate_view_golden.py [OUT.json [WORKDIR]]``;
the exact-path set goes to ``OUT.frames.json``).

Every byte the display path hands a user — the SVG of all six view kinds,
the ``/api/utilization`` JSON payload and the interactive page's
``view_payload`` — is produced over four fixed fixtures and hashed:

* ``good.slog`` — the corpus file (sparse: every view is exact);
* ``sppm.slog`` — a traced, converted, merged sPPM run (arrows, nested
  states, markers);
* ``states.slog`` — a synthetic SLOG dense enough for the aggregate path
  whose bins are dominated by *twelve* distinct states, so the legend runs
  past the eight palette slots into the shared "Other" gray and ``Running``
  keeps its own colour (dense-row paths group by colour, not by state);
* ``wide.slog`` — a 128-lane bigtrace (the benchmark's shape).

``view_golden.json`` holds the digests as produced by the commit *before*
the aggregate answer, the heat bars and the SVG numbers became columns;
``tests/test_view_golden.py`` reproduces them with the current code and
requires the same bytes.  Only entry points present on both sides of that
change are used.  WORKDIR additionally receives every hashed output as
``out/<key>.txt``, so two runs can be diffed.

``view_frames_golden.json`` (:func:`build_frames`) is the second set, over
the same fixtures, generated at the commit before the *exact* path became
columns, with ``sppm-frames.slog`` (the sPPM merge in ~1 kB frames) as a
fifth: ``view_svg_at`` frame displays (six kinds x first / middle / last
frame x two widths), ``TraceSession.frame_payload(i, view=kind)``, windows
that straddle two and three frames, and one window chosen so that a row
holds more than ``_BATCH_BARS`` bars of which fewer than ten are on screen
(a row is dense by what was read, not by what is visible).
``tests/test_view_frames_golden.py`` reproduces it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from repro import cli
from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.query import build_index, open_trace
from repro.query.utilization import utilization_payload
from repro.serve import TraceSession
from repro.utils.slog import SlogWriter
from repro.viz.interactive import view_payload
from repro.viz.jumpshot import VIEW_KINDS, Jumpshot
from repro.viz.views import utilization_view
from repro.workloads import write_big_slog

DATA_DIR = Path(__file__).resolve().parent
GOLDEN = DATA_DIR / "view_golden.json"
FRAMES_GOLDEN = DATA_DIR / "view_frames_golden.json"

#: Window width as a share of the run, centred off the middle so both
#: edges cut bins.
SHARES = (1, 0.5, 0.05, 0.002)
CENTRE = 0.43
WIDTHS = (1100, 640)
BINS = (16, 64, 192, 512)
N_STATES = 12


def make_sppm(work: Path) -> Path:
    """trace -> convert -> slogmerge of one sPPM iteration."""
    raw, ivl = work / "sppm-raw", work / "sppm-ivl"
    slog = work / "sppm.slog"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main_trace(["sppm", "-o", str(raw), "--iterations", "1"]) == 0
        raws = sorted(str(p) for p in raw.glob("*.raw"))
        assert cli.main_convert([*raws, "-o", str(ivl)]) == 0
        utes = sorted(str(p) for p in ivl.glob("*.ute") if p.name != "profile.ute")
        assert cli.main_slogmerge(
            [*utes, "-o", str(work / "sppm.ute"), "--slog", str(slog)]
        ) == 0
    return slog


def make_states(path: Path) -> Path:
    """2 nodes x 3 threads, 6 000 records: each thread walks through
    :data:`N_STATES` MPI states in blocks (so every stretch of bins has its
    own dominant state), with ``Running`` stretches and marker regions that
    stay open across other records."""
    table = ThreadTable(
        [
            ThreadEntry(n * 3 + t, 100 + n, 5000 + n * 3 + t, n, t, 0, f"n{n}t{t}")
            for n in range(2) for t in range(3)
        ]
    )
    records = []
    for n in range(2):
        for t in range(3):
            clock = 1_000 * (n * 3 + t)
            for i in range(1_000):
                block = (i // 40 + n + 2 * t) % (N_STATES + 1)
                bebits = BeBits.COMPLETE
                if i % 50 in (10, 30):
                    # A marker region held open over twenty records: the
                    # connected view draws those one level in.
                    itype, extra = IntervalType.MARKER, {"markerId": 1 + t % 2}
                    bebits = BeBits.BEGIN if i % 50 == 10 else BeBits.END
                elif block == N_STATES:
                    itype, extra = IntervalType.RUNNING, {}
                else:
                    itype, extra = IntervalType.for_mpi_fn(block), {}
                dura = 3_000 + (i * 7_919 + t * 104_729) % 9_000
                records.append(
                    IntervalRecord(itype, bebits, clock, dura, n, t % 2, t, extra)
                )
                clock += dura + (i * 31) % 2_000
    writer = SlogWriter(
        path, standard_profile(), table, markers={1: "phase-a", 2: "phase-b"},
        node_cpus={0: 2, 1: 2}, field_mask=MASK_ALL_MERGED, frame_bytes=8192,
        time_range=(0, max(r.end for r in records)),
    )
    for record in sorted(records, key=lambda r: r.end):
        writer.write(record)
    writer.close()
    return path


def build_fixtures(work: Path) -> dict[str, Path]:
    work.mkdir(parents=True, exist_ok=True)
    return {
        "good.slog": DATA_DIR / "good.slog",
        "sppm.slog": make_sppm(work),
        "states.slog": make_states(work / "states.slog"),
        "wide.slog": write_big_slog(
            work / "wide.slog", n_nodes=4, threads_per_node=32, n_records=20_000,
            frame_bytes=13_000, seed=1,
        ).path,
    }


def frame_fixtures(work: Path) -> dict[str, Path]:
    """:func:`build_fixtures` plus ``sppm-frames.slog``: the same sPPM merge
    cut into ~1 kB frames, so arrows, nested states and marker regions
    cross frame boundaries."""
    fixtures = build_fixtures(work)
    slog = work / "sppm-frames.slog"
    utes = sorted(str(p) for p in (work / "sppm-ivl").glob("*.ute") if p.name != "profile.ute")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main_slogmerge(
            [*utes, "-o", str(work / "sppm-frames.ute"), "--slog", str(slog),
             "--frame-bytes", "1024"]
        ) == 0
    return {**fixtures, "sppm-frames.slog": slog}


def windows(index) -> dict[str, tuple[int, int]]:
    """``{share label: (t0, t1)}`` in ticks."""
    span = index.t_max - index.t_min
    out = {}
    for share in SHARES:
        if share == 1:
            out["1"] = (index.t_min, index.t_max)
            continue
        half = span * share / 2
        centre = index.t_min + span * CENTRE
        out[str(share)] = (int(centre - half), int(centre + half))
    return out


def outputs_for(name: str, path: Path) -> dict[str, str]:
    profile = standard_profile()
    with open_trace(path, profile) as handle:
        index = build_index(handle)
    util = index.utilization
    outputs: dict[str, str] = {}
    with Jumpshot(path) as viewer:
        tps = viewer.slog.ticks_per_sec
        for label, (t0, t1) in windows(index).items():
            for kind in VIEW_KINDS:
                for width in WIDTHS:
                    svg = viewer.view_svg_window(
                        t0 / tps, t1 / tps, kind=kind, width=width, index=index
                    )
                    path_taken = "aggregate" if viewer.last_view_aggregate else "exact"
                    outputs[f"{name}/svg/{kind}/{label}/{width}"] = f"{path_taken}\n{svg}"
            for lane in ("thread", "cpu"):
                for bins in BINS:
                    payload = utilization_payload(
                        util, lane, (t0, t1), bins, tps, profile.record_name
                    )
                    outputs[f"{name}/utilization/{lane}/{label}/{bins}"] = json.dumps(payload)
        aggregate = utilization_view(
            util, "thread", viewer.slog.thread_table, profile.record_name,
            window=windows(index)["0.5"], max_bins=192,
        )
        outputs[f"{name}/view_payload/aggregate"] = json.dumps(
            view_payload(aggregate, ticks_per_sec=tps)
        )
        frame = viewer.slog.frames[len(viewer.slog.frames) // 2]
        exact = viewer.build_view(viewer.batch([frame]), "thread-connected")
        outputs[f"{name}/view_payload/exact"] = json.dumps(
            view_payload(exact, ticks_per_sec=tps)
        )
    return outputs


def frame_outputs_for(name: str, path: Path) -> dict[str, str]:
    """The exact path's outputs over one fixture (no index: nothing here
    may answer from aggregates)."""
    outputs: dict[str, str] = {}
    with Jumpshot(path) as viewer:
        tps = viewer.slog.ticks_per_sec
        frames = viewer.slog.frames
        picks = {"first": 0, "middle": len(frames) // 2, "last": len(frames) - 1}

        def middle_of(i: int) -> int:
            return (frames[i].start_time + frames[i].end_time) // 2

        for where, i in picks.items():
            for kind in VIEW_KINDS:
                for width in WIDTHS:
                    outputs[f"{name}/frame_svg/{kind}/{where}/{width}"] = viewer.view_svg_at(
                        middle_of(i) / tps, kind=kind, width=width
                    )
        # From the middle of one frame to the middle of the next (and of the
        # one after): every kind over the records of two and three frames.
        k = min(picks["middle"], len(frames) - 3)
        for n_frames in (2, 3) if k >= 0 else ():
            w0, w1 = middle_of(k), middle_of(k + n_frames - 1)
            assert sum(f.end_time > w0 and f.start_time < w1 for f in frames) >= n_frames
            for kind in VIEW_KINDS:
                outputs[f"{name}/straddle_svg/{kind}/{n_frames}"] = viewer.view_svg_window(
                    w0 / tps, w1 / tps, kind=kind
                )
        if name == "states.slog":
            outputs.update(_crowded_row_outputs(name, viewer))
    session = TraceSession(path)
    try:
        i = session.frame_count() // 2
        for kind in VIEW_KINDS:
            outputs[f"{name}/frame_payload/{kind}"] = json.dumps(
                session.frame_payload(i, view=kind)
            )
    finally:
        session.close()
    return outputs


def _crowded_row_outputs(name: str, viewer: Jumpshot) -> dict[str, str]:
    """A processor view over a sliver of time two frames share: together
    they give a CPU row more bars than the dense-row threshold, the window
    shows fewer than ten of them."""
    k = len(viewer.slog.frames) // 2
    tps = viewer.slog.ticks_per_sec
    centre = (viewer.slog.frames[k + 1].start_time + viewer.slog.frames[k].end_time) // 2
    window = (centre - 4_000, centre + 4_000)
    reading = [
        f for f in viewer.slog.frames if f.end_time > window[0] and f.start_time < window[1]
    ]
    view = viewer.build_view(viewer.batch(reading), "processor", window=window)
    crowded = [
        sum(bar.end >= window[0] and bar.start <= window[1] for bar in row.bars)
        for row in view.rows if len(row.bars) > 48
    ]
    assert crowded and 0 < min(crowded) < 10, crowded
    return {
        f"{name}/crowded_svg/processor/{width}": viewer.view_svg_window(
            window[0] / tps, window[1] / tps, kind="processor", width=width
        )
        for width in WIDTHS
    }


def build(work: Path) -> dict[str, str]:
    """Run everything under ``work``; returns ``{key: sha256}``."""
    return _digests(work, build_fixtures(work), outputs_for)


def build_frames(work: Path) -> dict[str, str]:
    """The exact-path set under ``work``; returns ``{key: sha256}``."""
    return _digests(work, frame_fixtures(work), frame_outputs_for)


def _digests(work: Path, fixtures: dict[str, Path], outputs_of) -> dict[str, str]:
    outputs: dict[str, str] = {}
    for name, path in fixtures.items():
        outputs.update(outputs_of(name, path))
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

    # OUT.json receives the first set, OUT.frames.json the exact-path set
    # (the two pinned files when no OUT is given).
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    frames_out = out.with_suffix(".frames.json") if len(sys.argv) > 1 else FRAMES_GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(sys.argv[2]) if len(sys.argv) > 2 else Path(tmp)
        for path, digests in ((out, build(work)), (frames_out, build_frames(work))):
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
            print(f"{len(digests)} digests -> {path}")
