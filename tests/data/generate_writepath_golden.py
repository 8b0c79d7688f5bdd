"""Write-path golden digests
(``PYTHONPATH=src python tests/data/generate_writepath_golden.py [OUT.json [WORKDIR]]``).

Every artifact the write path produces — per-node interval files, the
merged interval file with and without the SLOG tee, the SLOG built from a
merged file, the live SLOG writer's final file, sidecar and every epoch's
index, and ``ute-recover``'s rewrites of the corpus — is built from one
fixed synthetic run at four frame sizes and hashed.
``writepath_golden.json`` holds the digests as produced by the commit
*before* the writers became sinks of one ``FrameBuilder``;
``tests/test_writepath_golden.py`` rebuilds the artifacts with the current
code and requires the same bytes.  Only public entry points are used, so
the same script runs on either side of that change.  Run it to regenerate
the JSON only when a format change is intended.

Not pinned (``RECUT``): the merge-family artifacts at ``frame_bytes=256``.
This run holds up to 16 states open, so a continuation lead (~1 KB) is
larger than such a frame.  The old batch writers tested the frame size
between the records of a lead and split it over several pseudo-only
frames, leaving the frame with the first real record without its lead;
the live writer never did.  The builder keeps the live behaviour — a lead
sits whole in the frame it leads — so these four files are cut differently
from that commit's, and the test pins them by structure instead.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core import IntervalReader, standard_profile
from repro.core.profilefmt import Profile
from repro.core.records import BeBits, IntervalType
from repro.live import LiveSlogWriter
from repro.live.container import index_path
from repro.query.indexfile import index_path_for
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.utils.recover import recover_file
from repro.utils.slog import slog_from_interval_file
from repro.workloads import run_synthetic
from repro.workloads.synthetic import SyntheticConfig

DATA_DIR = Path(__file__).resolve().parent
GOLDEN = DATA_DIR / "writepath_golden.json"
FRAME_BYTES = (256, 2 * 1024, 8 * 1024, 32 * 1024)
RECUT = frozenset(
    f"fb256/{name}"
    for name in (
        "merge+slog/merged.ute", "merge+slog/run.slog", "merge/merged.ute",
        "slog_from_interval_file/run.slog",
    )
)
#: Records between live epochs: prime, so seals land mid-frame.
LIVE_EPOCH_RECORDS = 397


def _sha(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def merged_stream(merged_path: Path, profile: Profile):
    """``(reader tables, records)`` of a merged file minus the merge's own
    continuation pseudo-records — the stream a live writer is fed."""
    with IntervalReader(merged_path, profile) as reader:
        tables = dict(
            thread_table=reader.thread_table, markers=reader.markers,
            node_cpus=reader.node_cpus, field_mask=reader.header.field_mask,
        )
        records = [
            r for r in reader.intervals()
            if r.itype != IntervalType.CLOCKPAIR
            and not (r.bebits is BeBits.CONTINUATION and r.duration == 0)
        ]
    return tables, records


def build_digests(work: Path) -> dict[str, str]:
    """Build every artifact under ``work``; ``{artifact name: sha256}``."""
    work = Path(work)
    digests: dict[str, str] = {}
    run = run_synthetic(work / "raw", SyntheticConfig(rounds=40))
    for fb in FRAME_BYTES:
        out = work / f"fb{fb}"
        conv = convert_traces(run.raw_paths, out / "ivl", frame_bytes=fb)
        profile = Profile.read(conv.profile_path)
        for path in conv.interval_paths:
            digests[f"fb{fb}/convert/{path.name}"] = _sha(path)
        merged = merge_interval_files(
            conv.interval_paths, out / "merged.ute", profile,
            frame_bytes=fb, slog_path=out / "run.slog",
        )
        digests[f"fb{fb}/merge+slog/merged.ute"] = _sha(merged.merged_path)
        digests[f"fb{fb}/merge+slog/run.slog"] = _sha(merged.slog_path)
        alone = merge_interval_files(
            conv.interval_paths, out / "alone.ute", profile, frame_bytes=fb,
        )
        digests[f"fb{fb}/merge/merged.ute"] = _sha(alone.merged_path)
        digests[f"fb{fb}/slog_from_interval_file/run.slog"] = _sha(
            slog_from_interval_file(
                merged.merged_path, profile, out / "from.slog", frame_bytes=fb
            )
        )

        tables, records = merged_stream(merged.merged_path, profile)
        live = out / "live.slog"
        with LiveSlogWriter(live, profile, frame_bytes=fb, **tables) as writer:
            for i, record in enumerate(records, 1):
                writer.write(record)
                if i % LIVE_EPOCH_RECORDS == 0:
                    seq = writer.publish(seal=True)
                    digests[f"fb{fb}/live/epoch-{seq}/index.uteidx"] = _sha(
                        index_path(writer.live_dir)
                    )
        digests[f"fb{fb}/live/live.slog"] = _sha(live)
        digests[f"fb{fb}/live/live.slog.uteidx"] = _sha(index_path_for(live))

    for name in ("good.ute", "good.slog"):
        out = work / f"recovered-{name}"
        recover_file(DATA_DIR / name, out, profile=standard_profile())
        digests[f"recover/{name}"] = _sha(out)
    return digests


if __name__ == "__main__":
    import sys
    import tempfile

    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    if len(sys.argv) > 2:  # keep the artifacts
        digests = build_digests(Path(sys.argv[2]))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digests = build_digests(Path(tmp))
    if target == GOLDEN:
        digests = {name: sha for name, sha in digests.items() if name not in RECUT}
    target.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target} ({len(digests)} digests)")
