"""What the benchmark declares: the root ``BENCHMARK.json`` plus the frozen
sizes and rates the declaration's schema has no room for.

``BENCHMARK.json`` is the single source of metric names, units, directions
and bounds; :func:`emit` refuses to print a name it does not declare and
fails when a declared one is missing.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
DECLARATION_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("ingest_table1", "explore_wide", "serve_mixed", "live_tail")

#: Frozen sizes, calibrated on the seed code for ``run_seconds`` = 20 on two
#: cores: each workload replays one fixed list of operations until the time
#: is up, and the sizes make a replay short enough for ten or more to fit.
#: Shrunk from the issue's calibration to fit the driver's total-time cap:
#: record counts went down, lanes, mixes and structure did not (the bigtrace
#: ``frame_bytes`` shrink with the record count so the frame count — 44
#: against the 16-frame LRU — is the issue's).
SIZES = {
    "ingest_table1": {
        # Table 1 program, 4 tasks x 4 threads; ~1.9k and ~12k raw events,
        # the 6.3x ratio of the paper's first and third columns.  Short
        # pipelines, so that many replays of both fit a run.
        "rounds_small": 33, "rounds_large": 206,
        "cut_probe_calls": 20_000,
    },
    "explore_wide": {
        "n_nodes": 4, "threads_per_node": 32, "n_records": 20_000,
        "frame_bytes": 13_000,
        "cold_opens": 2,
        # The replayed session: this many blocks of these 50 ops (the
        # issue's 100/30/40/80/49 mix per 300) plus one statistics pass.
        "blocks_per_replay": 2,
        "ops": {"query_window": 17, "query_scan": 5, "view_whole": 7,
                "view_zoom": 13, "view_zoom_hot": 8},
        "hot_centres": 8, "parity_samples": 10,
    },
    "serve_mixed": {
        "sppm_iterations": 16,
        "big_nodes": 4, "big_threads_per_node": 8, "big_records": 20_000,
        "big_frame_bytes": 26_000,
        # Of the bytes resident when every frame sits in both frame caches.
        # Just short of everything: the governor trims frames all the time
        # but never empties (and so closes) a session.  At the issue's 0.6
        # the seed code closes a session about once a second and reopening
        # one reloads a ~10 MB sidecar: every number then measured eviction
        # luck, with spreads of 25-55 %.
        "budget_share": 0.95,
        # req/s; rate_hi is ~20 % of the seed code's closed-loop capacity.
        # (At the issue's 40 % a slow spell of the host brings the server
        # close enough to saturation for queueing to multiply the median.)
        "rate_lo": 20.0, "rate_hi": 40.0,
        # The replayed closed-loop list: whole 20-request strata.
        "replay_requests": 120,
        # Of a traced run's seconds: open loop at rate_lo (0.3 of it) then
        # at rate_hi (0.7), over this many connections.
        "open_loop_share": 0.5, "open_connections": 2,
        "mix": {"revalidate": 30, "frame": 20, "view": 15, "query": 15,
                "utilization": 10, "preview": 10},
        "dataset_weights": (60, 30, 10),
        "overhead_probe_calls": 20, "payload_probe_frames": 8,
    },
    "live_tail": {
        "n_nodes": 4, "threads_per_node": 8,
        # One lifecycle: 2 epochs nobody reads, 3 a follower reads, close.
        "epochs_a": 2, "epoch_a": 500,
        "epochs_b": 3, "epoch_b": 200,
        "frame_bytes": 8 * 1024,
    },
}

#: ``--smoke``: same code path and schema at ~1/20 of the work (lanes shrink
#: too here — index cost is lane-bound — which the full sizes never do).
SMOKE_SIZES = {
    "ingest_table1": {
        **SIZES["ingest_table1"],
        "rounds_small": 6, "rounds_large": 36,
        "cut_probe_calls": 2_000,
    },
    "explore_wide": {
        **SIZES["explore_wide"],
        "n_nodes": 2, "threads_per_node": 4, "n_records": 5_000,
        "frame_bytes": 6_000,
        "cold_opens": 1, "blocks_per_replay": 1,
        "ops": {"query_window": 3, "query_scan": 1, "view_whole": 1,
                "view_zoom": 2, "view_zoom_hot": 2},
        "hot_centres": 2, "parity_samples": 2,
    },
    "serve_mixed": {
        **SIZES["serve_mixed"],
        "sppm_iterations": 2,
        "big_nodes": 2, "big_threads_per_node": 2, "big_records": 1_500,
        "big_frame_bytes": 8_000,
        "replay_requests": 20,
        "overhead_probe_calls": 5, "payload_probe_frames": 2,
    },
    "live_tail": {
        **SIZES["live_tail"],
        "n_nodes": 2, "threads_per_node": 2,
        "epochs_a": 2, "epoch_a": 100,
        "epochs_b": 2, "epoch_b": 40,
        "frame_bytes": 2 * 1024,
    },
}


def load_declaration() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(DECLARATION_PATH.read_text())


def declared(declaration: dict, section: str) -> dict[str, dict]:
    """``end_to_end`` or ``per_layer`` of the declaration, keyed by name."""
    return {m["name"]: m for m in declaration[section]}


def emit(values: dict[str, float], declaration: dict, *, trace: bool,
         produced_layers: tuple[str, ...]) -> dict[str, dict]:
    """The contract's ``metrics`` object for one run.

    ``values`` is everything the workload measured.  An untraced run prints
    every end-to-end metric; a traced run prints every per-layer metric —
    the workload's own (``produced_layers``, each of which must be present)
    and 0 for the layers this workload does not execute."""
    e2e = declared(declaration, "end_to_end")
    layers = declared(declaration, "per_layer")
    undeclared = sorted(set(values) - set(e2e) - set(layers))
    if undeclared:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {undeclared}")
    if not trace:
        wanted, required = e2e, tuple(e2e)
    else:
        wanted, required = layers, produced_layers
    missing = sorted(name for name in required if name not in values)
    if missing:
        raise SystemExit(f"declared metrics the run did not produce: {missing}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": meta["unit"]}
        for name, meta in wanted.items()
    }
