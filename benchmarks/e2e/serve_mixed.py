"""``serve_mixed`` — the read path reached through JSON/HTTP.

Set-up registers three datasets (an sPPM merged SLOG with MPI arrows and two
32-lane bigtraces) in a repository, builds their sidecars, and starts
``ute-serve --repository`` as its own process — generator and server share
no GIL — under a memory budget just short of what the datasets' frames
occupy when all are cached.  One client with one connection replays a fixed,
seeded list of requests in a **closed loop** until the time is up; a traced
run gives half its time to an **open loop** (seeded exponential gaps,
latency timed from the *due* time) at ``rate_lo`` then ``rate_hi``.  The mix
is 30 % If-None-Match revalidations, 20 % ``/frame``, 15 % ``/view``, 15 %
``/query``, 10 % ``/utilization``, 10 % ``/preview``, dataset chosen
60/30/10.

Same layers as ``explore_wide`` plus session pool, governor, JSON and HTTP:
a decode speed-up should show in both, a serialization or session change
only here; 304s bypass decode entirely.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from repro.core import standard_profile
from repro.query import build_index, index_path_for, open_trace, write_index
from repro.repository import Repository
from repro.serve import ServeClient, TraceSession
from repro.utils.convert import convert_traces
from repro.utils.merge import merge_interval_files
from repro.workloads import run_sppm, write_big_slog
from repro.workloads.sppm import SppmConfig

from benchmarks.e2e.common import (
    Ctx, Outcome, Replays, median, percentile, replay_until,
)
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.spec import ROOT

NAME = "serve_mixed"
ROUTES = ("frame", "view", "query", "utilization", "preview", "revalidate")

LAYER_METRICS = (
    "serve_p50_ms", "serve_p95_ms", "serve_rps",
    "serve.startup_s",
    *(f"serve.route_p50_ms.{route}" for route in ROUTES),
    "serve.p50_ms_rate_lo", "serve.server_time_share",
    "session.payload_ms.frame", "session.json_ms.frame",
    "serve.bytes_per_response_p50", "serve.status_304_share",
    "serve.status_shed_share", "repository.sessions_evicted",
    "repository.resident_peak_bytes", "client.overhead_ms",
    "serve.generator_lag_p95_ms",
)

_SERVE = "import sys; from repro.cli import main_serve; sys.exit(main_serve(sys.argv[1:]))"


def setup(ctx: Ctx, out: Path) -> dict:
    sizes = ctx.sizes
    profile = standard_profile()
    run = run_sppm(out / "sppm-raw", SppmConfig(iterations=sizes["sppm_iterations"]))
    conv = convert_traces(run.raw_paths, out / "sppm-ivl")
    merged = merge_interval_files(
        conv.interval_paths, out / "sppm.ute", profile,
        slog_path=out / "sppm.slog", frame_bytes=8 * 1024,
    )
    # Most popular first: the 60/30/10 weights follow this order.
    sources = {}
    for i in range(2):
        sources[f"big{i}"] = write_big_slog(
            out / f"big{i}.slog",
            n_nodes=sizes["big_nodes"], threads_per_node=sizes["big_threads_per_node"],
            n_records=sizes["big_records"], frame_bytes=sizes["big_frame_bytes"],
            seed=ctx.seed * 2 + i,
        ).path
    sources["sppm"] = merged.slog_path

    repo = Repository(out / "repo", build_indexes=False)
    frame_bytes = trace_bytes = index_bytes = 0
    paths = {}
    for name, source in sources.items():
        dataset = repo.register(name, source=source)
        with open_trace(dataset.path) as handle:
            index = build_index(handle)
            frame_bytes += sum(f.size for f in handle.frames)
        sidecar = write_index(index, index_path_for(dataset.path))
        trace_bytes += dataset.path.stat().st_size
        index_bytes += sidecar.stat().st_size
        paths[name] = dataset.path
    repo.close()

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    log = open(out / "serve.log", "wb")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVE, "--repository", str(out / "repo"),
         "-p", str(port), "--quiet",
         # Each frame can sit in the record cache and in the batch cache.
         "--memory-budget", str(int(2 * frame_bytes * sizes["budget_share"]))],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=log, stderr=log,
    )
    state = {"proc": proc, "log": log, "paths": paths}
    try:
        client = ServeClient(f"http://127.0.0.1:{port}", use_etags=False, timeout=60.0)
        while True:
            if proc.poll() is not None or time.perf_counter() - started > 120:
                raise RuntimeError(f"ute-serve did not come up; see {out / 'serve.log'}")
            try:
                if client.request("/metrics").status == 200:
                    break
            except OSError:
                time.sleep(0.01)
        startup_s = time.perf_counter() - started
        # Let lazy set-up finish before timing: the first touch of a dataset
        # opens its session and loads its sidecar.
        datasets = []
        revalidator = ServeClient(client.base_url, timeout=60.0)
        primed: dict[str, list[str]] = {}
        for name in sources:
            api = client.for_dataset(name).api_base
            frames = client.get_json(f"{api}/frames")
            datasets.append({
                "name": name, "api": api, "n_frames": frames["count"],
                "t0": frames["frames"][0]["start"], "t1": frames["frames"][-1]["end"],
            })
            for path in (*(f"{api}/frame/{i}" for i in range(min(4, frames["count"]))),
                         f"{api}/preview", f"{api}/utilization?lane=thread&bins=64"):
                if revalidator.request(path).status != 200:
                    raise RuntimeError(f"priming {path} failed")
                primed.setdefault(name, []).append(path)
    except BaseException:
        teardown(state)
        raise
    state.update({
        "client": client, "revalidator": revalidator, "primed": primed,
        "datasets": datasets, "startup_s": startup_s,
        "index_ratio": index_bytes / trace_bytes,
    })
    return state


def teardown(state: dict) -> None:
    proc = state["proc"]
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    state["log"].close()


# --------------------------------------------------------------- load generator


class _Mix:
    """The seeded request stream, *stratified*: every block of 20 requests
    holds the mix's exact proportions and every ten requests of one route
    the 60/30/10 dataset split, each block shuffled.  Drawing every request
    independently would make one run's mix differ from the next's by more
    than any metric's bound."""

    def __init__(self, rng: random.Random, state: dict, sizes: dict) -> None:
        self.rng = rng
        self.primed = state["primed"]
        self._route_block = [k for k, pct in sizes["mix"].items() for _ in range(pct // 5)]
        self._dataset_block = [
            ds for ds, weight in zip(state["datasets"], sizes["dataset_weights"])
            for _ in range(weight // 10)
        ]
        self._routes: list[str] = []
        self._datasets: dict[str, list[dict]] = {k: [] for k in sizes["mix"]}

    def _draw(self, pool: list, block: list):
        if not pool:
            pool.extend(block)
            self.rng.shuffle(pool)
        return pool.pop()

    def next(self) -> tuple[str, str]:
        """One request: (route kind, path)."""
        rng = self.rng
        kind = self._draw(self._routes, self._route_block)
        ds = self._draw(self._datasets[kind], self._dataset_block)
        api, t0, span = ds["api"], ds["t0"], ds["t1"] - ds["t0"]
        if kind == "revalidate":
            return kind, rng.choice(self.primed[ds["name"]])
        if kind == "frame":
            return kind, f"{api}/frame/{rng.randrange(ds['n_frames'])}"
        if kind == "view":
            view = rng.choice(("thread", "processor"))
            return kind, f"{api}/view/{view}?t={t0 + span * rng.random():.9f}"
        if kind == "query":
            lo = t0 + span * 0.95 * rng.random()
            return kind, (f"{api}/query?window={lo:.9f}:{lo + span * 0.05:.9f}"
                          "&group_by=node,type&agg=count,sum:dura")
        if kind == "utilization":
            return kind, f"{api}/utilization?lane={rng.choice(('thread', 'cpu'))}&bins=64"
        return kind, f"{api}/preview"


class _Sample(NamedTuple):
    """One request as the generator saw it (times are ``perf_counter``)."""

    kind: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes


def _send(state: dict, tracer, kind: str, path: str, due: float | None) -> _Sample:
    client = state["revalidator"] if kind == "revalidate" else state["client"]
    sent = time.perf_counter()
    with tracer.span(f"serve.route.{kind}"):
        response = client.request(path)
    done = time.perf_counter()
    return _Sample(kind, sent if due is None else due, sent, done,
                   response.status, response.body)


def _open_loop(ctx: Ctx, state: dict, tracer, rate: float, seconds: float) -> list[_Sample]:
    """Send on a seeded schedule whatever the server does; each request is
    timed from when it was due.  Two connections, so that one slow response
    does not hold the next request back (both idle most of the time: the
    rates are far below capacity)."""
    rng = ctx.rng
    mix = _Mix(rng, state, ctx.sizes)
    schedule = []
    at = 0.0
    while True:
        at += rng.expovariate(rate)
        if at >= seconds:
            break
        schedule.append((at, *mix.next()))
    samples: list[_Sample] = []
    ticket = itertools.count()
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        with tracer.span("op.open_loop", rate=rate):
            while (i := next(ticket)) < len(schedule):
                offset, kind, path = schedule[i]
                delay = origin + offset - time.perf_counter()
                if delay > 0:
                    with tracer.span("loadgen.wait"):
                        time.sleep(delay)
                samples.append(_send(state, tracer, kind, path, origin + offset))

    threads = [threading.Thread(target=worker) for _ in range(ctx.sizes["open_connections"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def _closed_loop(state: dict, tracer, requests: list[tuple[str, str]]) -> list[_Sample]:
    """One replay of the fixed request list: the next request goes out when
    the last one has completed."""
    with tracer.span("op.closed_loop"):
        return [_send(state, tracer, kind, path, None) for kind, path in requests]


def _server_metrics(state: dict) -> dict[str, float]:
    """Unlabelled ``/metrics`` samples by name."""
    out = {}
    for line in state["client"].metrics().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.split()[:2]
            out[name] = float(value)
    return out


def _check(samples: list[_Sample], outcome: Outcome) -> None:
    """Every status is 200/304 and every body parses — outside timing."""
    for sample in samples:
        outcome.attempted += 1
        if sample.status not in (200, 304):
            outcome.fail(f"{sample.kind}: status {sample.status}")
            continue
        try:
            if sample.kind == "view":
                ok = sample.body.startswith(b"<svg")
            else:
                ok = isinstance(json.loads(sample.body), dict)
        except ValueError:
            ok = False
        if not ok or (sample.kind == "revalidate" and sample.status != 304):
            outcome.fail(f"{sample.kind}: bad body or validator (status {sample.status})")


def measure(ctx: Ctx, state: dict, tracer, out: Path, seconds: float) -> Outcome:
    outcome = Outcome()
    sizes = ctx.sizes
    # One client, one connection, closed loop: a fixed, seeded list of
    # requests — whole 20-request strata, so exactly the mix — replayed
    # until the time is up.  A traced run gives part of its time to the
    # open loop at two rates.
    mix = _Mix(ctx.rng, state, sizes)
    requests = [mix.next() for _ in range(sizes["replay_requests"])]
    open_s = seconds * sizes["open_loop_share"] if tracer.enabled else 0.0
    replays = Replays()
    everything: list[_Sample] = []
    closed_n, closed_s = 0, 0.0
    before = _server_metrics(state)
    for n in replay_until(seconds - open_s):
        # Replay 0 is the warm-up: the frame caches fill up to the budget.
        start = time.perf_counter()
        samples = _closed_loop(state, tracer if n else Tracer(NAME, False), requests)
        if n:
            closed_s += time.perf_counter() - start
            closed_n += len(samples)
            for i, sample in enumerate(samples):
                replays.add((i, sample.kind), sample.done - sample.sent)
        _check(samples, outcome)
        everything += samples
    mid = _server_metrics(state)
    lo = hi = []
    if tracer.enabled:
        lo = _open_loop(ctx, state, tracer, sizes["rate_lo"], open_s * 0.3)
        hi = _open_loop(ctx, state, tracer, sizes["rate_hi"], open_s * 0.7)
        _check(lo + hi, outcome)
        everything += lo + hi
    after = _server_metrics(state)

    # The latency a typical request of the mix sees: each route's median
    # over the list's requests, every request at its floor over the replays,
    # weighted by the route's share.  (The plain median of all requests sits
    # on the edge between the cheap routes and the dear ones.)
    route_p50 = {
        route: median(replays.floors(lambda key: key[1] == route)) * 1e3
        for route in ROUTES
    }
    outcome.samples = {
        "replays": len(next(iter(replays.samples.values()))), "closed": closed_n,
        "rate_lo": len(lo), "rate_hi": len(hi),
    }
    with open(f"/proc/{state['proc'].pid}/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
    outcome.values = {
        "throughput_per_s": len(requests) / sum(replays.floors()),
        "latency_p50_ms": sum(sizes["mix"][route] / 100 * route_p50[route] for route in ROUTES),
        "index_bytes_per_trace_byte": state["index_ratio"],
        "peak_rss_mb": hwm_kb / 1024.0,
        "serve_rps": closed_n / closed_s,
    }
    if tracer.enabled:
        hi_ms = [(s.done - s.due) * 1e3 for s in hi]
        lag_ms = [(s.sent - s.due) * 1e3 for s in lo + hi]
        if percentile(lag_ms, 0.95) > 0.1 * 1e3 / sizes["rate_hi"]:
            outcome.notes.append(
                "open loop ran late (p95 lag over 10 % of the mean gap): "
                "both connections were held by slow responses"
            )
        measured = [s for s in everything[len(requests):]]  # all but the warm-up
        statuses = [s.status for s in measured]
        outcome.values.update({
            f"serve.route_p50_ms.{route}": p50 for route, p50 in route_p50.items()
        })
        outcome.values.update({
            "serve_p50_ms": median(hi_ms),
            "serve_p95_ms": percentile(hi_ms, 0.95),
            "serve.startup_s": state["startup_s"],
            "serve.p50_ms_rate_lo": median((s.done - s.due) * 1e3 for s in lo),
            "serve.server_time_share": (
                after["ute_serve_request_seconds_sum"]
                - before["ute_serve_request_seconds_sum"]
            ) / sum(s.done - s.sent for s in everything),
            "serve.bytes_per_response_p50": median(
                len(s.body) for s in measured if s.status == 200
            ),
            "serve.status_304_share": statuses.count(304) / len(statuses),
            "serve.status_shed_share": (
                statuses.count(429) + statuses.count(503)
            ) / len(statuses),
            "repository.sessions_evicted": (
                after["ute_serve_sessions_evicted_total"]
                - before["ute_serve_sessions_evicted_total"]
            ),
            # Sampled at the phase boundaries, not continuously: a second
            # connection polling /metrics would itself be load.
            "repository.resident_peak_bytes": max(
                m["ute_serve_frame_cache_resident_bytes"] for m in (before, mid, after)
            ),
            "serve.generator_lag_p95_ms": percentile(lag_ms, 0.95),
        })
        outcome.values.update(_probe_layers(ctx, state, tracer))
    return outcome


def _probe_layers(ctx: Ctx, state: dict, tracer) -> dict[str, float]:
    """What the client itself costs, and the heavy route's payload build
    and JSON encode measured in process, without HTTP around them."""
    with tracer.span("op.probe"):
        overhead = []
        for _ in range(ctx.sizes["overhead_probe_calls"]):
            with tracer.span("client.request_metrics") as span:
                state["client"].request("/metrics")
            overhead.append(span.seconds)
        payload, encode = [], []
        session = TraceSession(state["paths"][state["datasets"][0]["name"]])
        try:
            for i in range(min(ctx.sizes["payload_probe_frames"], session.frame_count())):
                with tracer.span("session.frame_payload") as span:
                    body = session.frame_payload(i)
                payload.append(span.seconds)
                with tracer.span("json.dumps") as span:
                    json.dumps(body)
                encode.append(span.seconds)
        finally:
            session.close()
    return {
        "client.overhead_ms": median(overhead) * 1e3,
        "session.payload_ms.frame": median(payload) * 1e3,
        "session.json_ms.frame": median(encode) * 1e3,
    }
