"""The serving surface is declared once (``repro.serve.app.ROUTES``,
``REPOSITORY_GAUGES``, ``Repository.metrics()``): these tests hold the
docs, the un-prefixed aliases, the validators and ``/metrics`` to that
one declaration.
"""

import dataclasses
import http.server
import re
import shutil
import socket
import threading
import time
import urllib.parse
from pathlib import Path

import pytest

from repro.query import build_index, index_path_for, open_trace, write_index
from repro.repository import Repository
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve import app as serve_app
from repro.serve.app import ROUTES, match_route
from repro.serve.client import RetriesExhausted
from tests.test_serve import make_slog, message_records

DOCS = Path(__file__).resolve().parents[1] / "docs" / "SERVING.md"
PROGRAM = 'table name=n x=("node", node) y=("count", dura, count)'
SAMPLE = {"{ds}": "default", "{i}": "0", "{kind}": "thread"}

#: One request per per-dataset row (path below ``/api/d/{ds}/``); a new
#: row without a sample fails ``test_every_row_has_a_sample``.
SAMPLES = {
    "/api/d/{ds}/preview": "preview",
    "/api/d/{ds}/frames": "frames",
    "/api/d/{ds}/frame/{i}": "frame/0?view=thread",
    "/api/d/{ds}/arrows/{i}": "arrows/0",
    "/api/d/{ds}/view/{kind}": "view/thread?t=0.0000001",
    "/api/d/{ds}/utilization": "utilization?lane=cpu&bins=8",
    "/api/d/{ds}/stats": "stats?table=" + urllib.parse.quote(PROGRAM),
    "/api/d/{ds}/query": "query?window=0:0.0000002&limit=4",
    "/api/d/{ds}/export/chrome": "export/chrome",
    "/api/d/{ds}/follow/preview": "follow/preview?since=-1",
    "/api/d/{ds}/follow/query": "follow/query?since=-1&limit=2",
    "/api/d/{ds}/follow/poll": "follow/poll?wait=0",
}


def indexed_slog(path):
    make_slog(path, message_records())
    with open_trace(path) as handle:
        write_index(build_index(handle), index_path_for(path))
    return path


def doc_routes(text):
    """The path of every ``GET /x`` / ``POST /x`` the text quotes in
    backticks, dataset placeholder normalised to ``{ds}``."""
    found = re.findall(r"``?(?:GET|POST) (/[^\s`?]*)", text)
    return {p.replace("{name}", "{ds}").rstrip("/") or "/" for p in found}


# ------------------------------------------------------------- (a) the docs


class TestDocsAreTheTable:
    @pytest.mark.parametrize(
        "text", [DOCS.read_text(), serve_app.__doc__], ids=["SERVING.md", "docstring"]
    )
    def test_rows_and_docs_agree(self, text):
        documented = doc_routes(text)
        patterns = {route.pattern for route in ROUTES}
        # Every table row is documented (the docstring once left one out).
        assert patterns <= documented, patterns - documented
        # Every documented route is a table row, or one of the alias
        # spellings the prefix rewrite serves.
        assert documented - patterns <= {"/", "/api/*", "/api/preview"}

    def test_documented_routes_resolve_through_the_table(self):
        for pattern in doc_routes(DOCS.read_text()) - {"/", "/api/preview"}:
            path = pattern
            for placeholder, value in SAMPLE.items():
                path = path.replace(placeholder, value)
            route, dataset, args = match_route(path.strip("/").split("/"))
            assert route.pattern == pattern
            assert dataset == ("default" if "{ds}" in pattern else None)

    def test_unknown_paths_and_bad_segments(self):
        assert match_route(["api", "d", "x", "nope"]) is None
        assert match_route(["api", "d", "x", "frame", "0", "extra"]) is None
        assert match_route(["api", "d", "x"]) is None
        with pytest.raises(serve_app._HttpError) as info:
            match_route(["api", "d", "x", "frame", "zero"])
        assert info.value.status == 400

    def test_every_row_has_a_sample(self):
        per_dataset = {r.pattern for r in ROUTES if r.pattern.startswith("/api/d/")}
        assert per_dataset == set(SAMPLES)

    def test_validators_are_distinct(self):
        """ETag values are opaque; their distinctness is the contract."""
        tags = set()
        requests = [
            ("/api/d/{ds}/frame/{i}", [0], {}),
            ("/api/d/{ds}/frame/{i}", [1], {}),
            ("/api/d/{ds}/frame/{i}", [0], {"view": "thread"}),
            ("/api/d/{ds}/arrows/{i}", [0], {}),
            ("/api/d/{ds}/view/{kind}", ["thread"], {"t": "1"}),
            ("/api/d/{ds}/view/{kind}", ["thread"], {"t": "2"}),
            ("/api/d/{ds}/view/{kind}", ["type"], {"t": "1"}),
            ("/api/d/{ds}/view/{kind}", ["thread"], {"t": "1", "width": "300"}),
            ("/api/d/{ds}/query", [], {}),
            ("/api/d/{ds}/query", [], {"limit": "1"}),
            ("/api/d/{ds}/query", [], {"anything": "1"}),
            ("/api/d/{ds}/stats", [], {"table": "a"}),
            ("/api/d/{ds}/stats", [], {"table": "a", "format": "json"}),
            ("/api/d/{ds}/preview", [], {}),
            ("/api/d/{ds}/frames", [], {}),
            ("/api/d/{ds}/utilization", [], {}),
            ("/api/d/{ds}/export/chrome", [], {}),
        ]
        by_pattern = {route.pattern: route for route in ROUTES}
        for pattern, args, query in requests:
            tags.add(serve_app.resource_tag(by_pattern[pattern], args, query))
        assert len(tags) == len(requests)
        # Parameters a row does not declare do not split its validator.
        frames = by_pattern["/api/d/{ds}/frames"]
        assert serve_app.resource_tag(frames, [], {}) == serve_app.resource_tag(
            frames, [], {"cachebust": "1"}
        )


# ------------------------------------------------------- (b) the alias layer


@pytest.fixture(scope="module")
def single_file(tmp_path_factory):
    path = indexed_slog(tmp_path_factory.mktemp("surface-one") / "run.slog")
    with ServerThread(path, ServerConfig(port=0)) as srv:
        yield srv, "default"


@pytest.fixture(scope="module")
def repository_with_default(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("surface-repo")
    src = make_slog(tmp / "src.slog", message_records())
    config = ServerConfig(port=0, default_dataset="beta")
    repo = config.repository(tmp / "root")
    for name in ("alpha", "beta"):
        repo.register(name, source=src)
        assert repo.wait_index(name) == "ready"
    with ServerThread(repo, config) as srv:
        yield srv, "beta"


def comparable(sub, response):
    body = response.body
    if sub.startswith(("query", "follow/query")):
        # The io block (and the bytes-read it reports) is per execution.
        body = re.sub(rb'"io": \{[^}]*\}', b'"io": {}', body)
    return response.status, body, response.headers.get("etag")


class TestAliasIsARewrite:
    @pytest.mark.parametrize("server", ["single_file", "repository_with_default"])
    def test_alias_and_prefixed_answer_alike(self, server, request):
        srv, default = request.getfixturevalue(server)
        client = ServeClient(srv.base_url, use_etags=False)
        assert client.get_json("/api/datasets")["default"] == default
        for sub in SAMPLES.values():
            prefixed = client.request(f"/api/d/{default}/{sub}")
            alias = client.request(f"/api/{sub}")
            assert prefixed.status == 200, (sub, prefixed.text)
            assert comparable(sub, alias) == comparable(sub, prefixed), sub
        root, viewer = client.request("/"), client.request(f"/d/{default}/")
        assert (root.status, root.body) == (viewer.status, viewer.body)
        for sub in ("nope", "frame/zero", "frame/99999", "d"):
            prefixed = client.request(f"/api/d/{default}/{sub}")
            assert client.request(f"/api/{sub}").status == prefixed.status, sub

    def test_aliased_requests_are_labelled_as_their_route(self, single_file):
        srv, _ = single_file
        client = ServeClient(srv.base_url, use_etags=False)
        client.request("/api/arrows/0")
        text = client.metrics()
        assert (
            'ute_serve_requests_total{dataset="default",'
            'route="/api/d/{ds}/arrows/{i}",status="200"}' in text
        )
        assert 'route="/api/arrows' not in text

    def test_empty_repository(self, tmp_path):
        with ServerThread(Repository(tmp_path / "root"), ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url)
            landing = client.request("/")
            assert landing.status == 200
            assert landing.body == client.request("/datasets").body
            assert client.request("/api/preview").status == 404


# ------------------------------------------------------ (c) If-None-Match


class TestOneIfNoneMatch:
    @pytest.mark.parametrize("sub", ["frames", "follow/poll?wait=0"])
    def test_variants(self, single_file, sub):
        srv, _ = single_file
        client = ServeClient(srv.base_url, use_etags=False)
        path = f"/api/d/default/{sub}"
        etag = client.request(path).headers["etag"]

        def status(value):
            return client.request(path, headers={"If-None-Match": value}).status

        assert status(etag) == 304
        assert status(f'"other", {etag} , "more"') == 304
        assert status("*") == 304
        assert status(" * ") == 304
        assert status("W/" + etag) == 200  # strong comparison only
        assert status(etag.strip('"')) == 200
        assert status("garbage, ,,") == 200
        assert status("") == 200
        unchanged = client.request(path, headers={"If-None-Match": etag})
        assert unchanged.headers["etag"] == etag
        assert "content-type" not in unchanged.headers


# ------------------------------------------------------------ (d) /metrics

#: The metric families of PR 16's parent commit, in exposition order, plus
#: the one added since: ``ute_serve_connections_total`` (persistent
#: connections, PR 24).
FAMILIES = """
ute_serve_requests_total ute_serve_connections_total
ute_serve_request_seconds ute_serve_rejected_total
ute_serve_quota_rejected_total ute_serve_uploads_total
ute_serve_frame_salvage_total ute_serve_follow_events_total
ute_serve_follow_streams ute_serve_inflight_requests
ute_serve_frame_cache_hits_total ute_serve_frame_cache_misses_total
ute_serve_frame_cache_evictions_total ute_serve_frame_cache_resident_bytes
ute_serve_memory_budget_bytes ute_serve_dataset_resident_bytes
ute_serve_datasets ute_serve_sessions_open ute_serve_sessions_evicted_total
ute_serve_index_loaded ute_serve_index_builds_pending
ute_serve_index_frames_scanned_total ute_serve_index_frames_pruned_total
ute_serve_index_fallback_total ute_serve_bytes_fetched_total
ute_serve_fetches_total ute_serve_frames
""".split()

#: The frame-cache budget of the scripted server: two sessions x two cached
#: frames, each charged once.  (The parent ran under 3000: its ``/frame``
#: kept every frame in two forms, batch and record list.  Since PR 24 it
#: keeps the batch only, and under 3000 no session would ever be evicted;
#: under this budget every count below is still the parent's.)
BUDGET = 2264

#: What the parent commit printed after ``SCRIPT`` (every sample that does
#: not depend on timing; the budget is ``BUDGET``).
PARENT_SAMPLES = """
ute_serve_requests_total{dataset="",route="-",status="400"} 1
ute_serve_requests_total{dataset="",route="-",status="404"} 1
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/frame/{i}",status="200"} 4
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/frames",status="200"} 2
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/frames",status="304"} 1
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/query",status="200"} 1
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/stats",status="200"} 1
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/utilization",status="200"} 1
ute_serve_requests_total{dataset="alpha",route="/api/d/{ds}/view/{kind}",status="200"} 1
ute_serve_requests_total{dataset="beta",route="/api/d/{ds}/frame/{i}",status="200"} 3
ute_serve_requests_total{dataset="beta",route="/api/d/{ds}/preview",status="200"} 1
ute_serve_requests_total{dataset="beta",route="/api/d/{ds}/query",status="200"} 1
ute_serve_request_seconds_count 18
ute_serve_frame_salvage_total 0
ute_serve_follow_streams 0
ute_serve_frame_cache_hits_total 2
ute_serve_frame_cache_misses_total 20
ute_serve_frame_cache_evictions_total 17
ute_serve_frame_cache_resident_bytes 1690
ute_serve_memory_budget_bytes 2264
ute_serve_dataset_resident_bytes{dataset="alpha"} 1116
ute_serve_dataset_resident_bytes{dataset="beta"} 574
ute_serve_datasets 2
ute_serve_sessions_open 2
ute_serve_sessions_evicted_total 1
ute_serve_index_loaded 1
ute_serve_index_builds_pending 0
ute_serve_index_frames_scanned_total 25
ute_serve_index_frames_pruned_total 11
ute_serve_index_fallback_total 1
ute_serve_bytes_fetched_total 39130
ute_serve_fetches_total 26
ute_serve_frames 24
""".strip().splitlines()

SCRIPT = [
    "/api/d/alpha/frames", "/api/d/alpha/frame/0", "/api/d/alpha/frame/1",
    "/api/d/alpha/frame/2", "/api/d/alpha/frame/0",
    "/api/d/alpha/query?window=0:0.0000002",
    "/api/d/beta/preview", "/api/d/beta/frame/0", "/api/d/beta/frame/1",
    "/api/d/beta/frame/3", "/api/d/beta/query?limit=3",
    "/api/d/beta/frame/zero", "/api/d/nope/frames",
    "/api/d/alpha/view/thread?t=0.0000001", "/api/d/alpha/utilization?bins=8",
    "/api/d/alpha/stats?table=" + urllib.parse.quote(PROGRAM),
]


class CountingLock:
    """The repository lock, counting acquisitions (re-entrant ones too)."""

    def __init__(self, lock):
        self.lock = lock
        self.count = 0

    def __enter__(self):
        self.count += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


class TestMetricsAreOneSnapshot:
    @pytest.fixture()
    def scripted(self, tmp_path):
        """Two datasets (alpha indexed) under a budget that forces one
        session eviction, after the fixed request script."""
        src = make_slog(tmp_path / "src.slog", message_records())
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        for name in ("alpha", "beta"):
            repo.register(name, source=src)
        alpha = repo.get("alpha").path
        with open_trace(alpha) as handle:
            write_index(build_index(handle), index_path_for(alpha))
        repo.close()
        repo = Repository(root, build_indexes=False, budget_bytes=BUDGET, cache_frames=2)
        with ServerThread(repo, ServerConfig(port=0, memory_budget_bytes=BUDGET)) as srv:
            client = ServeClient(srv.base_url, use_etags=False)
            for path in SCRIPT:
                client.request(path)
            etag = client.request("/api/d/alpha/frames").headers["etag"]
            client.request("/api/d/alpha/frames", headers={"If-None-Match": etag})
            yield srv, client

    def test_families_and_samples_are_the_parents(self, scripted):
        _, client = scripted
        text = client.metrics()
        families = re.findall(r"^# TYPE (\S+)", text, flags=re.M)
        assert families == FAMILIES
        assert len(families) == 27
        assert re.findall(r"^# HELP (\S+)", text, flags=re.M) == FAMILIES
        lines = text.splitlines()
        for sample in PARENT_SAMPLES:
            assert sample in lines, sample

    def test_a_scrape_takes_the_repository_lock_once(self, scripted):
        srv, client = scripted
        lock = srv.repository._lock = CountingLock(srv.repository._lock)
        client.metrics()
        assert lock.count == 1
        client.request("/api/d/alpha/frames")
        assert lock.count > 1  # the wrapper does see ordinary requests

    def test_every_family_is_documented(self, scripted):
        _, client = scripted
        documented = DOCS.read_text().split("## Metrics")[1].split("\n## ")[0]
        for family in re.findall(r"^# TYPE (\S+)", client.metrics(), flags=re.M):
            stem = family.removeprefix("ute_serve_frame_cache")  # `..._misses_total`
            assert f"`{family}" in documented or f"`...{stem}`" in documented, family

    def test_snapshot_matches_the_public_accessors(self, scripted):
        srv, _ = scripted
        repo = srv.repository
        sample = repo.metrics()
        assert sample["resident_bytes"] == repo.resident_bytes()
        assert sample["datasets"] == len(repo.names())
        assert sample["sessions_open"] == len(repo.open_sessions())
        assert sample["sessions_evicted"] == repo.sessions_evicted == 1
        assert set(sample["dataset_resident_bytes"]) == set(repo.open_sessions())
        assert {key for _, _, key in serve_app.REPOSITORY_GAUGES} == set(sample)


# ------------------------------------------------- (e) connections persist


def connect(srv):
    sock = socket.create_connection((srv.config.host, srv.port), timeout=10)
    return sock, sock.makefile("rb")


def get(path, *headers, version="HTTP/1.1", method="GET"):
    lines = [f"{method} {path} {version}", "Host: test", *headers, "", ""]
    return "\r\n".join(lines).encode()


def read_response(stream):
    """One response off a connection: (status, headers, body) — the body by
    ``Content-Length``, or to the end of a chunked stream."""
    status = int(stream.readline().split()[1])
    headers = {}
    for line in iter(stream.readline, b"\r\n"):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = b""
        while size := int(stream.readline(), 16):
            body += stream.read(size + 2)[:-2]
        stream.readline()
        return status, headers, body
    return status, headers, stream.read(int(headers["content-length"]))


def closed(stream):
    """Whether the server has closed the connection (nothing left to read)."""
    return stream.read(1) == b""


@pytest.fixture(scope="module")
def damaged(tmp_path_factory):
    """``flip-frame.slog`` (one damaged frame) served with one paced tenant."""
    path = tmp_path_factory.mktemp("surface-conn") / "flip-frame.slog"
    shutil.copyfile(Path(__file__).parent / "data" / "flip-frame.slog", path)
    config = ServerConfig(port=0, quota_overrides={"greedy": 0.001}, quota_burst=1)
    with ServerThread(path, config) as srv:
        yield srv


class TestConnectionProtocol:
    def counters(self, srv):
        client = ServeClient(srv.base_url)
        text = client.metrics()
        client.close()
        pick = lambda name: float(re.search(rf"^{name} (\S+)", text, flags=re.M)[1])
        return (pick("ute_serve_connections_total"),
                pick("ute_serve_request_seconds_count"),
                pick("ute_serve_request_seconds_sum"))

    def test_two_requests_one_after_the_other(self, single_file):
        srv, _ = single_file
        conns, requests, seconds = self.counters(srv)
        sock, stream = connect(srv)
        with sock:
            sock.sendall(get("/api/frames"))
            first = read_response(stream)
            time.sleep(0.5)
            sock.sendall(get("/api/frames"))
            second = read_response(stream)
        assert first[0] == second[0] == 200 and first[2] == second[2]
        assert first[1]["connection"] == second[1]["connection"] == "keep-alive"
        after = self.counters(srv)
        # One connection carried both (the other one is the scrape's own),
        # and the wait between them is nobody's request time.
        assert after[0] - conns == 2 and after[1] - requests == 3
        assert after[2] - seconds < 0.25

    def test_pipelined_requests_are_answered_in_order(self, single_file):
        srv, _ = single_file
        sock, stream = connect(srv)
        with sock:
            sock.sendall(get("/api/frames") + get("/api/preview") + get("/api/nope"))
            answers = [read_response(stream) for _ in range(3)]
        assert [status for status, _, _ in answers] == [200, 200, 404]
        assert b'"frames"' in answers[0][2] and b'"bins"' in answers[1][2]

    @pytest.mark.parametrize("request_bytes, persists", [
        (get("/api/frames", "Connection: close"), False),
        (get("/api/frames", "Connection: Keep-Alive, Close"), False),
        (get("/api/frames", version="HTTP/1.0"), False),
        (get("/api/frames", "Connection: keep-alive", version="HTTP/1.0"), True),
        (get("/api/frames", method="HEAD"), True),
    ], ids=["close", "close-in-a-list", "http/1.0", "http/1.0-keep-alive", "head"])
    def test_the_request_decides(self, single_file, request_bytes, persists):
        srv, _ = single_file
        sock, stream = connect(srv)
        with sock:
            sock.sendall(request_bytes)
            if request_bytes.startswith(b"HEAD"):
                assert stream.readline().split()[1] == b"200"
                head = b"".join(iter(stream.readline, b"\r\n")).lower()
            else:
                status, headers, _ = read_response(stream)
                assert status == 200
                head = f"connection: {headers['connection']}".encode()
            assert (b"connection: keep-alive" in head) == persists
            if persists:
                sock.sendall(get("/api/frames", "Connection: close"))
                assert read_response(stream)[0] == 200
            assert closed(stream)

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /api/frames\r\n\r\n", 400),
        (get("/api/frames", "Content-Length: 5") + b"hello", 413),
        (get("/api/frames", method="BREW"), 405),
        (get("/api/export/chrome"), 200),
    ], ids=["malformed", "unread-body", "method", "chunked"])
    def test_responses_that_close(self, single_file, request_bytes, status):
        srv, _ = single_file
        sock, stream = connect(srv)
        with sock:
            sock.sendall(request_bytes + get("/api/frames"))
            answer = read_response(stream)
            assert answer[0] == status and answer[1]["connection"] == "close"
            # The pipelined second request is never answered.
            assert closed(stream)

    def test_a_5xx_closes(self, tmp_path):
        path = make_slog(tmp_path / "run.slog", message_records())
        with ServerThread(path, ServerConfig(port=0, max_concurrency=0)) as srv:
            sock, stream = connect(srv)
            with sock:
                sock.sendall(get("/api/frames"))
                status, headers, _ = read_response(stream)
                assert status == 503 and headers["connection"] == "close"
                assert closed(stream)

    def test_client_errors_and_304_keep_the_connection(self, damaged, corpus):
        bad = corpus.manifest["flip-frame.slog"]["damaged_frame"]
        sock, stream = connect(damaged)
        with sock:
            sock.sendall(get("/api/frames"))
            etag = read_response(stream)[1]["etag"]
            script = [
                (get("/api/nope"), 404),
                (get(f"/api/frame/{bad}"), 422),
                (get("/api/frame/zero"), 400),
                (get("/api/frames", "X-UTE-Tenant: greedy"), 200),
                (get("/api/frames", "X-UTE-Tenant: greedy"), 429),
                (get("/api/frames", f"If-None-Match: {etag}"), 304),
                (get("/api/frames", method="POST", *["Content-Length: 0"]), 405),
                (get("/api/frames"), 200),
            ]
            for request_bytes, want in script:
                sock.sendall(request_bytes)
                status, headers, _ = read_response(stream)
                assert (status, headers["connection"]) == (want, "keep-alive")

    def test_an_idle_connection_is_closed_without_a_word(self, single_file, monkeypatch):
        srv, _ = single_file
        monkeypatch.setattr(serve_app, "HEADER_TIMEOUT", 0.2)
        _, requests, _ = self.counters(srv)
        fresh, fresh_stream = connect(srv)
        used, used_stream = connect(srv)
        slow, slow_stream = connect(srv)
        with fresh, used, slow:
            used.sendall(get("/api/frames"))
            assert read_response(used_stream)[0] == 200
            slow.sendall(b"GET /api/fra")
            start = time.monotonic()
            assert fresh_stream.read() == b"" and used_stream.read() == b""
            # A request that has started and stalls is told so.
            status, headers, body = read_response(slow_stream)
            assert (status, headers["connection"]) == (408, "close")
            assert closed(slow_stream)
            assert time.monotonic() - start < 5
        # Neither idle close was a request: the GET, the 408, this scrape.
        assert self.counters(srv)[1] - requests == 3

    def test_a_client_that_leaves_mid_request_is_nobodys_error(self, single_file, caplog):
        srv, _ = single_file
        _, requests, _ = self.counters(srv)
        sock, stream = connect(srv)
        with sock, stream:
            sock.sendall(
                get("/api/datasets?name=x", "Content-Length: 100", method="POST")
                + b"ten bytes."
            )
        time.sleep(0.2)
        # Not a request, not a 500, not a log line: only this scrape's pair.
        assert self.counters(srv)[1] - requests == 1
        assert "unhandled error" not in caplog.text

    def test_stop_does_not_wait_for_clients(self, tmp_path):
        path = make_slog(tmp_path / "run.slog", message_records())
        srv = ServerThread(path, ServerConfig(port=0))
        socks = [connect(srv) for _ in range(5)]
        try:
            for sock, stream in socks[:3]:  # idle, after a request each
                sock.sendall(get("/api/frames"))
                assert read_response(stream)[0] == 200
            socks[3][0].sendall(b"GET /api/frames HTTP/1.1\r\nHos")  # mid-request
            socks[4][0].sendall(get("/api/follow/poll?since=99&wait=1.5"))  # in a handler
            time.sleep(0.2)
            start = time.monotonic()
            srv.stop()
            assert time.monotonic() - start < 2
            assert not srv._thread.is_alive()
            for _, stream in socks[:4]:
                assert closed(stream)
        finally:
            srv.stop()
            for sock, _ in socks:
                sock.close()


class _OneShot(http.server.BaseHTTPRequestHandler):
    """Keep-alive in name only: answers one request per connection without
    saying ``Connection: close``, then drops the connection — what a daemon
    that timed an idle connection out looks like to a client."""

    protocol_version = "HTTP/1.1"
    connections = 0
    requests: list = []
    answer = True

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_GET(self):  # noqa: N802 (stdlib naming)
        type(self).requests.append(self.command)
        if self.answer:
            self.send_response(200)
            self.send_header("Content-Length", "2")
            self.end_headers()
            self.wfile.write(b"{}")
        self.close_connection = True

    do_POST = do_GET

    def log_message(self, *args):  # silence stderr
        pass


@pytest.fixture()
def one_shot(monkeypatch):
    monkeypatch.setattr(_OneShot, "connections", 0)
    monkeypatch.setattr(_OneShot, "requests", [])
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _OneShot)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def settled(condition):
    """Wait (briefly) for the fake server's other thread to catch up."""
    deadline = time.monotonic() + 2
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


@pytest.fixture()
def make_client():
    """``ServeClient``, closed when the test is over."""
    made = []

    def make(*args, **kwargs):
        made.append(ServeClient(*args, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


class TestClientConnections:
    def test_a_stale_connection_is_reopened_and_the_get_resent_once(
        self, one_shot, make_client
    ):
        client = make_client(one_shot)  # retries=0: the resend spends none
        assert client.request("/a").status == 200
        assert settled(lambda: _OneShot.connections == 1)
        time.sleep(0.05)  # let the server's close arrive
        assert client.request("/b").status == 200
        assert _OneShot.connections == 2 and _OneShot.requests == ["GET", "GET"]

    def test_a_post_is_not_resent(self, one_shot, make_client):
        client = make_client(one_shot)
        assert client.request("/a").status == 200
        time.sleep(0.05)
        with pytest.raises(RetriesExhausted) as info:
            client.request("/b", method="POST", body=b"x")
        assert info.value.attempts == 1
        assert _OneShot.requests == ["GET"]
        # The failure dropped the connection: the next request opens one.
        assert client.request("/c").status == 200

    def test_the_resend_happens_once(self, one_shot, make_client, monkeypatch):
        client = make_client(one_shot)
        assert client.request("/a").status == 200
        time.sleep(0.05)
        monkeypatch.setattr(_OneShot, "answer", False)  # now: read, then hang up
        with pytest.raises(RetriesExhausted) as info:
            client.request("/b")
        assert info.value.attempts == 1
        # The stale connection never carried /b; the fresh one did, once.
        assert settled(lambda: len(_OneShot.requests) == 2)
        assert _OneShot.connections == 2
        # On a fresh connection there is nothing stale to blame: no resend.
        with pytest.raises(RetriesExhausted):
            client.request("/c")
        assert settled(lambda: len(_OneShot.requests) == 3)
        assert _OneShot.connections == 3

    def test_two_threads_use_two_sockets(self, single_file, make_client):
        srv, _ = single_file
        client = make_client(srv.base_url, use_etags=False)
        before = client.metric_value("ute_serve_connections_total")
        statuses = []

        def worker():
            for _ in range(5):
                statuses.append(client.request("/api/frames").status)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert statuses == [200] * 10
        assert len(client._connections) == 3  # this thread's, and one each
        assert len({id(conn.sock) for conn in client._connections.values()}) == 3
        assert client.metric_value("ute_serve_connections_total") - before == 2
        client.close()
        assert not client._connections
        assert client.request("/api/frames").status == 200  # re-opens on use

    def test_for_dataset_carries_every_configured_field(self):
        configured = dict(
            base_url="http://127.0.0.1:1/prefix", timeout=1.5, use_etags=False,
            retries=7, backoff=0.25, max_retry_seconds=2.0, dataset="alpha",
            tenant="greedy",
        )
        settable = {f.name for f in dataclasses.fields(ServeClient) if f.init}
        assert settable == set(configured)  # a new field needs a value here
        client = ServeClient(**configured)
        client._cache["/x"] = object()
        sibling = client.for_dataset("beta")
        for name in settable - {"dataset"}:
            assert getattr(sibling, name) == configured[name], name
        assert sibling.dataset == "beta" and sibling.api_base == "/api/d/beta"
        assert not sibling._cache and sibling._connections is not client._connections
