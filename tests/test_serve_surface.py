"""The serving surface is declared once (``repro.serve.app.ROUTES``,
``REPOSITORY_GAUGES``, ``Repository.metrics()``): these tests hold the
docs, the un-prefixed aliases, the validators and ``/metrics`` to that
one declaration.
"""

import re
import urllib.parse
from pathlib import Path

import pytest

from repro.query import build_index, index_path_for, open_trace, write_index
from repro.repository import Repository
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve import app as serve_app
from repro.serve.app import ROUTES, match_route
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

#: The metric families of the parent commit (PR 16), in exposition order.
FAMILIES = """
ute_serve_requests_total ute_serve_request_seconds ute_serve_rejected_total
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

#: What the parent commit printed after ``SCRIPT`` (every sample that does
#: not depend on timing).
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
ute_serve_memory_budget_bytes 3000
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
        repo = Repository(root, build_indexes=False, budget_bytes=3000, cache_frames=2)
        with ServerThread(repo, ServerConfig(port=0, memory_budget_bytes=3000)) as srv:
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
        assert len(families) == 26
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
