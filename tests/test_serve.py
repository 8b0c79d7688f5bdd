"""Tests for the trace-serving daemon (``repro.serve``)."""

import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.serve import ServeClient, ServerConfig, ServerThread, TraceSession
from repro.serve.metrics import Counter, Histogram, Registry
from repro.utils.slog import SlogWriter

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)
RECV = IntervalType.for_mpi_fn(1)


def make_slog(path, records, *, bins=10, frame_bytes=512):
    t1 = max((r.end for r in records), default=1)
    writer = SlogWriter(
        path, PROFILE,
        ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")]),
        field_mask=MASK_ALL_MERGED, time_range=(0, max(t1, 1)),
        preview_bins=bins, frame_bytes=frame_bytes, node_cpus={0: 2},
    )
    for rec_ in sorted(records, key=lambda r: r.end):
        writer.write(rec_)
    return writer.close()


def rec(itype=IntervalType.RUNNING, start=0, dura=100, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, 0, 0, 0, extra)


def message_records():
    """Several frames' worth of activity including matched messages."""
    records = []
    for i in range(40):
        t = i * 250
        records.append(rec(SEND, start=t, dura=90, msgSizeSent=64, seqno=i + 1))
        records.append(rec(RECV, start=t + 100, dura=80, msgSizeRecv=64, seqno=i + 1))
        records.append(rec(IntervalType.RUNNING, start=t + 190, dura=50))
    return records


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = make_slog(tmp_path_factory.mktemp("serve") / "run.slog", message_records())
    with ServerThread(path, ServerConfig(port=0)) as srv:
        yield srv, ServeClient(srv.base_url)


class TestEndpoints:
    def test_preview(self, served):
        _, client = served
        payload = client.preview()
        assert payload["bins"] == 10
        assert payload["time_range"][0] == pytest.approx(0.0)
        names = {s["name"] for s in payload["states"]}
        assert "MPI_Send" in names
        for state in payload["states"]:
            assert len(state["seconds"]) == payload["bins"]

    def test_frames_directory(self, served):
        srv, client = served
        directory = client.frames()
        assert directory["count"] == len(directory["frames"])
        assert directory["count"] >= 2  # frame_bytes=512 forces several frames
        for i, entry in enumerate(directory["frames"]):
            assert entry["index"] == i
            assert entry["end"] >= entry["start"]
            assert entry["bytes"] > 0

    def test_frame_records(self, served):
        _, client = served
        frame = client.frame(0)
        assert frame["index"] == 0
        assert frame["records"]
        for record in frame["records"]:
            assert record["end"] >= record["start"]
            assert isinstance(record["pseudo"], bool)

    def test_frame_with_view_payload(self, served):
        _, client = served
        frame = client.frame(0, view="thread")
        view = frame["view"]
        assert view["rows"] and view["states"]
        # The embedded view is clipped to the frame window.
        assert view["t0"] <= view["t1"]

    def test_frame_bad_view_kind(self, served):
        _, client = served
        response = client.request("/api/frame/0?view=bogus")
        assert response.status == 400
        assert "bogus" in response.json()["error"]

    def test_frame_out_of_range(self, served):
        _, client = served
        response = client.request("/api/frame/99999")
        assert response.status == 400

    def test_frame_non_integer_index(self, served):
        _, client = served
        response = client.request("/api/frame/zero")
        assert response.status == 400

    def test_arrows(self, served):
        _, client = served
        payload = client.arrows(0)
        assert payload["arrows"], "expected matched messages in frame 0"
        for arrow in payload["arrows"]:
            assert arrow["recv"] >= arrow["send"]
            assert arrow["bytes"] == 64

    def test_view_svg(self, served):
        _, client = served
        directory = client.frames()
        t_mid = (directory["frames"][0]["start"] + directory["frames"][0]["end"]) / 2
        svg = client.view_svg("thread", t_mid)
        assert svg.startswith("<svg")
        assert "MPI_Send" in svg

    def test_view_missing_t(self, served):
        _, client = served
        response = client.request("/api/view/thread")
        assert response.status == 400
        assert "'t'" in response.text

    def test_view_bad_kind(self, served):
        _, client = served
        response = client.request("/api/view/bogus?t=0.0")
        assert response.status == 400

    def test_stats_tsv(self, served):
        _, client = served
        response = client.stats('table name=n x=("node", node) y=("count", dura, count)')
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/tab-separated-values")
        lines = response.text.splitlines()
        assert lines[0] == "# table n"

    def test_stats_json(self, served):
        _, client = served
        response = client.stats(
            'table name=n x=("node", node) y=("count", dura, count)', format="json"
        )
        assert response.status == 200
        (table,) = response.json()["tables"]
        assert table["name"] == "n"
        assert table["rows"]

    def test_stats_malformed_program(self, served):
        _, client = served
        response = client.stats("table name=broken x=(")
        assert response.status == 400
        error = response.json()["error"]
        assert "line" in error and "column" in error

    def test_stats_missing_table_param(self, served):
        _, client = served
        response = client.request("/api/stats")
        assert response.status == 400

    def test_stats_unknown_format(self, served):
        _, client = served
        response = client.stats("table name=n", format="xml")
        assert response.status == 400

    def test_index_page(self, served):
        _, client = served
        response = client.request("/")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/html")
        # `/` is the default dataset's viewer: the page `/d/default/` serves.
        assert 'const API = "/api/d/default"' in response.text
        assert "<canvas" in response.text
        assert response.body == client.request("/d/default/").body

    def test_metrics(self, served):
        _, client = served
        text = client.metrics()
        assert "# TYPE ute_serve_requests_total counter" in text
        assert "ute_serve_frames " in text
        assert client.metric_value("ute_serve_frames") >= 2

    def test_not_found(self, served):
        _, client = served
        assert client.request("/api/nope").status == 404

    def test_path_traversal_rejected(self, served):
        _, client = served
        assert client.request("/api/../etc/passwd").status == 400
        assert client.request("/api/%2e%2e/etc/passwd").status == 400

    def test_post_rejected(self, served):
        srv, _ = served
        req = urllib.request.Request(
            srv.base_url + "/api/preview", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=5)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET, HEAD"

    def test_head_has_no_body(self, served):
        srv, _ = served
        req = urllib.request.Request(srv.base_url + "/api/preview", method="HEAD")
        with urllib.request.urlopen(req, timeout=5) as resp:
            assert resp.status == 200
            assert int(resp.headers["Content-Length"]) > 0
            assert resp.read() == b""


class TestETags:
    def test_revalidation_returns_304(self, served):
        srv, _ = served
        client = ServeClient(srv.base_url)
        first = client.request("/api/frames")
        second = client.request("/api/frames")
        assert first.status == 200
        assert second.status == 304
        # The client substituted the cached body, so payloads agree.
        assert json.loads(first.body) == json.loads(second.body)

    def test_304_has_etag_but_no_body(self, served):
        srv, _ = served
        url = srv.base_url + "/api/preview"
        with urllib.request.urlopen(url, timeout=5) as resp:
            etag = resp.headers["ETag"]
        req = urllib.request.Request(url, headers={"If-None-Match": etag})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=5)
        assert excinfo.value.code == 304
        assert excinfo.value.headers["ETag"] == etag
        assert excinfo.value.read() == b""

    def test_star_matches_any(self, served):
        srv, _ = served
        req = urllib.request.Request(
            srv.base_url + "/api/frames", headers={"If-None-Match": "*"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=5)
        assert excinfo.value.code == 304

    def test_distinct_resources_distinct_etags(self, served):
        _, client = served
        etags = set()
        for path in ("/api/preview", "/api/frames", "/api/frame/0", "/api/frame/1"):
            response = ServeClient(client.base_url, use_etags=False).request(path)
            etags.add(response.headers["etag"])
        assert len(etags) == 4

    def test_etag_is_strong_and_quoted(self, served):
        _, client = served
        response = ServeClient(client.base_url, use_etags=False).request("/api/preview")
        etag = response.headers["etag"]
        assert etag.startswith('"') and etag.endswith('"')
        assert not etag.startswith('W/')


class TestCapacity:
    def test_saturation_yields_503_with_retry_after(self, tmp_path):
        path = make_slog(tmp_path / "sat.slog", message_records())
        config = ServerConfig(port=0, max_concurrency=1, retry_after=7)
        with ServerThread(path, config) as srv:
            release = threading.Event()
            original = srv.server._h_preview

            def slow_preview(request):
                release.wait(timeout=10.0)
                return original(request)

            srv.server._h_preview = slow_preview
            first = threading.Thread(
                target=lambda: ServeClient(srv.base_url).request("/api/preview"),
                daemon=True,
            )
            first.start()
            for _ in range(100):  # wait until the slow request is admitted
                if srv.server._active >= 1:
                    break
                time.sleep(0.01)
            overflow = ServeClient(srv.base_url).request("/api/frames")
            release.set()
            first.join(timeout=10.0)
            assert overflow.status == 503
            assert overflow.headers["retry-after"] == "7"
            # With capacity free again the same request succeeds.
            assert ServeClient(srv.base_url).request("/api/frames").status == 200
            assert 'ute_serve_rejected_total{reason="saturated"} 1' in (
                ServeClient(srv.base_url).metrics()
            )

    def test_handler_timeout_yields_504(self, tmp_path):
        path = make_slog(tmp_path / "slow.slog", [rec(start=0, dura=100)])
        config = ServerConfig(port=0, request_timeout=0.05)
        with ServerThread(path, config) as srv:
            srv.server._h_preview = lambda request: time.sleep(0.5)
            response = ServeClient(srv.base_url).request("/api/preview")
            assert response.status == 504

    def test_oversized_query_param_rejected(self, tmp_path):
        path = make_slog(tmp_path / "big.slog", [rec(start=0, dura=100)])
        config = ServerConfig(port=0, max_param_bytes=64)
        with ServerThread(path, config) as srv:
            response = ServeClient(srv.base_url).request(
                "/api/stats?table=" + "x" * 200
            )
            assert response.status == 414


class TestConcurrentLoad:
    """Several analysts on one daemon, each a blocking client with its own
    ETag cache, sending a mixed stream: every request answers without a
    5xx, repeat fetches revalidate to 304, and the median stays under 1 s."""

    N_CLIENTS = 4
    N_REQUESTS = 12
    STATS = (
        "/api/stats?table=table%20name%3Dt%20x%3D%28%22node%22%2C%20node%29"
        "%20y%3D%28%22c%22%2C%20dura%2C%20count%29"
    )

    def _script(self, base_url, worker, n_frames, statuses, lock):
        client = ServeClient(base_url)
        local = []
        try:
            for step in range(self.N_REQUESTS):
                slot = (worker + step) % 6
                if slot == 0:
                    path = "/api/preview"
                elif slot == 1:
                    path = "/api/frames"
                elif slot == 2:
                    path = f"/api/arrows/{step % n_frames}"
                elif slot == 3:
                    path = self.STATS
                else:  # the hot path: frame fetches over a small working set
                    path = f"/api/frame/{(worker * 3 + step) % n_frames}"
                local.append(client.request(path).status)
        finally:
            client.close()
        with lock:
            statuses.extend(local)

    def test_mixed_clients_see_no_5xx(self, tmp_path):
        path = make_slog(tmp_path / "load.slog", message_records())
        statuses = []
        lock = threading.Lock()
        with ServerThread(path, ServerConfig(port=0, max_concurrency=32)) as srv:
            n_frames = srv.session.frame_count()
            assert n_frames >= 2
            threads = [
                threading.Thread(
                    target=self._script,
                    args=(srv.base_url, w, n_frames, statuses, lock), daemon=True,
                )
                for w in range(self.N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "a client hung"
            p50 = srv.server.m_latency.quantile(0.5)
        assert len(statuses) == self.N_CLIENTS * self.N_REQUESTS
        assert [s for s in statuses if s >= 500] == [], statuses
        assert 304 in statuses, "no repeat fetch revalidated"
        assert p50 < 1.0, f"median latency {p50:.3f}s is pathological"


class TestSessionAccounting:
    def test_frame_fetch_bounded_by_frame_size(self, tmp_path):
        """Serving one frame costs O(frame), not O(file)."""
        path = make_slog(tmp_path / "acct.slog", message_records())
        session = TraceSession(path)
        try:
            entries = session.viewer.slog.frames
            assert len(entries) >= 2
            before = session.stats()["bytes_fetched"]
            session.frame_payload(1)
            delta = session.stats()["bytes_fetched"] - before
            assert 0 < delta <= entries[1].size
            # A second read of the same frame is a pure cache hit.
            hits = session.stats()["hits"]
            session.frame_payload(1)
            assert session.stats()["bytes_fetched"] == before + delta
            assert session.stats()["hits"] == hits + 1
        finally:
            session.close()

    def test_stats_keys_unified(self, tmp_path):
        path = make_slog(tmp_path / "keys.slog", [rec(start=0, dura=100)])
        session = TraceSession(path)
        try:
            stats = session.stats()
            assert set(stats) >= {"hits", "misses", "fetch_count", "bytes_fetched"}
        finally:
            session.close()


class TestQueryEndpoint:
    def test_query_without_index_is_full_scan(self, served):
        """No sidecar next to the served file: /api/query still answers,
        plan mode says full-scan, and the fallback metric counts it."""
        _, client = served
        response = client.request("/api/query?thread=0&limit=5")
        assert response.status == 200
        payload = response.json()
        assert payload["plan"]["mode"] == "full-scan"
        assert payload["columns"][:2] == ["start", "end"]
        assert 0 < len(payload["rows"]) <= 5
        assert "x-ute-bytes-read" in {k.lower() for k in response.headers}
        assert client.metric_value("ute_serve_index_fallback_total") >= 1
        assert client.metric_value("ute_serve_index_loaded") == 0

    def test_query_bad_params(self, served):
        _, client = served
        assert client.request("/api/query?agg=median:x&group_by=node").status == 400
        assert client.request("/api/query?window=zzz").status == 400
        assert client.request("/api/query?node=abc").status == 400
        assert client.request("/api/query?format=xml").status == 400

    def test_stats_window_param(self, served):
        _, client = served
        program = 'table name=n x=("node", node) y=("count", dura, count)'
        full = client.request(
            "/api/stats?format=json&table=" + urllib.parse.quote(program)
        )
        windowed = client.request(
            "/api/stats?format=json&window=0:100&table=" + urllib.parse.quote(program)
        )
        assert full.status == windowed.status == 200
        assert windowed.json()["plan"]["frames_selected"] <= full.json()["plan"][
            "frames_selected"
        ]
        assert "io" in windowed.json()

    def test_view_reports_bytes_read(self, served):
        _, client = served
        response = client.request("/api/view/thread?t=0.0000001")
        assert response.status == 200
        headers = {k.lower(): v for k, v in response.headers.items()}
        assert int(headers["x-ute-bytes-read"]) >= 0


class TestServedIndex:
    @pytest.fixture(scope="class")
    def indexed_served(self, tmp_path_factory):
        from repro.query import build_index, index_path_for, open_trace, write_index

        path = make_slog(
            tmp_path_factory.mktemp("serve-idx") / "run.slog", message_records()
        )
        with open_trace(path) as handle:
            write_index(build_index(handle), index_path_for(path))
        with ServerThread(path, ServerConfig(port=0)) as srv:
            yield srv, ServeClient(srv.base_url)

    def test_indexed_query_prunes(self, indexed_served):
        srv, client = indexed_served
        assert client.metric_value("ute_serve_index_loaded") == 1
        full = client.request("/api/query").json()
        windowed = client.request("/api/query?window=0:0.0000002").json()
        assert full["plan"]["mode"] == "indexed"
        assert windowed["plan"]["mode"] == "indexed"
        assert windowed["plan"]["frames_pruned"] > 0
        assert (
            windowed["plan"]["frames_selected"] < windowed["plan"]["frames_total"]
        )
        assert client.metric_value("ute_serve_index_frames_pruned_total") > 0
        assert client.metric_value("ute_serve_index_frames_scanned_total") > 0

    def test_indexed_and_full_rows_identical(self, indexed_served):
        """The served index prunes frames but never changes rows: a windowed
        query answered through the index matches the full-scan record set
        filtered client-side."""
        _, client = indexed_served
        windowed = client.request("/api/query?window=0:0.0000002").json()
        everything = client.request("/api/query").json()
        start_i = everything["columns"].index("start")
        end_i = everything["columns"].index("end")
        t1_ticks = 0.0000002 * everything["ticks_per_sec"]
        expected = [
            row for row in everything["rows"]
            if row[start_i] <= t1_ticks and row[end_i] >= 0
        ]
        assert windowed["rows"] == expected

    def test_query_tsv_format(self, indexed_served):
        _, client = indexed_served
        response = client.request("/api/query?format=tsv&limit=3")
        assert response.status == 200
        headers = {k.lower(): v for k, v in response.headers.items()}
        assert headers["content-type"].startswith("text/tab-separated-values")
        lines = response.text.splitlines()
        assert lines[0].split("\t")[0] == "start"
        assert len(lines) == 4

    def test_grouped_query(self, indexed_served):
        _, client = indexed_served
        payload = client.request("/api/query?group_by=type&agg=count,sum:dura").json()
        assert payload["columns"] == ["type", "count", "sum(dura)"]
        assert payload["rows"]


class TestEvictionAccounting:
    def test_evictions_counted_and_exported(self, tmp_path):
        """A 1-frame cache evicts on every distinct frame decode; the
        counter must say so and /metrics must export it."""
        path = make_slog(tmp_path / "evict.slog", message_records())
        session = TraceSession(path, cache_frames=1)
        try:
            n = min(3, len(session.viewer.slog.frames))
            assert n >= 2
            for i in range(n):
                session.frame_payload(i)
            stats = session.stats()
            assert "evictions" in stats
            assert stats["evictions"] == n - 1
        finally:
            session.close()
        with ServerThread(
            path, ServerConfig(port=0, cache_frames=1)
        ) as srv:
            client = ServeClient(srv.base_url)
            client.frame(0)
            client.frame(1)
            assert client.metric_value("ute_serve_frame_cache_evictions_total") >= 1


class TestMetricsPrimitives:
    def test_counter_labels(self):
        counter = Counter("c_total", "help", ("route",))
        counter.inc(route="/a")
        counter.inc(2, route="/a")
        counter.inc(route="/b")
        assert counter.value(route="/a") == 3
        assert counter.value(route="/b") == 1
        text = "\n".join(counter.render())
        assert 'c_total{route="/a"} 3' in text

    def test_histogram_buckets_cumulative(self):
        hist = Histogram("h_seconds", "help", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            hist.observe(v)
        text = "\n".join(hist.render())
        assert 'h_seconds_bucket{le="0.1"} 1' in text
        assert 'h_seconds_bucket{le="1"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text

    def test_histogram_quantile(self):
        hist = Histogram("q_seconds", "help", buckets=(0.1, 1.0, 5.0))
        for v in (0.05,) * 9 + (2.0,):
            hist.observe(v)
        assert hist.quantile(0.5) <= 0.1
        assert hist.quantile(0.99) > 1.0

    def test_registry_renders_gauges(self):
        registry = Registry()
        registry.gauge("g_now", "help", lambda: 42)
        text = registry.render()
        assert "# TYPE g_now gauge" in text
        assert "g_now 42" in text

    def test_label_escaping(self):
        counter = Counter("e_total", "help", ("path",))
        counter.inc(path='a"b\\c\nd')
        text = "\n".join(counter.render())
        assert '\\"' in text and "\\\\" in text and "\\n" in text
