"""Per-frame degradation in ute-serve, and client retry-with-backoff.

A damaged frame must cost exactly itself: its endpoint answers a
structured 422 carrying the salvage probe, sibling frames keep answering
200, and ``/metrics`` counts the event.  The ``ServeClient`` retry knob
must stay off by default (load tests count raw 503s) and, when enabled,
re-attempt 503s and connection failures with backoff.
"""

import http.client
import http.server
import shutil
import socketserver
import threading
import urllib.error
from pathlib import Path

import pytest

from repro.serve.app import ServerThread
from repro.serve.client import RetriesExhausted, ServeClient
from repro.serve.session import FrameDecodeError, TraceSession


@pytest.fixture(scope="module")
def damaged_server(tmp_path_factory):
    slog = tmp_path_factory.mktemp("serve-salvage") / "flip-frame.slog"
    shutil.copyfile(Path(__file__).parent / "data" / "flip-frame.slog", slog)
    with ServerThread(slog) as server:
        yield server


@pytest.fixture()
def client(damaged_server):
    return ServeClient(damaged_server.base_url)


class TestPerFrameDegradation:
    def test_damaged_frame_answers_structured_422(self, corpus, client):
        bad = corpus.manifest["flip-frame.slog"]["damaged_frame"]
        response = client.request(f"/api/frame/{bad}")
        assert response.status == 422
        payload = response.json()
        assert payload["frame"] == bad
        assert payload["salvage"]["bytes_skipped"] > 0
        assert payload["salvage"]["regions"], "regions must name the damage"
        assert "error" in payload

    def test_sibling_frames_keep_serving(self, corpus, client):
        bad = corpus.manifest["flip-frame.slog"]["damaged_frame"]
        total = client.frames()["count"]
        assert total > 2
        for index in range(total):
            if index == bad:
                continue
            frame = client.frame(index)  # raises on non-2xx
            assert frame["records"]

    def test_arrows_of_damaged_frame_degrade_too(self, corpus, client):
        bad = corpus.manifest["flip-frame.slog"]["damaged_frame"]
        response = client.request(f"/api/arrows/{bad}")
        assert response.status == 422
        assert response.json()["frame"] == bad

    def test_metrics_count_the_salvage_events(self, corpus, client):
        bad = corpus.manifest["flip-frame.slog"]["damaged_frame"]
        before = client.metric_value("ute_serve_frame_salvage_total")
        assert client.request(f"/api/frame/{bad}").status == 422
        after = client.metric_value("ute_serve_frame_salvage_total")
        assert after == before + 1

    def test_session_raises_frame_decode_error(self, corpus, corpus_copy):
        session = TraceSession(corpus_copy("flip-frame.slog"))
        bad = corpus.manifest["flip-frame.slog"]["damaged_frame"]
        try:
            with pytest.raises(FrameDecodeError) as excinfo:
                session.frame_payload(bad)
            assert excinfo.value.index == bad
            assert excinfo.value.salvage["bytes_skipped"] > 0
            session.frame_payload(0)  # siblings unaffected
        finally:
            session.close()


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Answers 503 for the first ``fail_first`` requests, then 200."""

    fail_first = 2
    seen = 0

    def do_GET(self):  # noqa: N802 (stdlib naming)
        cls = type(self)
        cls.seen += 1
        if cls.seen <= cls.fail_first:
            self.send_response(503)
            self.send_header("Retry-After", "0.01")
            body = b"saturated\n"
        else:
            self.send_response(200)
            body = b'{"ok": true}'
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence stderr
        pass


@pytest.fixture()
def flaky_server():
    _FlakyHandler.seen = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join(timeout=5)


class _CutShort(socketserver.StreamRequestHandler):
    """Promises a 100-byte body, sends ten bytes of it and hangs up."""

    seen = 0

    def handle(self):
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        type(self).seen += 1
        self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789")


@pytest.fixture()
def cut_short_server(monkeypatch):
    monkeypatch.setattr(_CutShort, "seen", 0)
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _CutShort)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestClientRetry:
    def test_no_retry_by_default(self, flaky_server):
        client = ServeClient(flaky_server)
        assert client.request("/x").status == 503
        assert _FlakyHandler.seen == 1

    def test_bounded_retry_turns_503_into_200(self, flaky_server):
        client = ServeClient(flaky_server, retries=3, backoff=0.01)
        response = client.request("/x")
        assert response.status == 200
        assert _FlakyHandler.seen == 3  # two 503s + the success

    def test_retries_exhausted_surface_the_last_503(self, flaky_server):
        _FlakyHandler.fail_first = 10
        try:
            client = ServeClient(flaky_server, retries=2, backoff=0.01)
            assert client.request("/x").status == 503
            assert _FlakyHandler.seen == 3  # initial try + 2 retries
        finally:
            _FlakyHandler.fail_first = 2

    def test_connection_failure_retried_then_raised(self):
        client = ServeClient("http://127.0.0.1:9", timeout=0.2,
                             retries=2, backoff=0.01)
        with pytest.raises(urllib.error.URLError):
            client.request("/x")

    def test_a_body_cut_short_is_a_connection_failure(self, cut_short_server):
        """Not only a refused connection: a response that dies while its
        body is read takes the same path — retried with backoff, then one
        ``RetriesExhausted`` (it used to escape as a raw ``IncompleteRead``,
        un-retried)."""
        client = ServeClient(cut_short_server, retries=2, backoff=0.01)
        with pytest.raises(RetriesExhausted) as info:
            client.request("/x")
        assert info.value.attempts == 3 and _CutShort.seen == 3
        assert isinstance(info.value.__cause__, http.client.IncompleteRead)
        client = ServeClient(cut_short_server)  # retries off: fails at once
        with pytest.raises(urllib.error.URLError) as info:
            client.request("/x")
        assert info.value.attempts == 1 and _CutShort.seen == 4
