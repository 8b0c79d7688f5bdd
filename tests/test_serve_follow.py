"""Tests for the follow endpoints (``/follow/*``) and live sessions.

A live dataset (attached while only its ``<path>.live/`` container
exists) must serve every ordinary endpoint against the last published
epoch, push epoch/final events over SSE, answer long-polls under
per-epoch ETags, and hot-swap to the finished file when the writer
closes — all without the session leaving the pool.
"""

import logging
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.live import LiveSlogWriter
from repro.repository import Repository
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.client import RetriesExhausted

PROFILE = standard_profile()


def table():
    return ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")])


def running(start, dura):
    return IntervalRecord(
        IntervalType.RUNNING, BeBits.COMPLETE, start, dura, 0, 0, 0
    )


@pytest.fixture()
def live_served(tmp_path):
    """A live writer with one published epoch, served as dataset 'run'."""
    path = tmp_path / "run.slog"
    writer = LiveSlogWriter(
        path, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=512,
    )
    for i in range(20):
        writer.write(running(i * 10, 5))
    writer.publish(seal=True)  # epoch 1
    repo = Repository(None)
    repo.attach("run", path)
    with ServerThread(repo, ServerConfig(port=0)) as srv:
        yield srv, ServeClient(srv.base_url, dataset="run"), writer
    if not writer._closed:
        writer.abort()


class TestLiveSessions:
    def test_ordinary_endpoints_serve_the_epoch(self, live_served):
        _, client, _writer = live_served
        frames = client.frames()
        assert frames["count"] >= 1
        preview = client.preview()
        assert preview["bins"] > 0
        rows = client.query({"type": str(int(IntervalType.RUNNING))}).json()
        assert len(rows["rows"]) == 20

    def test_hot_reload_on_publish(self, live_served):
        _, client, writer = live_served
        for i in range(20, 40):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)  # epoch 2
        rows = client.query({"type": str(int(IntervalType.RUNNING))}).json()
        assert len(rows["rows"]) == 40

    def test_etag_changes_per_epoch(self, live_served):
        srv, client, writer = live_served
        url = f"{srv.base_url}/api/d/run/frames"
        with urllib.request.urlopen(url) as resp:
            etag1 = resp.headers["ETag"]
        writer.write(running(500, 5))
        writer.publish(seal=True)
        with urllib.request.urlopen(url) as resp:
            etag2 = resp.headers["ETag"]
        assert etag1 != etag2 and "live" in etag1

    def test_finalization_swaps_session_in_place(self, live_served):
        _, client, writer = live_served
        writer.close()
        state = client.follow_poll(since=-1, wait=0.1)
        assert state["finalized"] and not state["live"]
        rows = client.query({"type": str(int(IntervalType.RUNNING))}).json()
        assert len(rows["rows"]) == 20


    def test_protocol_violation_is_409_and_unpins(self, live_served):
        from repro.errors import FormatError

        srv, client, _writer = live_served

        def violated():
            raise FormatError("epoch sequence went backwards")

        srv.repository.session("run").maybe_refresh = violated
        response = client.request("/api/d/run/frames")
        assert response.status == 409
        assert "epoch sequence went backwards" in response.text
        assert srv.repository._refs == {}


class TestFollowPoll:
    def test_poll_reports_current_epoch(self, live_served):
        _, client, _writer = live_served
        state = client.follow_poll(since=-1, wait=0.1)
        assert state["live"] and state["seq"] == 1 and state["changed"]
        assert state["frames"] >= 1

    def test_poll_blocks_until_publish(self, live_served):
        _, client, writer = live_served

        def publish_soon():
            time.sleep(0.2)
            writer.write(running(500, 5))
            writer.publish(seal=True)

        thread = threading.Thread(target=publish_soon)
        thread.start()
        t0 = time.monotonic()
        state = client.follow_poll(since=1, wait=5.0)
        elapsed = time.monotonic() - t0
        thread.join()
        assert state["seq"] == 2 and state["changed"]
        assert 0.1 < elapsed < 5.0

    def test_per_epoch_etag_revalidation(self, live_served):
        srv, client, _writer = live_served
        url = f"{srv.base_url}/api/d/run/follow/poll?since=-1&wait=0.1"
        with urllib.request.urlopen(url) as resp:
            etag = resp.headers["ETag"]
        request = urllib.request.Request(url, headers={"If-None-Match": etag})
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 304

    def test_bad_since_is_400(self, live_served):
        srv, _client, _writer = live_served
        url = f"{srv.base_url}/api/d/run/follow/poll?since=banana"
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url)
        assert info.value.code == 400


class TestFollowSse:
    def test_stream_sees_epochs_then_final(self, live_served):
        srv, client, writer = live_served
        events = []

        def follow():
            fc = ServeClient(srv.base_url, dataset="run")
            for event in fc.follow_events(
                mode="preview", since=1, params={"poll": "0.02"}
            ):
                events.append(event)

        thread = threading.Thread(target=follow)
        thread.start()
        time.sleep(0.2)
        for i in range(20, 30):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        time.sleep(0.2)
        writer.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        kinds = [e.event for e in events]
        assert "epoch" in kinds and kinds[-1] == "final"
        seqs = [e.seq for e in events if e.event == "epoch"]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        epoch = next(e for e in events if e.event == "epoch")
        assert epoch.data["preview"]["bins"] > 0
        assert epoch.data["frames"] >= 1

    def test_query_mode_carries_results(self, live_served):
        srv, _client, writer = live_served
        fc = ServeClient(srv.base_url, dataset="run")
        writer.publish(final=True)  # finalize the container in place
        events = list(
            fc.follow_events(
                mode="query",
                since=-1,
                params={"type": str(int(IntervalType.RUNNING)), "poll": "0.02"},
            )
        )
        kinds = [e.event for e in events]
        assert kinds == ["epoch", "final"]
        assert len(events[0].data["query"]["rows"]) == 20

    def test_finished_dataset_streams_one_epoch(self, tmp_path):
        path = tmp_path / "done.slog"
        with LiveSlogWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=512,
        ) as writer:
            for i in range(10):
                writer.write(running(i * 10, 5))
        repo = Repository(None)
        repo.attach("done", path)
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            fc = ServeClient(srv.base_url, dataset="done")
            events = list(fc.follow_events(mode="preview", since=-1))
            assert [e.event for e in events] == ["epoch", "final"]
            assert not events[0].data["live"]

    def test_stream_timeout_event(self, live_served):
        srv, _client, _writer = live_served
        fc = ServeClient(srv.base_url, dataset="run")
        events = list(
            fc.follow_events(
                mode="preview", since=1,
                params={"poll": "0.02", "max_s": "0.1"},
            )
        )
        assert [e.event for e in events] == ["timeout"]

    def test_follow_metrics_exported(self, live_served):
        srv, client, writer = live_served
        fc = ServeClient(srv.base_url, dataset="run")
        writer.publish(final=True)
        list(fc.follow_events(mode="preview", since=-1))
        metrics = client.metrics()
        assert 'ute_serve_follow_events_total{dataset="run",kind="epoch"}' in metrics
        assert 'ute_serve_follow_events_total{dataset="run",kind="final"}' in metrics


def open_follower(srv, query):
    """An SSE follower that has read the stream's opening comment."""
    resp = urllib.request.urlopen(
        f"{srv.base_url}/api/d/run/follow/preview?{query}", timeout=10
    )
    assert resp.readline().startswith(b": ute-serve follow stream")
    return resp


class TestIdleFollowersAreFree:
    def test_frames_unaffected_by_idle_followers(self, live_served):
        """Idle followers wait on the event loop, not on executor workers:
        twice the default executor's worker count of them (the writer is
        stalled, nothing to stream) must not delay an ordinary request."""
        srv, client, _writer = live_served
        n = 2 * (os.cpu_count() + 4)
        followers = [open_follower(srv, "since=1&poll=0.05&max_s=4") for _ in range(n)]
        try:
            deadline = time.monotonic() + 5
            while srv.server._follow_active < n and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.metric_value("ute_serve_follow_streams") == n
            plain = ServeClient(srv.base_url, dataset="run", use_etags=False)
            for _ in range(10):
                t0 = time.monotonic()
                assert plain.frames()["count"] >= 1
                assert time.monotonic() - t0 < 1.0
            # Every stream ends with its own timeout event; the gauge drains.
            for resp in followers:
                assert b"event: timeout" in resp.read()
        finally:
            for resp in followers:
                resp.close()
        deadline = time.monotonic() + 5
        while srv.server._follow_active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.metric_value("ute_serve_follow_streams") == 0


class TestStopWithOpenStreams:
    def test_no_traceback_no_leaked_pin(self, tmp_path, caplog):
        """Stopping the server cancels connection tasks whose stream may be
        mid-pull on a worker: the pull is waited for, then the stream is
        closed — no "generator already executing", every pin released."""
        path = tmp_path / "run.slog"
        writer = LiveSlogWriter(
            path, PROFILE, table(), field_mask=MASK_ALL_MERGED, frame_bytes=512,
        )
        for i in range(20):
            writer.write(running(i * 10, 5))
        writer.publish(seal=True)
        repo = Repository(None)
        repo.attach("run", path)
        pins = {"acquire": 0, "release": 0}
        acquire, release = repo.acquire, repo.release

        def counted_acquire(name):
            pins["acquire"] += 1
            return acquire(name)

        def counted_release(name):
            pins["release"] += 1
            return release(name)

        repo.acquire, repo.release = counted_acquire, counted_release
        try:
            with caplog.at_level(logging.DEBUG):
                with ServerThread(repo, ServerConfig(port=0)) as srv:
                    # Slow pulls: a cancel is all but certain to land on one.
                    session = repo.session("run")
                    follow_state = session.follow_state

                    def slow_follow_state():
                        time.sleep(0.2)
                        return follow_state()

                    session.follow_state = slow_follow_state
                    followers = [
                        open_follower(srv, "since=1&poll=0.02") for _ in range(2)
                    ]
                    deadline = time.monotonic() + 5
                    while srv.server._follow_active < 2 and time.monotonic() < deadline:
                        time.sleep(0.01)
                    assert srv.server._follow_active == 2
                    time.sleep(0.1)
                    server = srv.server
                for resp in followers:
                    resp.close()
            assert "Traceback" not in caplog.text
            assert "generator already executing" not in caplog.text
            assert server._follow_active == 0
            assert pins["acquire"] == pins["release"] > 0
        finally:
            writer.abort()


class TestClientRetryBudget:
    def test_wall_clock_cap_on_connection_retries(self):
        client = ServeClient(
            "http://127.0.0.1:9",  # discard port: connection refused
            retries=1000,
            backoff=0.05,
            max_retry_seconds=0.3,
        )
        t0 = time.monotonic()
        with pytest.raises(RetriesExhausted) as info:
            client.frames()
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        assert info.value.attempts >= 2
        assert info.value.elapsed == pytest.approx(elapsed, abs=2.0)
        # Still catchable as the URLError callers already handle.
        assert isinstance(info.value, urllib.error.URLError)

    def test_zero_budget_fails_fast(self):
        client = ServeClient(
            "http://127.0.0.1:9", retries=1000, max_retry_seconds=0.0,
        )
        with pytest.raises(RetriesExhausted) as info:
            client.frames()
        assert info.value.attempts == 1
