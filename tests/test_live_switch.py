"""The live→final switch, as every follower of a growing trace sees it.

``FollowReader`` is the one state machine behind ``ute-tail`` and every
served live dataset: it pins the newest epoch, survives losing its open to
finalization, switches to the assembled file, and refuses a file shorter
than what it already showed.  These tests pin the interleavings of that
switch — the open racing the writer's ``close()``, the follower's reader
after the switch, a finished file that lost frames — through both the
follower and the serving session.
"""

import os
import shutil

import pytest

from repro.core import standard_profile
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.errors import FormatError
from repro.live import FollowReader, LiveSlogWriter
from repro.live import reader as live_reader
from repro.live.container import live_dir_for
from repro.query import Query, TraceHandle, execute, open_trace, plan_query
from repro.repository import Repository
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.session import TraceSession

PROFILE = standard_profile()


def running(start, dura):
    return IntervalRecord(IntervalType.RUNNING, BeBits.COMPLETE, start, dura, 0, 0, 0)


def live_writer(path, n_records, start=0):
    """A live writer on ``path`` holding one published epoch of
    ``n_records`` records (small frames: several per epoch)."""
    writer = LiveSlogWriter(
        path, PROFILE, ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")]),
        field_mask=MASK_ALL_MERGED, frame_bytes=256,
    )
    for i in range(start, start + n_records):
        writer.write(running(i * 10, 5))
    writer.publish(seal=True)
    return writer


def query_rows(handle):
    """Every row of an unfiltered query over ``handle``."""
    query = Query()
    return execute(handle, query, plan_query(query, handle.frames, None))


@pytest.fixture()
def finalize_on_first_manifest_read(monkeypatch):
    """Make the writer's ``close()`` — assemble the file, drop ``.live/``
    — land between a reader's container check and its manifest read."""

    def arm(writer):
        real = live_reader.read_manifest

        def racing(live_dir):
            monkeypatch.setattr(live_reader, "read_manifest", real)
            writer.close()
            return real(live_dir)

        monkeypatch.setattr(live_reader, "read_manifest", racing)

    return arm


class TestOpenRacingFinalization:
    def test_session_serves_the_finished_file(self, tmp_path, finalize_on_first_manifest_read):
        path = tmp_path / "run.slog"
        writer = live_writer(path, 30)
        finalize_on_first_manifest_read(writer)
        session = TraceSession(path)
        try:
            assert not live_dir_for(path).exists()
            state = session.follow_state()
            assert state == {"live": False, "seq": 0, "finalized": True, "frames": state["frames"]}
            with open_trace(path) as handle:
                assert state["frames"] == len(handle.frames) > 1
            assert "live" not in session.etag_base
            assert len(query_rows(session.handle)) == 30
        finally:
            session.close()

    def test_request_answers_200_and_unpins(self, tmp_path, finalize_on_first_manifest_read):
        path = tmp_path / "run.slog"
        writer = live_writer(path, 30)
        repo = Repository(None)
        repo.attach("run", path)
        finalize_on_first_manifest_read(writer)
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            response = ServeClient(srv.base_url, dataset="run").request("/api/d/run/frames")
            assert response.status == 200
            with open_trace(path) as handle:
                assert response.json()["count"] == len(handle.frames)
            assert srv.repository._refs == {}


class TestFollowerReaderAcrossSwitch:
    def test_reader_is_the_finished_files_frame_store(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path, 20)
        follower = FollowReader(path, poll_interval=0.0)
        try:
            assert follower.poll().kind == "epoch"
            for i in range(20, 40):
                writer.write(running(i * 10, 5))
            writer.close()  # the follower never sees the final epoch
            kinds = []
            while not kinds or kinds[-1] != "final":
                kinds.append(follower.poll().kind)
            assert not follower.live
            handle = TraceHandle(path, follower.reader, "slog")
            with open_trace(path) as finished:
                assert query_rows(handle) == query_rows(finished)
                assert len(query_rows(finished)) == 40
        finally:
            follower.close()

    def test_governor_carries_over(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path, 20)
        follower = FollowReader(path)
        try:
            governor = object()
            follower.reader.governor = governor
            writer.close()
            assert follower.refresh()
            assert not follower.live and follower.reader.governor is governor
        finally:
            follower.close()


def replace_with_shorter_file(tmp_path, path, writer):
    """Drop the live container and put a one-frame finished trace at
    ``path``: a "finalization" that lost frames the follower showed."""
    short = live_writer(tmp_path / "short.slog", 2).close()
    shutil.rmtree(writer.live_dir)
    writer._closed = True  # container already gone; skip abort cleanup
    os.replace(short, path)


class TestShorterFileRefused:
    def test_follower_stays_on_the_view(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path, 40)
        follower = FollowReader(path)
        try:
            shown = len(follower.handle.frames)
            assert shown > 1
            replace_with_shorter_file(tmp_path, path, writer)
            with pytest.raises(FormatError, match="shorter than the followed stream"):
                follower.poll()
            assert follower.live and len(follower.handle.frames) == shown
        finally:
            follower.close()

    def test_served_dataset_answers_409(self, tmp_path):
        path = tmp_path / "run.slog"
        writer = live_writer(path, 40)
        repo = Repository(None)
        repo.attach("run", path)
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url, dataset="run")
            assert client.request("/api/d/run/frames").status == 200
            replace_with_shorter_file(tmp_path, path, writer)
            response = client.request("/api/d/run/frames")
            assert response.status == 409
            assert "shorter than the followed stream" in response.text
            assert repo.session("run").follow_state()["live"]
            assert srv.repository._refs == {}
