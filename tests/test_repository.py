"""Tests for the multi-trace repository behind ``ute-serve``.

Covers the dataset registry (register/attach/manifest/crash sweep), the
lazy session pool and its global memory budget (LRU eviction, monotonic
aggregate counters, per-dataset ETags), per-tenant quotas, the upload
endpoint, legacy route aliasing, background index builds, and the remote
``--server`` mode of ``ute-query``/``ute-stats``.
"""

import json
import os
import socket
import statistics
import threading
import time
import urllib.parse

import pytest

from repro import cli
from repro.core import standard_profile
from repro.core.atomicio import AtomicFile, is_temp_artifact
from repro.core.fields import MASK_ALL_MERGED
from repro.core.records import BeBits, IntervalRecord, IntervalType
from repro.core.threadtable import ThreadEntry, ThreadTable
from repro.repository import (
    DEFAULT_DATASET,
    INDEX_FAILED,
    INDEX_NONE,
    INDEX_READY,
    DatasetExists,
    Repository,
    RepositoryError,
    TenantQuotas,
    check_dataset_name,
)
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.utils.slog import SlogWriter

PROFILE = standard_profile()
SEND = IntervalType.for_mpi_fn(0)
RECV = IntervalType.for_mpi_fn(1)


def rec(itype=IntervalType.RUNNING, start=0, dura=100, **extra):
    return IntervalRecord(itype, BeBits.COMPLETE, start, dura, 0, 0, 0, extra)


def make_slog(path, *, n=40, bins=10, frame_bytes=512):
    records = []
    for i in range(n):
        t = i * 250
        records.append(rec(SEND, start=t, dura=90, msgSizeSent=64, seqno=i + 1))
        records.append(rec(RECV, start=t + 100, dura=80, msgSizeRecv=64, seqno=i + 1))
        records.append(rec(IntervalType.RUNNING, start=t + 190, dura=50))
    t1 = max(r.end for r in records)
    writer = SlogWriter(
        path, PROFILE,
        ThreadTable([ThreadEntry(0, 100, 5000, 0, 0, 0, "rank-0")]),
        field_mask=MASK_ALL_MERGED, time_range=(0, t1),
        preview_bins=bins, frame_bytes=frame_bytes, node_cpus={0: 2},
    )
    for record in sorted(records, key=lambda r: r.end):
        writer.write(record)
    return writer.close()


@pytest.fixture(scope="module")
def slog_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("repo-src") / "run.slog"
    make_slog(path)
    return path.read_bytes()


def _walk_all_frames(session) -> int:
    """Decode every frame through the serving path; return frame count."""
    count = session.frame_count()
    for i in range(count):
        session.frame_payload(i)
    return count


def _full_session_bytes(root, name) -> int:
    """Resident cache bytes of one session that has decoded every frame."""
    repo = Repository(root, build_indexes=False)
    session = repo.session(name)
    _walk_all_frames(session)
    resident = session.resident_bytes()
    repo.close()
    assert resident > 0
    return resident


def _run_in_child(fn) -> int:
    """Fork, run ``fn`` in the child (which must ``os._exit``), and return
    the child's exit status."""
    pid = os.fork()
    if pid == 0:
        try:
            fn()
        finally:
            os._exit(1)  # fn is expected to _exit itself; never fall through
    _pid, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


# --------------------------------------------------------------- registry


class TestRegistry:
    def test_register_names_info(self, tmp_path, slog_bytes):
        repo = Repository(tmp_path / "root", build_indexes=False)
        repo.register("alpha", data=slog_bytes)
        repo.register("beta", data=slog_bytes)
        assert repo.names() == ["alpha", "beta"]
        assert repo.has("alpha") and not repo.has("gamma")
        info = {d["name"]: d for d in repo.info()}
        assert info["alpha"]["bytes"] == len(slog_bytes)
        assert info["alpha"]["managed"] is True
        assert info["alpha"]["open"] is False
        assert (tmp_path / "root" / "alpha" / "trace.slog").is_file()
        repo.close()

    def test_register_duplicate(self, tmp_path, slog_bytes):
        repo = Repository(tmp_path / "root", build_indexes=False)
        repo.register("alpha", data=slog_bytes)
        with pytest.raises(DatasetExists):
            repo.register("alpha", data=slog_bytes)
        repo.close()

    @pytest.mark.parametrize(
        "name", ["", ".hidden", "../escape", "a/b", "sp ace", "x" * 101]
    )
    def test_bad_names(self, name):
        with pytest.raises(RepositoryError):
            check_dataset_name(name)

    def test_rootless_rejects_register(self, slog_bytes):
        repo = Repository(None)
        with pytest.raises(RepositoryError, match="no root"):
            repo.register("alpha", data=slog_bytes)
        repo.close()

    def test_register_rejects_garbage(self, tmp_path):
        repo = Repository(tmp_path / "root", build_indexes=False)
        with pytest.raises(RepositoryError):
            repo.register("junk", data=b"this is not a slog file")
        assert repo.names() == []
        assert not (tmp_path / "root" / "junk").exists()
        repo.close()

    def test_register_from_source(self, tmp_path, slog_bytes):
        src = tmp_path / "copy-me.slog"
        src.write_bytes(slog_bytes)
        repo = Repository(tmp_path / "root", build_indexes=False)
        dataset = repo.register("alpha", source=src)
        assert dataset.managed and dataset.bytes == len(slog_bytes)
        repo.close()

    def test_attach_missing_file(self, tmp_path):
        repo = Repository(None)
        with pytest.raises(RepositoryError, match="not found"):
            repo.attach("alpha", tmp_path / "nope.slog")
        repo.close()

    def test_manifest_survives_reopen(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("alpha", data=slog_bytes)
        repo.register("beta", data=slog_bytes)
        repo.close()
        reopened = Repository(root, build_indexes=False)
        assert reopened.names() == ["alpha", "beta"]
        session = reopened.session("alpha")
        assert session.frame_count() >= 2
        reopened.close()

    def test_default_resolution(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        assert repo.default is None
        repo.register("zeta", data=slog_bytes)
        repo.register("alpha", data=slog_bytes)
        assert repo.default == "alpha"  # sorted-first fallback
        repo.register(DEFAULT_DATASET, data=slog_bytes)
        assert repo.default == DEFAULT_DATASET
        repo.close()
        pinned = Repository(root, build_indexes=False, default_dataset="zeta")
        assert pinned.default == "zeta"
        pinned.close()


# ----------------------------------------------------------- crash safety


class TestCrashSafety:
    def test_startup_sweeps_upload_debris(self, tmp_path, slog_bytes):
        """An upload killed between its data commit and its manifest
        commit leaves an unmanifested dataset directory (plus whatever
        temp artifacts were in flight); the next startup removes both
        without touching the surviving dataset."""
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("alpha", data=slog_bytes)
        repo.close()

        def child():
            crashing = Repository(root, build_indexes=False)
            # Die exactly between the data commit and the manifest
            # commit — the window register() closes via ordering.
            crashing._save_manifest = lambda: os._exit(3)
            # Also leave an uncommitted temp sibling, as a killed
            # atomic write would.
            AtomicFile(root / "alpha" / "stray.bin").write(b"half")
            crashing.register("beta", data=slog_bytes)
            os._exit(4)  # not reached: _save_manifest exits first

        assert _run_in_child(child) == 3
        # The debris is on disk before the sweep...
        assert (root / "beta" / "trace.slog").is_file()
        assert any(is_temp_artifact(p) for p in root.rglob("*") if p.is_file())
        # ...and gone after it, with the survivor intact.
        swept = Repository(root, build_indexes=False)
        assert swept.names() == ["alpha"]
        assert not (root / "beta").exists()
        assert not any(is_temp_artifact(p) for p in root.rglob("*") if p.is_file())
        assert swept.session("alpha").frame_count() >= 2
        swept.close()

    def test_manifest_entry_with_missing_data_is_dropped(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("alpha", data=slog_bytes)
        repo.register("beta", data=slog_bytes)
        repo.close()
        (root / "beta" / "trace.slog").unlink()
        reopened = Repository(root, build_indexes=False)
        assert reopened.names() == ["alpha"]
        reopened.close()


# --------------------------------------------- session pool + memory budget


class TestSessionBudget:
    @pytest.fixture()
    def roots(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        for name in ("d0", "d1", "d2", "d3"):
            repo.register(name, data=slog_bytes)
        repo.close()
        return root

    def test_lru_order_and_touch(self, roots):
        repo = Repository(roots, build_indexes=False)
        for name in ("d0", "d1", "d2"):
            repo.session(name)
        assert repo.open_sessions() == ["d0", "d1", "d2"]
        repo.session("d0")  # touch: hottest moves to the end
        assert repo.open_sessions() == ["d1", "d2", "d0"]
        repo.close()

    def test_budget_evicts_lru_sessions(self, roots):
        """Four datasets walked under a budget that fits roughly one
        session's frames: cold sessions are evicted in LRU order, the
        aggregate stays within budget, and every counter is monotonic."""
        one = _full_session_bytes(roots, "d0")
        repo = Repository(roots, budget_bytes=int(one * 1.5), build_indexes=False)
        names = ["d0", "d1", "d2", "d3"]
        frames = 0
        for name in names:
            session = repo.acquire(name)
            try:
                frames += _walk_all_frames(session)
            finally:
                repo.release(name)
            # The admission governor keeps the aggregate under budget at
            # every instant, so certainly at request boundaries.
            assert repo.resident_bytes() <= repo.budget_bytes
        assert repo.sessions_evicted >= 2
        # Survivors are the most recently used.
        survivors = repo.open_sessions()
        assert survivors == names[len(names) - len(survivors):]
        stats = repo.metrics()
        assert stats["misses"] == frames  # every frame decoded once
        assert stats["evictions"] > 0  # evicted sessions published theirs
        assert stats["sessions_evicted"] == repo.sessions_evicted
        assert stats["sessions_open"] == len(survivors)
        assert stats["resident_bytes"] == repo.resident_bytes()
        assert sum(stats["dataset_resident_bytes"].values()) == stats["resident_bytes"]
        # Monotonic: folding retired counters means re-opening an evicted
        # dataset never makes an aggregate go backwards.
        before = repo.metrics()
        session = repo.acquire("d0")  # was evicted; re-opens on demand
        try:
            session.frame_payload(0)
        finally:
            repo.release("d0")
        after = repo.metrics()
        for key in (
            "hits", "misses", "evictions", "fetch_count", "bytes_fetched",
            "index_scanned", "index_pruned", "index_fallbacks",
        ):
            assert after[key] >= before[key], key
        repo.close()

    def test_pinned_session_survives_enforcement(self, roots):
        one = _full_session_bytes(roots, "d0")
        repo = Repository(roots, budget_bytes=max(1, one // 2), build_indexes=False)
        session = repo.acquire("d0")
        try:
            _walk_all_frames(session)
            # d0 is pinned: enforcement may shrink its cache but must not
            # close it while the request is in flight.
            repo.enforce_budget()
            assert "d0" in repo.open_sessions()
            session.frame_payload(0)  # still usable
        finally:
            repo.release("d0")
        repo.close()

    def test_eviction_metrics_via_server(self, roots):
        one = _full_session_bytes(roots, "d0")
        config = ServerConfig(port=0, memory_budget_bytes=int(one * 1.2))
        with ServerThread(Repository(roots, budget_bytes=int(one * 1.2),
                                     build_indexes=False), config) as srv:
            client = ServeClient(srv.base_url)
            for name in ("d0", "d1", "d2", "d3"):
                scoped = client.for_dataset(name)
                count = scoped.frames()["count"]
                for i in range(count):
                    scoped.frame(i)
                resident = client.metric_value("ute_serve_frame_cache_resident_bytes")
                assert resident <= client.metric_value("ute_serve_memory_budget_bytes")
            assert client.metric_value("ute_serve_sessions_evicted_total") >= 1
            assert client.metric_value("ute_serve_frame_cache_evictions_total") > 0
            assert client.metric_value("ute_serve_sessions_open") < 4


# ------------------------------------------------------------------ ETags


class TestDatasetEtags:
    def test_identical_files_get_distinct_etags(self, tmp_path, slog_bytes):
        """Two datasets with byte-identical files and identical mtimes
        must not share validators: an If-None-Match for one dataset's
        frames can never 304 against the other's."""
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("a", data=slog_bytes)
        repo.register("b", data=slog_bytes)
        when = 1_700_000_000
        os.utime(root / "a" / "trace.slog", (when, when))
        os.utime(root / "b" / "trace.slog", (when, when))
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url)
            etag_a = client.request("/api/d/a/frames").headers["etag"]
            etag_b = client.request("/api/d/b/frames").headers["etag"]
            assert etag_a != etag_b
            assert etag_a.strip('"').startswith("a-")
            assert etag_b.strip('"').startswith("b-")
            # Cross-replay: one dataset's validator never matches the other.
            crossed = client.request(
                "/api/d/b/frames", headers={"If-None-Match": etag_a}
            )
            assert crossed.status == 200


# ----------------------------------------------------------------- quotas


class TestQuotas:
    def test_bucket_paces_and_reports_wait(self):
        quotas = TenantQuotas(default_rps=10.0, burst=2)
        assert quotas.enabled
        now = 100.0
        assert quotas.try_acquire("t", now=now) is None
        assert quotas.try_acquire("t", now=now) is None
        wait = quotas.try_acquire("t", now=now)
        assert wait is not None and 0 < wait <= 0.1
        # Tokens regenerate with time; other tenants are independent.
        assert quotas.try_acquire("t", now=now + 0.2) is None
        assert quotas.try_acquire("other", now=now) is None

    def test_disabled_by_default(self):
        quotas = TenantQuotas()
        assert not quotas.enabled
        assert quotas.rate_for("anyone") == 0.0

    def test_overrides(self):
        quotas = TenantQuotas(default_rps=100.0, overrides={"slow": 1.0})
        assert quotas.rate_for("slow") == 1.0
        assert quotas.rate_for("fast") == 100.0

    def test_server_sheds_429_with_retry_after(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("a", data=slog_bytes)
        config = ServerConfig(port=0, quota_rps=0.0,
                              quota_overrides={"greedy": 2.0}, quota_burst=2)
        with ServerThread(repo, config) as srv:
            greedy = ServeClient(srv.base_url, tenant="greedy", use_etags=False)
            statuses = [greedy.request("/api/frames").status for _ in range(6)]
            assert 429 in statuses
            rejected = next(
                r for r in (greedy.request("/api/frames") for _ in range(6))
                if r.status == 429
            )
            assert float(rejected.headers["retry-after"]) > 0
            # Unlimited tenants are untouched while greedy is shedding.
            calm = ServeClient(srv.base_url, use_etags=False)
            assert calm.request("/api/frames").status == 200
            # And a retrying client rides out the pacing transparently.
            patient = ServeClient(srv.base_url, tenant="greedy",
                                  use_etags=False, retries=4)
            assert patient.request("/api/frames").status == 200
            metrics = calm.metrics()
            assert 'ute_serve_quota_rejected_total{tenant="greedy"}' in metrics


# ------------------------------------------------------ concurrent tenants


class TestBudgetedLoad:
    """Four datasets behind one daemon under a memory budget that holds
    one and a half of them, read concurrently by one tenant each plus a
    quota-capped one."""

    NAMES = ("run-a", "run-b", "run-c", "run-d")
    N_REQUESTS = 12

    def _stream(self, client, n_frames, worker, statuses, latencies, lock):
        """The mixed per-analyst request stream, with client-side latency."""
        local_status, local_lat = [], []
        try:
            for step in range(self.N_REQUESTS):
                slot = (worker + step) % 4
                if slot == 0:
                    path = f"{client.api_base}/preview"
                elif slot == 1:
                    path = f"{client.api_base}/frames"
                else:
                    path = f"{client.api_base}/frame/{(worker * 3 + step) % n_frames}"
                t0 = time.perf_counter()
                local_status.append(client.request(path).status)
                local_lat.append(time.perf_counter() - t0)
        finally:
            client.close()
        with lock:
            statuses.extend(local_status)
            latencies.extend(local_lat)

    def _run(self, jobs):
        threads = [
            threading.Thread(target=self._stream, args=job, daemon=True) for job in jobs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "a tenant stream hung"

    def test_no_5xx_paced_quota_and_budget_held_throughout(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        for name in self.NAMES:
            repo.register(name, data=slog_bytes)
        repo.close()
        budget = int(1.5 * _full_session_bytes(root, self.NAMES[0]))
        repo = Repository(root, budget_bytes=budget, build_indexes=False)
        config = ServerConfig(
            port=0, max_concurrency=32, memory_budget_bytes=budget,
            quota_rps=0.0, quota_overrides={"greedy": 2.0}, quota_burst=2,
        )
        lock = threading.Lock()
        with ServerThread(repo, config) as srv:
            def client(name, tenant=None):
                return ServeClient(srv.base_url, dataset=name, use_etags=False,
                                   tenant=tenant)

            probe = client(self.NAMES[0])
            n_frames = probe.frames()["count"]
            probe.close()
            assert n_frames >= 2
            # The governor promises resident <= budget at every instant, not
            # only at request boundaries.  Resident bytes rise only when a
            # decoded frame lands in a cache, just before the reader's
            # ``commit``: read them there, at every insert of the load.
            peak = [repo.resident_bytes()]
            commit = repo.commit

            def checked_commit(nbytes):
                peak[0] = max(peak[0], repo.resident_bytes())
                commit(nbytes)

            repo.commit = checked_commit
            # Baseline: the same mix, four workers on one dataset.
            base_status, base_lat = [], []
            self._run([
                (client(self.NAMES[0]), n_frames, w, base_status, base_lat, lock)
                for w in range(4)
            ])
            # The fleet: one tenant per dataset plus a greedy one on the first.
            multi_status, multi_lat, greedy_status, greedy_lat = [], [], [], []
            self._run([
                (client(name, f"tenant-{i}"), n_frames, i, multi_status, multi_lat, lock)
                for i, name in enumerate(self.NAMES)
            ] + [
                (client(self.NAMES[0], "greedy"), n_frames, 7, greedy_status,
                 greedy_lat, lock),
            ])
            greedy = client(self.NAMES[0], "greedy")
            rejected = next(
                (r for r in (greedy.request(f"{greedy.api_base}/frames")
                             for _ in range(6)) if r.status == 429),
                None,
            )
            greedy.close()
        everything = base_status + multi_status + greedy_status
        assert len(everything) == (2 * len(self.NAMES) + 1) * self.N_REQUESTS
        assert [s for s in everything if s >= 500] == [], everything
        assert set(multi_status) == {200}, multi_status
        assert set(greedy_status) <= {200, 429}, greedy_status
        assert 429 in greedy_status, "the quota never paced the greedy tenant"
        assert rejected is not None and float(rejected.headers["retry-after"]) > 0
        p50_base = statistics.median(base_lat)
        p50_multi = statistics.median(multi_lat)
        assert p50_multi <= max(2 * p50_base, 0.050), (p50_multi, p50_base)
        assert peak[0] <= budget, f"resident {peak[0]}B exceeded the {budget}B budget"


# ---------------------------------------------------------------- uploads


class TestUploadEndpoint:
    @pytest.fixture()
    def served(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("seed", data=slog_bytes)
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            yield srv, ServeClient(srv.base_url)

    def test_upload_register_and_serve(self, served, slog_bytes):
        srv, client = served
        response = client.upload_dataset("fresh", slog_bytes)
        assert response.status == 201
        body = response.json()
        assert body["name"] == "fresh" and body["bytes"] == len(slog_bytes)
        listing = client.datasets()
        assert "fresh" in {d["name"] for d in listing["datasets"]}
        assert client.for_dataset("fresh").frames()["count"] >= 2

    def test_upload_conflict(self, served, slog_bytes):
        _, client = served
        assert client.upload_dataset("seed", slog_bytes).status == 409

    def test_upload_rejects_garbage(self, served):
        _, client = served
        response = client.upload_dataset("junk", b"not a slog")
        assert response.status == 400
        assert "junk" in response.text

    def test_upload_requires_name_and_body(self, served, slog_bytes):
        _, client = served
        assert client.request("/api/datasets", method="POST",
                              body=slog_bytes).status == 400
        assert client.request("/api/datasets?name=empty", method="POST",
                              body=b"").status == 400

    def test_post_elsewhere_is_405(self, served):
        _, client = served
        assert client.request("/api/frames", method="POST", body=b"x").status == 405

    def test_post_without_content_length_is_411(self, served):
        srv, _ = served
        parts = urllib.parse.urlsplit(srv.base_url)
        with socket.create_connection((parts.hostname, parts.port), timeout=10) as sock:
            sock.sendall(
                b"POST /api/datasets?name=x HTTP/1.1\r\n"
                b"Host: test\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
            status = sock.recv(4096).split(b"\r\n", 1)[0]
        assert b"411" in status

    def test_upload_to_rootless_server_is_rejected(self, tmp_path, slog_bytes):
        path = tmp_path / "run.slog"
        path.write_bytes(slog_bytes)
        with ServerThread(path, ServerConfig(port=0)) as srv:
            client = ServeClient(srv.base_url)
            response = client.upload_dataset("new", slog_bytes)
            assert response.status == 400
            assert "disabled" in response.text


# -------------------------------------------------------------- aliasing


class TestRouteAliasing:
    @pytest.fixture()
    def served(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register(DEFAULT_DATASET, data=slog_bytes)
        repo.register("other", data=slog_bytes)
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            yield srv, ServeClient(srv.base_url, use_etags=False)

    def test_legacy_routes_alias_default_dataset(self, served):
        _, client = served
        legacy = client.get_json("/api/preview")
        scoped = client.get_json(f"/api/d/{DEFAULT_DATASET}/preview")
        assert legacy == scoped
        legacy_frame = client.get_json("/api/frame/0")
        scoped_frame = client.get_json(f"/api/d/{DEFAULT_DATASET}/frame/0")
        assert legacy_frame == scoped_frame

    def test_unknown_dataset_404(self, served):
        _, client = served
        response = client.request("/api/d/nope/preview")
        assert response.status == 404
        assert "nope" in response.text

    def test_viewer_pages(self, served):
        _, client = served
        root_page = client.request("/")
        assert root_page.status == 200
        assert root_page.body == client.request(f"/d/{DEFAULT_DATASET}/").body
        assert f'const API = "/api/d/{DEFAULT_DATASET}"' in root_page.text
        scoped = client.request("/d/other/")
        assert scoped.status == 200
        assert 'const API = "/api/d/other"' in scoped.text
        landing = client.request("/datasets")
        assert landing.status == 200
        assert "other" in landing.text


# ----------------------------------------------------------- index builds


class TestIndexBuilds:
    def test_background_build_reaches_ready(self, tmp_path, slog_bytes):
        repo = Repository(tmp_path / "root", build_indexes=True)
        repo.register("a", data=slog_bytes)
        assert repo.wait_index("a") == INDEX_READY
        assert (tmp_path / "root" / "a" / "trace.slog.uteidx").is_file()
        # The session sees the index whether the build finished before or
        # after it opened (reload_index covers the latter).
        assert repo.session("a").index is not None
        assert repo.metrics()["index_loaded"] == 1
        info = {d["name"]: d for d in repo.info()}
        assert info["a"]["index"] == INDEX_READY
        repo.close()

    def test_failed_build_degrades(self, tmp_path, slog_bytes, monkeypatch):
        def boom(handle):
            raise RuntimeError("synthetic build failure")

        monkeypatch.setattr("repro.query.build_index", boom)
        repo = Repository(tmp_path / "root", build_indexes=True)
        repo.register("a", data=slog_bytes)
        assert repo.wait_index("a") == INDEX_FAILED
        dataset = repo.get("a")
        assert "synthetic build failure" in dataset.index_error
        assert repo.index_builds_failed == 1
        # The dataset still serves — full scans, no index.
        session = repo.session("a")
        assert session.index is None
        assert session.frame_count() >= 2
        repo.close()

    def test_builds_disabled(self, tmp_path, slog_bytes):
        repo = Repository(tmp_path / "root", build_indexes=False)
        repo.register("a", data=slog_bytes)
        assert repo.wait_index("a") == INDEX_NONE
        assert not (tmp_path / "root" / "a" / "trace.slog.uteidx").exists()
        repo.close()

    def test_reopen_adopts_existing_sidecar(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=True)
        repo.register("a", data=slog_bytes)
        repo.wait_index("a")
        repo.close()
        reopened = Repository(root, build_indexes=True)
        # No rebuild needed: the fresh sidecar is adopted immediately.
        assert reopened.get("a").index_status == INDEX_READY
        assert reopened.metrics()["index_builds_pending"] == 0
        reopened.close()


# --------------------------------------------------------- remote CLI mode


class TestRemoteCLI:
    @pytest.fixture()
    def served(self, tmp_path, slog_bytes):
        root = tmp_path / "root"
        repo = Repository(root, build_indexes=False)
        repo.register("a", data=slog_bytes)
        with ServerThread(repo, ServerConfig(port=0)) as srv:
            yield srv

    def test_remote_query_tsv(self, served, capsys):
        assert cli.main_query([
            "--server", served.base_url, "--dataset", "a",
            "--group-by", "type", "--agg", "count",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("type\tcount")

    def test_remote_query_json_and_explain(self, served, capsys):
        assert cli.main_query([
            "--server", served.base_url, "--dataset", "a",
            "--limit", "2", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 2
        assert cli.main_query([
            "--server", served.base_url, "--limit", "2", "--explain",
        ]) == 0
        captured = capsys.readouterr()
        assert "start\tend" in captured.out
        assert "plan:" in captured.err  # the explain line goes to stderr

    def test_remote_query_rejects_local_flags(self, served, capsys):
        assert cli.main_query([
            "trace.slog", "--server", served.base_url,
        ]) == 2
        assert cli.main_query([
            "--server", served.base_url, "--build-index",
        ]) == 2
        capsys.readouterr()

    def test_remote_stats(self, served, tmp_path, capsys):
        program = tmp_path / "prog.stats"
        program.write_text('table name=n x=("node", node) y=("c", dura, count)\n')
        assert cli.main_stats([
            "--server", served.base_url, "--dataset", "a",
            "--program", str(program),
        ]) == 0
        assert "# table n" in capsys.readouterr().out
        assert cli.main_stats([
            "--server", served.base_url, "--dataset", "a",
            "--program", str(program), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tables"][0]["name"] == "n"

    def test_remote_stats_rejects_local_flags(self, served, tmp_path, capsys):
        program = tmp_path / "prog.stats"
        program.write_text('table name=n x=("node", node) y=("c", dura, count)\n')
        assert cli.main_stats(["--server", served.base_url]) == 2
        assert cli.main_stats([
            "local.intervals", "--server", served.base_url,
            "--program", str(program),
        ]) == 2
        assert cli.main_stats([
            "--server", served.base_url, "--program", str(program),
            "--svg", "out.svg",
        ]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("url", ["127.0.0.1:8265", "ftp://host/", "http://", "http://host:port"])
    def test_a_server_url_the_client_cannot_speak_to(self, url, capsys):
        assert cli.main_query(["--server", url, "--limit", "1"]) == 2
        assert cli.main_tail(["--server", url]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0].startswith("ute-query: error: ")
        assert err[1].startswith("ute-tail: error: ")

    def test_remote_query_unknown_dataset(self, served, capsys):
        assert cli.main_query([
            "--server", served.base_url, "--dataset", "nope", "--limit", "1",
        ]) == 2
        assert "nope" in capsys.readouterr().err
