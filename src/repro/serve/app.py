"""The concurrent trace-serving daemon (``ute-serve``).

A dependency-free asyncio HTTP/1.1 server exposing the Jumpshot workflow
as an API over a :class:`~repro.repository.Repository` of SLOG datasets:

==================================  ========================================
endpoint                            returns
==================================  ========================================
``GET /``                           viewer for the default dataset, or the
                                    landing page when none exists
``GET /datasets``                   landing page listing every dataset
``GET /d/{ds}/``                    the interactive viewer for one dataset
``GET /api/datasets``               the dataset listing (JSON)
``POST /api/datasets?name=N``       register the request body as dataset N
                                    (201; 409 duplicate; 400 invalid)
``GET /api/d/{ds}/preview``         state-counter bins + interesting ranges
``GET /api/d/{ds}/frames``          the frame directory
``GET /api/d/{ds}/frame/{i}``       one frame's decoded records (JSON);
                                    ``?view=kind`` adds a view payload
``GET /api/d/{ds}/view/{kind}?t=S`` the frame display at instant S as SVG
``GET /api/d/{ds}/arrows/{i}``      matched message arrows of frame ``i``
``GET /api/d/{ds}/stats?table=...`` a statlang table run server-side;
                                    ``?window=T0:T1`` prunes via the index
``GET /api/d/{ds}/query``           an indexed query with plan + IO stats
``GET /api/d/{ds}/export/chrome``   the trace as Chrome trace-event JSON
                                    (Perfetto-openable), streamed with
                                    chunked transfer coding
``GET /api/d/{ds}/follow/preview``  Server-Sent Events: one ``epoch``
                                    event (preview payload) per published
                                    frame-directory epoch, then ``final``
``GET /api/d/{ds}/follow/query``    the same stream carrying an indexed
                                    query result (``?window=T0:T1`` and
                                    the /query parameters) per epoch
``GET /api/d/{ds}/follow/poll``     long-poll fallback: block until the
                                    epoch advances past ``?since=SEQ``
                                    (per-epoch ETags; 304 on no change)
``GET /api/*``                      the same API, aliased to the default
                                    dataset (single-trace compatibility)
``GET /metrics``                    Prometheus-style counters
==================================  ========================================

Design points (the paper's scalability story, applied to serving):

* **Shared sessions under one budget** — each dataset's SlogFile + frame
  cache opens lazily and serves every request; the repository's global
  memory budget shrinks and evicts cold sessions so N datasets never cost
  N full caches.
* **Strong ETags** — ``dataset-mtime_ns-size-resource``; ``If-None-Match``
  hits return 304 before any frame is fetched or decoded, and two
  datasets with byte-identical files still revalidate independently.
* **Bounded concurrency, fair tenants** — requests beyond
  ``max_concurrency`` get an immediate 503 with ``Retry-After``; a tenant
  over its per-tenant token-bucket quota gets 429 with ``Retry-After``
  while everyone else keeps their latency.
* **Strict input handling** — request line/header limits, bounded upload
  bodies on the one POST route, path-traversal rejection.
* **Observability** — structured access logs and a ``/metrics`` endpoint
  aggregating per-reader fetch accounting across the whole repository.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.core.windows import parse_window
from repro.errors import FormatError, StatsError
from repro.query.engine import check_executor, rows_tsv
from repro.query.model import Query
from repro.repository import (
    ANONYMOUS,
    DEFAULT_BUDGET_BYTES,
    DatasetExists,
    Repository,
    RepositoryError,
    TenantQuotas,
)
from repro.serve.html import datasets_page, server_page
from repro.serve.metrics import Registry
from repro.serve.session import DEFAULT_SERVER_CACHE, FrameDecodeError, TraceSession
from repro.viz.jumpshot import VIEW_KINDS

log = logging.getLogger("repro.serve")
access_log = logging.getLogger("repro.serve.access")

_REASONS = {
    200: "OK", 201: "Created", 304: "Not Modified", 400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict", 411: "Length Required", 413: "Payload Too Large",
    414: "URI Too Long", 422: "Unprocessable Content",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: Sentinel dataset used by :meth:`TraceServer._route` for the legacy
#: un-prefixed ``/api/*`` routes: resolve to the repository's default
#: dataset at dispatch time.
_DEFAULT_ALIAS = ""

#: Tenant request header examined by the quota layer.
TENANT_HEADER = "x-ute-tenant"


@dataclass
class ServerConfig:
    """Capacity and safety knobs of the daemon (see docs/SERVING.md)."""

    host: str = "127.0.0.1"
    port: int = 8265
    #: Admitted requests beyond this get 503 + Retry-After.
    max_concurrency: int = 8
    #: Per-request wall-clock budget (seconds); exceeded -> 504.
    request_timeout: float = 30.0
    #: Seconds clients should wait after a 503.
    retry_after: int = 1
    #: Longest accepted request line (method + target + version).
    max_target_bytes: int = 8192
    max_header_bytes: int = 8192
    max_headers: int = 64
    max_query_params: int = 16
    #: Longest accepted single query-parameter value (statlang programs).
    max_param_bytes: int = 8192
    #: Width of SVGs rendered by /api/view.
    svg_width: int = 1100
    cache_frames: int = DEFAULT_SERVER_CACHE
    #: Global frame-cache budget shared by every open dataset session.
    memory_budget_bytes: int = DEFAULT_BUDGET_BYTES
    #: Largest accepted upload body (POST /api/datasets).
    max_upload_bytes: int = 256 << 20
    #: Per-tenant request quota (requests/second); 0 disables quotas for
    #: tenants without an explicit override.
    quota_rps: float = 0.0
    #: Token-bucket depth: back-to-back requests allowed before pacing.
    quota_burst: int = 8
    #: Per-tenant quota overrides, tenant name -> requests/second.
    quota_overrides: dict[str, float] = field(default_factory=dict)
    #: Dataset the legacy un-prefixed API routes alias to (None = pick
    #: "default", else the alphabetically first dataset).
    default_dataset: str | None = None


class _HttpError(Exception):
    """Internal: abort the request with a specific status."""

    def __init__(self, status: int, message: str, headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


@dataclass
class Request:
    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: Filled in by dispatch once the target dataset resolves.
    dataset: str = ""
    session: Any = field(default=None, repr=False)


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] | None = None
    #: Incremental body: an iterator of byte chunks sent with chunked
    #: transfer coding instead of ``body``.  The writer consumes it on the
    #: executor (chunk production may decode frames) and always closes it,
    #: so a generator's ``finally`` is the place to pin resources.
    stream: Iterator[bytes] | None = field(default=None, repr=False)

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        return cls(status, json.dumps(payload).encode(), "application/json")

    @classmethod
    def text(cls, text: str, status: int = 200, content_type: str = "text/plain") -> "Response":
        return cls(status, text.encode(), content_type + "; charset=utf-8")


class TraceServer:
    """The asyncio server over a :class:`~repro.repository.Repository`.

    A bare :class:`TraceSession` is also accepted (embedding
    compatibility): it becomes the sole, default dataset of a root-less
    repository."""

    def __init__(
        self,
        target: "Repository | TraceSession",
        config: ServerConfig | None = None,
    ) -> None:
        from repro.repository import DEFAULT_DATASET

        self.config = config or ServerConfig()
        if isinstance(target, Repository):
            self.repository = target
        else:
            self.repository = Repository(
                None,
                budget_bytes=self.config.memory_budget_bytes,
                cache_frames=self.config.cache_frames,
            )
            self.repository.adopt(DEFAULT_DATASET, target)
        self.quotas = TenantQuotas(
            default_rps=self.config.quota_rps,
            burst=self.config.quota_burst,
            overrides=dict(self.config.quota_overrides),
        )
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._active = 0
        self.registry = Registry()
        self.m_requests = self.registry.counter(
            "ute_serve_requests_total", "Requests handled.",
            ("dataset", "route", "status"),
        )
        self.m_latency = self.registry.histogram(
            "ute_serve_request_seconds", "Request latency (seconds)."
        )
        self.m_rejected = self.registry.counter(
            "ute_serve_rejected_total", "Requests rejected before dispatch.", ("reason",)
        )
        self.m_quota = self.registry.counter(
            "ute_serve_quota_rejected_total",
            "Requests rejected by the per-tenant quota (429).", ("tenant",),
        )
        self.m_uploads = self.registry.counter(
            "ute_serve_uploads_total", "Dataset registrations.", ("status",)
        )
        self.m_frame_salvage = self.registry.counter(
            "ute_serve_frame_salvage_total",
            "Frames that failed strict decode and were answered with a salvage payload.",
        )
        self.m_follow = self.registry.counter(
            "ute_serve_follow_events_total",
            "Follow events emitted over SSE streams.", ("dataset", "kind"),
        )
        self._follow_active = 0
        self._follow_lock = threading.Lock()
        self.registry.gauge(
            "ute_serve_follow_streams", "Follow SSE streams currently open.",
            lambda: self._follow_active,
        )
        self.registry.gauge(
            "ute_serve_inflight_requests", "Requests currently executing.",
            lambda: self._active,
        )
        repo = self.repository
        stats = repo.aggregate_stats  # sampled at scrape time
        self.registry.gauge(
            "ute_serve_frame_cache_hits_total", "Shared frame-cache hits.",
            lambda: stats()["hits"],
        )
        self.registry.gauge(
            "ute_serve_frame_cache_misses_total", "Shared frame-cache misses.",
            lambda: stats()["misses"],
        )
        self.registry.gauge(
            "ute_serve_frame_cache_evictions_total",
            "Frames evicted from the shared LRU frame caches (budget "
            "shrinks and session evictions included).",
            lambda: stats()["evictions"],
        )
        self.registry.gauge(
            "ute_serve_frame_cache_resident_bytes",
            "Aggregate encoded bytes resident across all open sessions.",
            repo.resident_bytes,
        )
        self.registry.gauge(
            "ute_serve_memory_budget_bytes",
            "Configured global frame-cache budget.",
            lambda: repo.budget_bytes,
        )
        self.registry.labelled_gauge(
            "ute_serve_dataset_resident_bytes",
            "Encoded bytes resident in one open dataset session's caches.",
            "dataset", repo.per_dataset_resident,
        )
        self.registry.gauge(
            "ute_serve_datasets", "Datasets registered in the repository.",
            lambda: len(repo.names()),
        )
        self.registry.gauge(
            "ute_serve_sessions_open", "Dataset sessions currently open.",
            lambda: len(repo.open_sessions()),
        )
        self.registry.gauge(
            "ute_serve_sessions_evicted_total",
            "Sessions closed by the global memory budget.",
            lambda: repo.sessions_evicted,
        )
        self.registry.gauge(
            "ute_serve_index_loaded",
            "Whether any open session has a fresh .uteidx sidecar (1/0).",
            lambda: 1 if repo.any_index_loaded() else 0,
        )
        self.registry.gauge(
            "ute_serve_index_builds_pending",
            "Background .uteidx builds scheduled or running.",
            repo.builds_pending,
        )
        self.registry.gauge(
            "ute_serve_index_frames_scanned_total",
            "Frames the planner selected for decoding across all queries.",
            lambda: repo.index_counters()["scanned"],
        )
        self.registry.gauge(
            "ute_serve_index_frames_pruned_total",
            "Frames the planner pruned without decoding across all queries.",
            lambda: repo.index_counters()["pruned"],
        )
        self.registry.gauge(
            "ute_serve_index_fallback_total",
            "Planned scans that fell back to full scan (no usable index).",
            lambda: repo.index_counters()["fallbacks"],
        )
        self.registry.gauge(
            "ute_serve_bytes_fetched_total", "Bytes fetched from the SLOG byte source.",
            lambda: stats()["bytes_fetched"],
        )
        self.registry.gauge(
            "ute_serve_fetches_total", "Fetch calls against the SLOG byte source.",
            lambda: stats()["fetch_count"],
        )
        self.registry.gauge(
            "ute_serve_frames", "Frames across the open dataset sessions.",
            repo.frames_open,
        )

    @property
    def session(self) -> TraceSession | None:
        """The default dataset's session (single-trace embedding API)."""
        name = self.repository.default
        return self.repository.session(name) if name else None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections; sets :attr:`port`."""
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        what = (
            str(self.repository.root)
            if self.repository.root is not None
            else ", ".join(self.repository.names()) or "<empty>"
        )
        log.info(
            "serving %s on http://%s:%d/", what, self.config.host, self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------- request cycle

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        start = time.perf_counter()
        route = "-"
        request: Request | None = None
        try:
            request = await asyncio.wait_for(self._read_request(reader), timeout=10.0)
            route, response = await self._dispatch(request)
        except _HttpError as exc:
            response = Response.text(exc.message + "\n", exc.status)
            response.headers = dict(exc.headers)
        except asyncio.TimeoutError:
            response = Response.text("request header timeout\n", 408)
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return
        except Exception:  # pragma: no cover - defensive
            log.exception("unhandled error")
            response = Response.text("internal server error\n", 500)
        duration = time.perf_counter() - start
        self.m_requests.inc(
            dataset=request.dataset if request is not None else "",
            route=route, status=str(response.status),
        )
        self.m_latency.observe(duration)
        try:
            head_only = request is not None and request.method == "HEAD"
            await self._write_response(writer, response, head_only=head_only)
        except ConnectionError:
            pass
        finally:
            writer.close()
        access_log.info(
            "method=%s path=%s route=%s status=%d dur_ms=%.2f bytes=%d",
            request.method if request else "-",
            request.path if request else "-",
            route, response.status, duration * 1e3, len(response.body),
        )

    async def _read_request(self, reader: asyncio.StreamReader) -> Request:
        cfg = self.config
        line = await reader.readline()
        if len(line) > cfg.max_target_bytes:
            raise _HttpError(414, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        if method not in ("GET", "HEAD", "POST"):
            raise _HttpError(
                405, f"method {method} not allowed", {"Allow": "GET, HEAD, POST"}
            )
        headers: dict[str, str] = {}
        for _ in range(cfg.max_headers + 1):
            raw = await reader.readline()
            if len(raw) > cfg.max_header_bytes:
                raise _HttpError(431, "header line too long")
            text = raw.decode("latin-1").rstrip("\r\n")
            if not text:
                break
            if ":" not in text:
                raise _HttpError(400, "malformed header line")
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _HttpError(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        body = b""
        if method == "POST":
            if "transfer-encoding" in headers:
                raise _HttpError(
                    411, "chunked bodies are not accepted; send Content-Length"
                )
            if "content-length" not in headers:
                raise _HttpError(411, "POST requires Content-Length")
            if length > cfg.max_upload_bytes:
                raise _HttpError(
                    413, f"upload larger than {cfg.max_upload_bytes} bytes"
                )
            if length > 0:
                body = await reader.readexactly(length)
        elif length > 0:
            raise _HttpError(413, "request bodies are not accepted")
        path, query = self._parse_target(target)
        return Request(method, path, query, headers, body)

    def _parse_target(self, target: str) -> tuple[str, dict[str, str]]:
        cfg = self.config
        if len(target) > cfg.max_target_bytes:
            raise _HttpError(414, "request target too long")
        split = urllib.parse.urlsplit(target)
        path = urllib.parse.unquote(split.path)
        if not path.startswith("/") or "\x00" in path or "\\" in path:
            raise _HttpError(400, "invalid request path")
        if any(seg == ".." for seg in path.split("/")):
            raise _HttpError(400, "path traversal rejected")
        try:
            pairs = urllib.parse.parse_qsl(
                split.query, keep_blank_values=True,
                max_num_fields=cfg.max_query_params,
            )
        except ValueError:
            raise _HttpError(400, "too many query parameters") from None
        query: dict[str, str] = {}
        for key, value in pairs:
            if len(value) > cfg.max_param_bytes:
                raise _HttpError(414, f"query parameter {key!r} too long")
            query[key] = value
        return path, query

    async def _dispatch(self, request: Request) -> tuple[str, Response]:
        route, handler, etag_tag, dataset = self._route(request)
        if handler is None:
            raise _HttpError(404, f"no such resource: {request.path}")
        if request.method == "POST" and route != "/api/datasets":
            raise _HttpError(
                405, "POST is only accepted on /api/datasets",
                {"Allow": "GET, HEAD"},
            )
        # Per-tenant quota on API routes, before any work is admitted.
        if self.quotas.enabled and request.path.startswith("/api/"):
            tenant = request.headers.get(TENANT_HEADER, ANONYMOUS) or ANONYMOUS
            wait = self.quotas.try_acquire(tenant)
            if wait is not None:
                self.m_quota.inc(tenant=tenant)
                self.m_rejected.inc(reason="quota")
                raise _HttpError(
                    429, f"tenant {tenant!r} over request quota, retry later",
                    {"Retry-After": f"{wait:.3f}"},
                )
        # Saturation check before any work: the event loop is single
        # threaded, so the counter needs no lock.
        if self._active >= self.config.max_concurrency:
            self.m_rejected.inc(reason="saturated")
            raise _HttpError(
                503, "server saturated, retry later",
                {"Retry-After": str(self.config.retry_after)},
            )
        if dataset is not None:
            if dataset == _DEFAULT_ALIAS:
                dataset = self.repository.default
                if dataset is None:
                    raise _HttpError(404, "no datasets registered")
            try:
                request.session = self.repository.acquire(dataset)
            except RepositoryError as exc:
                raise _HttpError(404, str(exc)) from None
            request.dataset = dataset
            if getattr(request.session, "live", False):
                # Hot-reload a live dataset to the latest published epoch
                # before the ETag is computed, so validators advance with
                # the writer (cheap: one small manifest read).
                try:
                    request.session.maybe_refresh()
                except FormatError as exc:
                    raise _HttpError(
                        409, f"live container protocol violation: {exc}"
                    ) from None
        try:
            etag = request.session.etag(etag_tag) if etag_tag else None
            if etag is not None:
                candidates = request.headers.get("if-none-match", "")
                if candidates.strip() == "*" or etag in [
                    c.strip() for c in candidates.split(",")
                ]:
                    response = Response(304, b"", "application/json")
                    response.headers = {"ETag": etag}
                    return route, response
            self._active += 1
            try:
                loop = asyncio.get_running_loop()
                response = await asyncio.wait_for(
                    loop.run_in_executor(None, self._run_handler, handler, request),
                    timeout=self.config.request_timeout,
                )
            except asyncio.TimeoutError:
                raise _HttpError(504, "request timed out") from None
            finally:
                self._active -= 1
            if response.stream is not None and request.session is not None:
                # Streaming responses read the session while the body goes
                # out: hand the pin to the stream wrapper, which releases
                # exactly once when the writer exhausts or closes it (a
                # plain generator would skip its finally if closed before
                # the first chunk — e.g. a HEAD request).
                dataset = request.dataset
                response.stream = _SessionStream(
                    response.stream, lambda: self.repository.release(dataset)
                )
                request.session = None
        finally:
            if request.session is not None:
                # The request boundary: unpin and let the budget close any
                # session the admission governor scavenged.
                self.repository.release(request.dataset)
        if etag is not None and response.status == 200:
            response.headers = {**(response.headers or {}), "ETag": etag,
                                "Cache-Control": "no-cache"}
        return route, response

    def _run_handler(self, handler: Callable[[Request], Response], request: Request) -> Response:
        try:
            return handler(request)
        except FrameDecodeError as exc:
            # One frame is damaged: degrade that frame only.  The payload
            # carries the salvage probe so clients can show what survives;
            # every sibling frame keeps serving 200s.
            self.m_frame_salvage.inc()
            return Response.json(
                {"error": str(exc), "frame": exc.index, "salvage": exc.salvage}, 422
            )
        except (FormatError, StatsError) as exc:
            return Response.json({"error": str(exc)}, 400)

    def _route(
        self, request: Request
    ) -> tuple[str, Callable[[Request], Response] | None, str | None, str | None]:
        """(metrics route label, handler, ETag tag, dataset) for one
        request.  ``dataset`` is None for repository-level routes, the
        ``_DEFAULT_ALIAS`` sentinel for legacy un-prefixed API routes
        (resolved to the default dataset at dispatch), or a dataset name."""
        segs = [s for s in request.path.split("/") if s]
        if not segs:
            return "/", self._h_index, None, None
        if segs == ["metrics"]:
            return "/metrics", self._h_metrics, None, None
        if segs == ["datasets"]:
            return "/datasets", self._h_landing, None, None
        if segs == ["api", "datasets"]:
            return "/api/datasets", self._h_datasets, None, None
        if segs[0] == "d" and len(segs) == 2:
            return "/d/{ds}", self._h_viewer, None, segs[1]
        if segs[0] == "api" and len(segs) >= 3 and segs[1] == "d":
            sub, handler, tag = self._route_api(request, segs[3:])
            if handler is None:
                return request.path, None, None, None
            return "/api/d/{ds}" + sub, handler, tag, segs[2]
        if segs[0] == "api":
            sub, handler, tag = self._route_api(request, segs[1:])
            if handler is None:
                return request.path, None, None, None
            return "/api" + sub, handler, tag, _DEFAULT_ALIAS
        return request.path, None, None, None

    def _route_api(
        self, request: Request, segs: list[str]
    ) -> tuple[str, Callable[[Request], Response] | None, str | None]:
        """The per-dataset API surface, shared by the ``/api/d/{ds}/*``
        routes and their legacy un-prefixed aliases."""
        if segs == ["preview"]:
            return "/preview", self._h_preview, "preview"
        if segs == ["frames"]:
            return "/frames", self._h_frames, "frames"
        if len(segs) == 2 and segs[0] == "frame":
            index = self._int_seg(segs[1], "frame index")
            view = request.query.get("view", "")
            tag = f"frame-{index}" + (f"-{view}" if view else "")
            return "/frame/{i}", lambda r: self._h_frame(r, index), tag
        if len(segs) == 2 and segs[0] == "arrows":
            index = self._int_seg(segs[1], "frame index")
            return "/arrows/{i}", lambda r: self._h_arrows(r, index), f"arrows-{index}"
        if len(segs) == 2 and segs[0] == "view":
            kind = segs[1]
            tag = "view-" + hashlib.sha1(
                f"{kind}?t={request.query.get('t', '')}"
                f"&window={request.query.get('window', '')}"
                f"&w={request.query.get('width', '')}"
                .encode()
            ).hexdigest()[:16]
            return "/view/{kind}", lambda r: self._h_view(r, kind), tag
        if segs == ["utilization"]:
            tag = "util-" + hashlib.sha1(
                "\x00".join(
                    request.query.get(k, "") for k in ("lane", "window", "bins")
                ).encode()
            ).hexdigest()[:16]
            return "/utilization", self._h_utilization, tag
        if segs == ["stats"]:
            tag = "stats-" + hashlib.sha1(
                "\x00".join(
                    request.query.get(k, "") for k in ("table", "format", "window")
                ).encode()
            ).hexdigest()[:16]
            return "/stats", self._h_stats, tag
        if segs == ["query"]:
            tag = "query-" + hashlib.sha1(
                "\x00".join(
                    f"{k}={v}" for k, v in sorted(request.query.items())
                ).encode()
            ).hexdigest()[:16]
            return "/query", self._h_query, tag
        if segs == ["export", "chrome"]:
            return "/export/chrome", self._h_export_chrome, "export-chrome"
        # Follow endpoints manage their own freshness (SSE streams and the
        # long-poll's per-epoch ETag), so no dispatch-level ETag tag.
        if segs == ["follow", "preview"]:
            return "/follow/preview", self._h_follow_preview, None
        if segs == ["follow", "query"]:
            return "/follow/query", self._h_follow_query, None
        if segs == ["follow", "poll"]:
            return "/follow/poll", self._h_follow_poll, None
        return "", None, None

    @staticmethod
    def _int_seg(text: str, what: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise _HttpError(400, f"{what} must be an integer, got {text!r}") from None

    # -------------------------------------------------------------- handlers
    # Run on executor threads; per-dataset handlers read the session that
    # dispatch resolved and pinned onto the request.

    def _h_index(self, request: Request) -> Response:
        """``/``: the default dataset's viewer (single-trace
        compatibility), or the landing page when nothing is registered."""
        name = self.repository.default
        if name is None:
            return self._h_landing(request)
        title = f"{self.repository.get(name).path.name} — ute-serve"
        return Response.text(server_page(title, VIEW_KINDS), content_type="text/html")

    def _h_landing(self, request: Request) -> Response:
        return Response.text(
            datasets_page(self.repository.info(), self.repository.default),
            content_type="text/html",
        )

    def _h_viewer(self, request: Request) -> Response:
        title = f"{request.dataset} — ute-serve"
        page = server_page(
            title, VIEW_KINDS, api_base=f"/api/d/{request.dataset}"
        )
        return Response.text(page, content_type="text/html")

    def _h_datasets(self, request: Request) -> Response:
        if request.method == "POST":
            return self._register_upload(request)
        return Response.json(
            {"datasets": self.repository.info(), "default": self.repository.default}
        )

    def _register_upload(self, request: Request) -> Response:
        name = request.query.get("name", "").strip()
        if not name:
            self.m_uploads.inc(status="rejected")
            raise _HttpError(400, "missing required query parameter 'name'")
        if not request.body:
            self.m_uploads.inc(status="rejected")
            raise _HttpError(400, "empty upload body")
        try:
            dataset = self.repository.register(name, data=request.body)
        except DatasetExists as exc:
            self.m_uploads.inc(status="conflict")
            raise _HttpError(409, str(exc)) from None
        except RepositoryError as exc:
            self.m_uploads.inc(status="rejected")
            raise _HttpError(400, str(exc)) from None
        self.m_uploads.inc(status="ok")
        return Response.json(
            {
                "name": dataset.name,
                "bytes": dataset.bytes,
                "created": dataset.created,
                "index": dataset.index_status,
            },
            201,
        )

    def _h_metrics(self, request: Request) -> Response:
        return Response.text(
            self.registry.render(), content_type="text/plain; version=0.0.4"
        )

    def _h_preview(self, request: Request) -> Response:
        return Response.json(request.session.preview_payload())

    def _h_frames(self, request: Request) -> Response:
        return Response.json(request.session.frames_payload())

    def _h_frame(self, request: Request, index: int) -> Response:
        view = request.query.get("view") or None
        return Response.json(request.session.frame_payload(index, view=view))

    def _h_arrows(self, request: Request, index: int) -> Response:
        return Response.json(request.session.arrows_payload(index))

    def _h_export_chrome(self, request: Request) -> Response:
        """``/export/chrome``: the dataset as Chrome trace-event JSON,
        streamed incrementally (chunked) so the whole trace is never
        materialized server-side."""
        response = Response(200, b"", "application/json")
        response.stream = request.session.export_chrome_chunks()
        return response

    def _h_view(self, request: Request, kind: str) -> Response:
        """``/view/{kind}?t=`` renders the frame containing an instant;
        ``/view/{kind}?window=T0:T1`` renders an arbitrary time window
        (aggregate-driven above the density threshold)."""
        width = self.config.svg_width
        if "width" in request.query:
            width = max(200, min(self._int_seg(request.query["width"], "width"), 4000))
        window = self._window(request)
        if window is not None:
            t0, t1 = window
            if t0 is None or t1 is None:
                raise _HttpError(400, "view window needs both bounds: T0:T1")
            svg, io = request.session.view_svg_window(kind, t0, t1, width=width)
        else:
            if "t" not in request.query:
                raise _HttpError(
                    400,
                    "missing required query parameter 't' (seconds) or 'window'",
                )
            try:
                t_seconds = float(request.query["t"])
            except ValueError:
                raise _HttpError(400, f"bad instant {request.query['t']!r}") from None
            svg, io = request.session.view_svg(kind, t_seconds, width=width)
        response = Response.text(svg, content_type="image/svg+xml")
        response.headers = {"X-UTE-Bytes-Read": str(io["bytes_read"])}
        return response

    def _h_utilization(self, request: Request) -> Response:
        """``/utilization``: raw aggregate cells over a window — answered
        from the sidecar's utilization hierarchy, zero trace IO (404 when
        the dataset has no indexed hierarchy yet)."""
        lane = request.query.get("lane", "thread")
        if lane not in ("thread", "cpu"):
            raise _HttpError(400, f"unknown lane {lane!r}; pick 'thread' or 'cpu'")
        window = self._window(request)
        if window is not None and (window[0] is None or window[1] is None):
            raise _HttpError(400, "utilization window needs both bounds: T0:T1")
        bins = 512
        if "bins" in request.query:
            bins = max(1, min(self._int_seg(request.query["bins"], "bins"), 8192))
        payload = request.session.utilization_payload(
            lane, window=window, max_bins=bins
        )
        if payload is None:
            raise _HttpError(
                404, "no utilization hierarchy indexed for this dataset yet"
            )
        response = Response.json(payload)
        response.headers = {"X-UTE-Bytes-Read": "0"}
        return response

    @staticmethod
    def _window(request: Request) -> tuple[float | None, float | None] | None:
        """The optional ``window=T0:T1`` query parameter (seconds)."""
        text = request.query.get("window", "")
        try:
            return parse_window(text) if text.strip() else None
        except FormatError as exc:
            raise _HttpError(400, str(exc)) from None

    def _h_stats(self, request: Request) -> Response:
        program = request.query.get("table", "")
        if not program.strip():
            raise _HttpError(400, "missing required query parameter 'table'")
        fmt = request.query.get("format", "tsv")
        if fmt not in ("tsv", "json"):
            raise _HttpError(400, f"unknown format {fmt!r}; pick 'tsv' or 'json'")
        window = self._window(request)
        tables, plan, io = request.session.stats_tables(program, window=window)
        extra = {"X-UTE-Bytes-Read": str(io["bytes_read"])}
        if fmt == "json":
            response = Response.json({
                "tables": [
                    {
                        "name": t.name,
                        "x_labels": list(t.x_labels),
                        "y_labels": list(t.y_labels),
                        "rows": [
                            list(key) + list(values)
                            for key, values in sorted(t.rows.items())
                        ],
                    }
                    for t in tables
                ],
                "plan": plan,
                # The three keys this route has always published.
                "io": {k: io[k] for k in ("bytes_read", "fetches", "cache_hits")},
            })
            response.headers = extra
            return response
        text = "\n".join(f"# table {t.name}\n{t.to_tsv()}" for t in tables)
        response = Response.text(text, content_type="text/tab-separated-values")
        response.headers = extra
        return response

    def _h_query(self, request: Request) -> Response:
        query, window, executor, fmt = self._parse_query_spec(request)
        payload = request.session.query_payload(query, window=window, executor=executor)
        if fmt == "tsv":
            response = Response.text(
                rows_tsv(payload["columns"], payload["rows"]),
                content_type="text/tab-separated-values",
            )
        else:
            response = Response.json(payload)
        response.headers = {"X-UTE-Bytes-Read": str(payload["io"]["bytes_read"])}
        return response

    def _parse_query_spec(self, request: Request):
        """The /query (and /follow/query) parameter surface: returns
        (query, window, executor, format).  The query fields are
        :meth:`Query.from_params`'s; a malformed one is a 400."""
        q = request.query
        fmt = q.get("format", "json")
        if fmt not in ("tsv", "json"):
            raise _HttpError(400, f"unknown format {fmt!r}; pick 'tsv' or 'json'")
        executor = q.get("executor", "columnar")
        try:
            check_executor(executor)
            query = Query.from_params(q)
        except FormatError as exc:
            raise _HttpError(400, str(exc)) from None
        return query, self._window(request), executor, fmt

    # ------------------------------------------------------- follow handlers

    def _h_follow_preview(self, request: Request) -> Response:
        """``/follow/preview``: SSE, one preview payload per epoch."""
        return self._follow_sse(request, mode="preview")

    def _h_follow_query(self, request: Request) -> Response:
        """``/follow/query``: SSE, one query result per epoch."""
        return self._follow_sse(request, mode="query")

    def _follow_sse(self, request: Request, *, mode: str) -> Response:
        session = request.session
        dataset = request.dataset
        since = self._follow_since(request)
        poll = _clampf(request.query.get("poll", "0.1"), 0.02, 2.0, "poll")
        max_s = _clampf(request.query.get("max_s", "3600"), 0.1, 86400.0, "max_s")
        spec = self._parse_query_spec(request) if mode == "query" else None

        def gen() -> Iterator[bytes]:
            with self._follow_lock:
                self._follow_active += 1
            try:
                last = since
                deadline = time.monotonic() + max_s
                # Open the stream immediately so clients see headers+bytes
                # before the first epoch lands.
                yield b": ute-serve follow stream\n\n"
                while True:
                    try:
                        session.maybe_refresh()
                        state = session.follow_state()
                        if state["seq"] > last:
                            last = state["seq"]
                            if mode == "preview":
                                payload = session.preview_payload()
                            else:
                                query, window, executor, _fmt = spec
                                payload = session.query_payload(
                                    query, window=window, executor=executor
                                )
                            body = {
                                "seq": last,
                                "live": state["live"],
                                "finalized": state["finalized"],
                                "frames": state["frames"],
                                mode: payload,
                            }
                            self.m_follow.inc(dataset=dataset, kind="epoch")
                            yield _sse_event("epoch", last, body)
                        if state["finalized"]:
                            self.m_follow.inc(dataset=dataset, kind="final")
                            yield _sse_event(
                                "final", last,
                                {"seq": last, "frames": state["frames"]},
                            )
                            return
                    except (FormatError, FrameDecodeError) as exc:
                        self.m_follow.inc(dataset=dataset, kind="error")
                        yield _sse_event("error", last, {"error": str(exc)})
                        return
                    if time.monotonic() >= deadline:
                        self.m_follow.inc(dataset=dataset, kind="timeout")
                        yield _sse_event("timeout", last, {"seq": last})
                        return
                    time.sleep(poll)
            finally:
                with self._follow_lock:
                    self._follow_active -= 1

        response = Response(200, b"", "text/event-stream")
        response.stream = gen()
        response.headers = {"Cache-Control": "no-cache", "X-Accel-Buffering": "no"}
        return response

    def _h_follow_poll(self, request: Request) -> Response:
        """``/follow/poll``: the long-poll fallback.  Blocks until the
        epoch advances past ``since`` (or the trace finalizes, or ``wait``
        elapses) and answers with the follow state under a per-epoch ETag;
        an ``If-None-Match`` revalidation of the answered epoch is 304.
        Unlike the SSE streams this holds a concurrency slot while it
        waits — prefer SSE for many long-lived followers."""
        session = request.session
        since = self._follow_since(request)
        cap = max(0.0, self.config.request_timeout - 1.0)
        wait = _clampf(request.query.get("wait", "10"), 0.0, cap, "wait")
        deadline = time.monotonic() + wait
        while True:
            session.maybe_refresh()
            state = session.follow_state()
            if state["seq"] > since or state["finalized"]:
                break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        etag = session.etag(f"follow-{state['seq']}")
        candidates = request.headers.get("if-none-match", "")
        if etag in [c.strip() for c in candidates.split(",")]:
            response = Response(304, b"", "application/json")
            response.headers = {"ETag": etag}
            return response
        response = Response.json({**state, "changed": state["seq"] > since})
        response.headers = {"ETag": etag, "Cache-Control": "no-cache"}
        return response

    def _follow_since(self, request: Request) -> int:
        """The resume point: ``?since=SEQ`` or the SSE ``Last-Event-ID``
        reconnect header; -1 (everything) by default."""
        raw = request.query.get(
            "since", request.headers.get("last-event-id", "-1")
        )
        try:
            return int(raw)
        except ValueError:
            raise _HttpError(400, f"bad since/Last-Event-ID {raw!r}") from None

    # --------------------------------------------------------------- output

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, *, head_only: bool = False
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        streaming = (
            response.stream is not None
            and not head_only
            and response.status != 304
        )
        headers = {
            "Content-Type": response.content_type,
            **(
                {"Transfer-Encoding": "chunked"}
                if streaming
                else {"Content-Length": str(len(response.body))}
            ),
            "Connection": "close",
            **(response.headers or {}),
        }
        if response.status == 304:
            headers.pop("Content-Type", None)
        head = f"HTTP/1.1 {response.status} {reason}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        ) + "\r\n"
        writer.write(head.encode("latin-1"))
        if streaming:
            await self._write_chunked(writer, response.stream)
            return
        if response.stream is not None:
            # HEAD or 304 never consumes the body: close the generator so
            # whatever it pins (the dataset session) is let go now.
            _close_stream(response.stream)
        if not head_only and response.status != 304:
            writer.write(response.body)
        await writer.drain()

    async def _write_chunked(
        self, writer: asyncio.StreamWriter, stream: Iterator[bytes]
    ) -> None:
        """Send a stream as chunked transfer coding, pulling each chunk on
        the executor (producing one may decode frames).  A mid-stream
        producer error truncates the chunked body without the terminating
        chunk, so clients can tell a partial payload from a complete one."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                chunk = await loop.run_in_executor(None, next, stream, None)
                if chunk is None:
                    writer.write(b"0\r\n\r\n")
                    await writer.drain()
                    return
                if not chunk:
                    continue
                writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                await writer.drain()
        except ConnectionError:
            raise
        except Exception:
            log.exception("streaming response aborted mid-body")
        finally:
            _close_stream(stream)


def _sse_event(event: str, seq: int, payload: Any) -> bytes:
    """One Server-Sent Event: ``id`` carries the epoch sequence so a
    reconnecting client resumes via ``Last-Event-ID``."""
    return (
        f"event: {event}\nid: {seq}\ndata: {json.dumps(payload)}\n\n".encode()
    )


def _clampf(raw: str, lo: float, hi: float, what: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _HttpError(400, f"bad {what} {raw!r}; expected seconds") from None
    return max(lo, min(value, hi))


def _close_stream(stream: Iterator[bytes]) -> None:
    close = getattr(stream, "close", None)
    if close is not None:
        close()


class _SessionStream:
    """A byte-chunk iterator that runs a release callback exactly once —
    on exhaustion, on error, or on close, even a close before the first
    chunk was pulled."""

    def __init__(self, stream: Iterator[bytes], release: Callable[[], None]) -> None:
        self._stream = stream
        self._release = release
        self._done = False

    def __iter__(self) -> "_SessionStream":
        return self

    def __next__(self) -> bytes:
        try:
            return next(self._stream)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            _close_stream(self._stream)
        finally:
            self._release()


# ---------------------------------------------------------------------------
# Embedding helpers.


def repository_for_config(
    target: "str | Path | Repository", config: ServerConfig, *, root: bool = False
) -> Repository:
    """Build the repository a server will front, honouring the config's
    budget/cache/default-dataset knobs.  ``target`` is an existing
    repository (returned as-is), a repository root directory (``root=
    True``), or a single SLOG file."""
    if isinstance(target, Repository):
        return target
    if root:
        return Repository(
            target,
            budget_bytes=config.memory_budget_bytes,
            cache_frames=config.cache_frames,
            default_dataset=config.default_dataset,
        )
    return Repository.single(
        target,
        budget_bytes=config.memory_budget_bytes,
        cache_frames=config.cache_frames,
    )


def _serve_blocking(repository: Repository, config: ServerConfig) -> None:
    server = TraceServer(repository, config)

    async def _run() -> None:
        await server.start()
        print(f"ute-serve: http://{config.host}:{server.port}/  (Ctrl-C to stop)")
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        repository.close()


def serve_file(
    slog_path: str | Path, config: ServerConfig | None = None
) -> None:
    """Open a SLOG file and serve it until interrupted (the CLI's
    single-trace mode)."""
    config = config or ServerConfig()
    _serve_blocking(repository_for_config(slog_path, config), config)


def serve_repository(
    root: str | Path, config: ServerConfig | None = None
) -> None:
    """Open (or create) a dataset registry rooted at ``root`` and serve it
    until interrupted (the CLI's ``--repository`` mode)."""
    config = config or ServerConfig()
    _serve_blocking(repository_for_config(root, config, root=True), config)


class ServerThread:
    """Run a :class:`TraceServer` on a background thread (tests, benchmarks).

    Accepts a SLOG path (served as the sole, default dataset) or a
    :class:`~repro.repository.Repository`::

        with ServerThread(slog) as srv:
            client = ServeClient(f"http://127.0.0.1:{srv.port}")
    """

    def __init__(
        self,
        target: "str | Path | Repository",
        config: ServerConfig | None = None,
    ) -> None:
        self.config = config or ServerConfig(port=0)
        self.repository = repository_for_config(target, self.config)
        self.server = TraceServer(self.repository, self.config)
        self.port: int | None = None
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, name="ute-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        self.port = self.server.port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._ready.set()
        self._loop.run_forever()
        # Drain: close the listener inside the loop before it is torn
        # down, then let in-flight connection tasks unwind so their
        # transports close while the loop is still alive (a follow stream
        # may be mid-write when stop() lands).
        self._loop.run_until_complete(self.server.stop())
        pending = [t for t in asyncio.all_tasks(self._loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self.repository.close()

    @property
    def session(self) -> TraceSession | None:
        """The default dataset's session (single-trace compatibility)."""
        return self.server.session

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
