"""The concurrent trace-serving daemon (``ute-serve``).

A dependency-free asyncio HTTP/1.1 server exposing the Jumpshot workflow
as an API over a :class:`~repro.repository.Repository` of SLOG datasets
(one row per entry of :data:`ROUTES`; ``tests/test_serve_surface.py``
holds this table and ``docs/SERVING.md`` to it):

==================================  ========================================
endpoint                            returns
==================================  ========================================
``GET /metrics``                    Prometheus-style counters
``GET /datasets``                   landing page listing every dataset
``GET /api/datasets``               the dataset listing (JSON)
``POST /api/datasets?name=N``       register the request body as dataset N
                                    (201; 409 duplicate; 400 invalid)
``GET /d/{ds}``                     the interactive viewer for one dataset
``GET /api/d/{ds}/preview``         state-counter bins + interesting ranges
``GET /api/d/{ds}/frames``          the frame directory
``GET /api/d/{ds}/frame/{i}``       one frame's decoded records (JSON);
                                    ``?view=kind`` adds a view payload
``GET /api/d/{ds}/arrows/{i}``      matched message arrows of frame ``i``
``GET /api/d/{ds}/view/{kind}?t=S`` the frame display at instant S as SVG
``GET /api/d/{ds}/utilization``     aggregate busy-time cells from the
                                    sidecar hierarchy, zero trace IO
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
``GET /`` and ``GET /api/*``        a prefix rewrite onto the default
                                    dataset: ``/d/{default}`` and
                                    ``/api/d/{default}/*`` (the single-file
                                    server is a one-dataset repository)
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
* **Persistent connections** — a connection carries request after request
  (answered in order) until the client says ``Connection: close``, goes
  idle for :data:`HEADER_TIMEOUT`, or gets a response that ends it: a
  malformed or half-read request, a stream, a 5xx (docs/SERVING.md).
* **Bodies written from columns** — ``/frame`` and ``/utilization``, the
  two big JSON answers, are formatted straight from the cached frame
  batch and the aggregate cells, byte for byte what ``json.dumps`` makes
  of the dict payloads the in-process API returns.
* **Observability** — structured access logs and a ``/metrics`` endpoint
  rendering one repository snapshot per scrape.
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
from typing import Any, Callable, Iterator, NamedTuple

from repro.core.windows import parse_window
from repro.errors import FormatError, StatsError
from repro.query.engine import rows_tsv
from repro.query.model import Query
from repro.repository import (
    ANONYMOUS,
    DEFAULT_BUDGET_BYTES,
    DEFAULT_DATASET,
    DatasetExists,
    Repository,
    RepositoryError,
    TenantQuotas,
)
from repro.serve.html import datasets_page, server_page
from repro.serve.metrics import Registry
from repro.serve.session import DEFAULT_SERVER_CACHE, FrameDecodeError, TraceSession
from repro.viz.jumpshot import VIEW_KINDS
from repro.viz.views import MIN_VIEW_WIDTH

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

#: Tenant request header examined by the quota layer.
TENANT_HEADER = "x-ute-tenant"

#: Seconds a connection may take to deliver a request once its first byte
#: has arrived (then: 408) — and may sit idle between requests (then: closed
#: without a response).
HEADER_TIMEOUT = 10.0


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
    #: Dataset ``/`` and the un-prefixed ``/api/*`` routes rewrite to (None
    #: = pick "default", else the alphabetically first dataset).
    default_dataset: str | None = None

    def repository(self, root: str | Path | None = None) -> Repository:
        """The repository these knobs describe: the registry rooted at
        ``root``, or (None) a root-less one that files are attached to."""
        return Repository(
            root,
            budget_bytes=self.memory_budget_bytes,
            cache_frames=self.cache_frames,
            default_dataset=self.default_dataset,
        )


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
    #: Whether the client wants the connection kept after the response.
    persist: bool = False
    #: Filled in by dispatch once the target dataset resolves.
    dataset: str = ""
    session: Any = field(default=None, repr=False)


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] | None = None
    #: Incremental body, sent with chunked transfer coding instead of
    #: ``body``.
    stream: "_Stream | None" = field(default=None, repr=False)

    @classmethod
    def json(
        cls, payload: Any, status: int = 200, headers: dict[str, str] | None = None
    ) -> "Response":
        return cls(status, json.dumps(payload).encode(), "application/json", headers)

    @classmethod
    def text(
        cls,
        text: str,
        status: int = 200,
        content_type: str = "text/plain",
        headers: dict[str, str] | None = None,
    ) -> "Response":
        return cls(status, text.encode(), content_type + "; charset=utf-8", headers)


class _Stream:
    """An incremental response body: byte chunks the writer pulls on the
    executor (producing one may decode frames).

    An empty chunk means "nothing to say yet": the writer waits ``idle``
    seconds on the event loop — not on a worker — before it pulls again.
    Dispatch arms ``release`` with the dataset unpin, which runs exactly
    once: on exhaustion, on error, or on close, even a close before the
    first chunk was pulled (a HEAD request)."""

    def __init__(self, chunks: Iterator[bytes], idle: float = 0.0) -> None:
        self._chunks = chunks
        self.idle = idle
        self.release: Callable[[], None] | None = None
        self._done = False

    def __next__(self) -> bytes:
        try:
            return next(self._chunks)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._done:
            return
        self._done = True
        try:
            self._chunks.close()
        finally:
            if self.release is not None:
                self.release()


#: ``Route.params`` of a route whose validator covers every query parameter.
ALL_PARAMS = ("*",)


class Route(NamedTuple):
    """One row of the serving surface.  Routing, the request label, the
    ETag and the 404 are all read off :data:`ROUTES`."""

    #: The path, and the ``route`` label of metrics and access logs:
    #: literal segments plus the placeholders of :data:`_PLACEHOLDERS`.
    pattern: str
    #: Handler method *name*, looked up on the server at dispatch.
    handler: str
    #: Query parameters the ETag covers (besides the path); None for a
    #: route without a dispatch-level validator — pages, listings, and the
    #: follow routes, which validate per epoch themselves.
    params: tuple[str, ...] | None = None
    #: Handler arguments the row fixes, ahead of the path's own.
    args: tuple = ()


ROUTES = (
    Route("/metrics", "_h_metrics"),
    Route("/datasets", "_h_landing"),
    Route("/api/datasets", "_h_datasets"),
    Route("/d/{ds}", "_h_viewer"),
    Route("/api/d/{ds}/preview", "_h_preview", ()),
    Route("/api/d/{ds}/frames", "_h_frames", ()),
    Route("/api/d/{ds}/frame/{i}", "_h_frame", ("view",)),
    Route("/api/d/{ds}/arrows/{i}", "_h_arrows", ()),
    Route("/api/d/{ds}/view/{kind}", "_h_view", ("t", "window", "width")),
    Route("/api/d/{ds}/utilization", "_h_utilization", ("lane", "window", "bins")),
    Route("/api/d/{ds}/stats", "_h_stats", ("table", "format", "window")),
    Route("/api/d/{ds}/query", "_h_query", ALL_PARAMS),
    Route("/api/d/{ds}/export/chrome", "_h_export_chrome", ()),
    Route("/api/d/{ds}/follow/preview", "_h_follow", None, ("preview",)),
    Route("/api/d/{ds}/follow/query", "_h_follow", None, ("query",)),
    Route("/api/d/{ds}/follow/poll", "_h_follow_poll"),
)


def _int_seg(text: str, what: str = "frame index") -> int:
    try:
        return int(text)
    except ValueError:
        raise _HttpError(400, f"{what} must be an integer, got {text!r}") from None


#: Pattern segments that match any text, and what a handler receives for
#: them (``{ds}`` is the dataset dispatch pins, not a handler argument).
_PLACEHOLDERS = {"{ds}": str, "{i}": _int_seg, "{kind}": str}


_SEGMENTS = [(route, route.pattern.strip("/").split("/")) for route in ROUTES]


def match_route(segs: list[str]) -> tuple[Route, str | None, list] | None:
    """The one table matcher: the row ``segs`` spell, the dataset they
    name (None on a repository-level route) and the handler arguments;
    None when no row matches."""
    for route, want in _SEGMENTS:
        if len(want) != len(segs) or any(
            w != s and w not in _PLACEHOLDERS for w, s in zip(want, segs)
        ):
            continue
        found = {w: s for w, s in zip(want, segs) if w in _PLACEHOLDERS}
        dataset = found.pop("{ds}", None)
        args = [_PLACEHOLDERS[w](s) for w, s in found.items()]
        return route, dataset, [*route.args, *args]
    return None


def resource_tag(route: Route, args: list, query: dict[str, str]) -> str:
    """The resource half of a request's ETag — the one recipe: the row's
    name plus a digest of what selects the representation (the path
    arguments and the query parameters the row declares)."""
    keys = sorted(query) if route.params is ALL_PARAMS else route.params
    chosen = [*map(str, args), *(f"{k}={query.get(k, '')}" for k in keys)]
    digest = hashlib.sha1("\x00".join(chosen).encode()).hexdigest()[:16]
    return f"{route.handler[3:]}-{digest}"


def not_modified(request: Request, etag: str) -> Response | None:
    """The one ``If-None-Match`` reading: the 304 when the header names
    ``etag`` (alone, in a list, or as ``*``), else None."""
    candidates = request.headers.get("if-none-match", "")
    if candidates.strip() == "*" or etag in [c.strip() for c in candidates.split(",")]:
        return Response(304, b"", "application/json", {"ETag": etag})
    return None


#: The repository-backed gauges: (family, help, key of the
#: :meth:`Repository.metrics` snapshot one scrape takes).  The
#: ``frame_cache`` names predate the frame store and are kept on purpose:
#: ``BENCHMARK.json``'s ``repository.resident_peak_bytes`` reads them.
REPOSITORY_GAUGES = (
    ("ute_serve_frame_cache_hits_total", "Shared frame-cache hits.", "hits"),
    ("ute_serve_frame_cache_misses_total", "Shared frame-cache misses.", "misses"),
    ("ute_serve_frame_cache_evictions_total",
     "Frames evicted from the shared LRU frame caches (budget shrinks and "
     "session evictions included).", "evictions"),
    ("ute_serve_frame_cache_resident_bytes",
     "Aggregate encoded bytes resident across all open sessions.", "resident_bytes"),
    ("ute_serve_memory_budget_bytes", "Configured global frame-cache budget.",
     "budget_bytes"),
    ("ute_serve_dataset_resident_bytes",
     "Encoded bytes resident in one open dataset session's caches.",
     "dataset_resident_bytes"),
    ("ute_serve_datasets", "Datasets registered in the repository.", "datasets"),
    ("ute_serve_sessions_open", "Dataset sessions currently open.", "sessions_open"),
    ("ute_serve_sessions_evicted_total",
     "Sessions closed by the global memory budget.", "sessions_evicted"),
    ("ute_serve_index_loaded",
     "Whether any open session has a fresh .uteidx sidecar (1/0).", "index_loaded"),
    ("ute_serve_index_builds_pending",
     "Background .uteidx builds scheduled or running.", "index_builds_pending"),
    ("ute_serve_index_frames_scanned_total",
     "Frames the planner selected for decoding across all queries.", "index_scanned"),
    ("ute_serve_index_frames_pruned_total",
     "Frames the planner pruned without decoding across all queries.", "index_pruned"),
    ("ute_serve_index_fallback_total",
     "Planned scans that fell back to full scan (no usable index).", "index_fallbacks"),
    ("ute_serve_bytes_fetched_total", "Bytes fetched from the SLOG byte source.",
     "bytes_fetched"),
    ("ute_serve_fetches_total", "Fetch calls against the SLOG byte source.",
     "fetch_count"),
    ("ute_serve_frames", "Frames across the open dataset sessions.", "frames"),
)


class TraceServer:
    """The asyncio server over a :class:`~repro.repository.Repository`."""

    def __init__(
        self, repository: Repository, config: ServerConfig | None = None
    ) -> None:
        self.config = config or ServerConfig()
        self.repository = repository
        self.quotas = TenantQuotas(
            default_rps=self.config.quota_rps,
            burst=self.config.quota_burst,
            overrides=dict(self.config.quota_overrides),
        )
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        #: The task of every open connection, for :meth:`stop` to end.
        self._connections: set[asyncio.Task] = set()
        self._active = 0
        self.registry = Registry()
        self.m_requests = self.registry.counter(
            "ute_serve_requests_total", "Requests handled.",
            ("dataset", "route", "status"),
        )
        self.m_connections = self.registry.counter(
            "ute_serve_connections_total",
            "Connections accepted (requests / connections = reuse).",
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
        #: The repository snapshot of the scrape being rendered.
        self._sample: dict[str, Any] = {}
        self._scrape_lock = threading.Lock()
        for name, help_text, key in REPOSITORY_GAUGES:
            self.registry.gauge(name, help_text, lambda key=key: self._sample[key])

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
        """Stop listening and end every open connection — idle ones, which
        nothing else would ever end, included.  The connection tasks are
        cancelled and awaited before ``wait_closed``: since Python 3.12
        that waits for the connections, before it did not."""
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        for task in self._connections:
            task.cancel()
        await asyncio.gather(*self._connections, return_exceptions=True)
        await server.wait_closed()

    async def serve_forever(self) -> None:
        """Serve until cancelled, then :meth:`stop`.  (Not
        ``asyncio.Server.serve_forever``: cancelled, that one waits for the
        connections itself, idle ones included.)"""
        assert self._server is not None, "call start() first"
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    # ------------------------------------------------------- request cycle

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: requests are answered in the order they arrive
        (a client may send the next before the last was answered) until
        :meth:`_serve_request` says the connection ends."""
        self.m_connections.inc()
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            # A connection accepted while stop() ran is not served.
            while self._server is not None and await self._serve_request(reader, writer):
                pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Only stop() cancels a connection, and this is where its task
            # ends: quietly (asyncio's stream callback logs a task that
            # ends cancelled as a failed one before Python 3.12).
            pass
        finally:
            self._connections.discard(task)
            writer.close()

    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, answer and account one request; whether the connection
        persists.  It does unless the request asked otherwise (``Connection:
        close``; HTTP/1.0 without ``keep-alive``), was malformed or not
        read to its end, or the response is a stream or a 5xx."""
        # The idle wait: a connection that sends nothing for the header
        # timeout is closed without a word (the read then ends as it does
        # when the client closes), and neither is a request.
        idle = asyncio.get_running_loop().call_later(HEADER_TIMEOUT, writer.close)
        try:
            first = await reader.read(1)
        finally:
            idle.cancel()
        if not first:
            return False
        start = time.perf_counter()
        route = "-"
        request: Request | None = None
        try:
            request = await asyncio.wait_for(
                self._read_request(reader, first), timeout=HEADER_TIMEOUT
            )
            route, response = await self._dispatch(request)
        except _HttpError as exc:
            response = Response.text(exc.message + "\n", exc.status, headers=exc.headers)
        except asyncio.TimeoutError:
            response = Response.text("request header timeout\n", 408)
        except (ConnectionError, asyncio.IncompleteReadError):
            raise  # the client went away mid-request: not a request, no reader
        except Exception:  # pragma: no cover - defensive
            log.exception("unhandled error")
            response = Response.text("internal server error\n", 500)
        duration = time.perf_counter() - start
        self.m_requests.inc(
            dataset=request.dataset if request is not None else "",
            route=route, status=str(response.status),
        )
        self.m_latency.observe(duration)
        access_log.info(
            "method=%s path=%s route=%s status=%d dur_ms=%.2f bytes=%d",
            request.method if request else "-",
            request.path if request else "-",
            route, response.status, duration * 1e3, len(response.body),
        )
        persist = (
            request is not None and request.persist
            and response.stream is None and response.status < 500
        )
        head_only = request is not None and request.method == "HEAD"
        await self._write_response(writer, response, head_only=head_only, persist=persist)
        return persist

    async def _read_request(self, reader: asyncio.StreamReader, first: bytes) -> Request:
        """Parse one request whose first byte has arrived; an
        :class:`_HttpError` from here ends the connection (what is left of
        the request on the wire is not read)."""
        cfg = self.config
        line = first + await reader.readline()
        if len(line) > cfg.max_target_bytes:
            raise _HttpError(414, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _HttpError(400, "malformed request line")
        method, target, version = parts
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
        asked = {token.strip().lower() for token in headers.get("connection", "").split(",")}
        persist = "keep-alive" in asked if version == "HTTP/1.0" else "close" not in asked
        return Request(method, path, query, headers, body, persist)

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
        route, dataset, args = self._route(request)
        if request.method == "POST" and route.pattern != "/api/datasets":
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
            try:
                request.session = self.repository.acquire(dataset)
            except RepositoryError as exc:
                raise _HttpError(404, str(exc)) from None
            request.dataset = dataset
        try:
            if dataset is not None:
                # Hot-reload a live dataset to the latest published epoch
                # before the ETag is computed, so validators advance with
                # the writer (one small manifest read; nothing to do for a
                # finished file).
                try:
                    request.session.maybe_refresh()
                except FormatError as exc:
                    raise _HttpError(
                        409, f"live container protocol violation: {exc}"
                    ) from None
            etag = None
            if route.params is not None:
                etag = request.session.etag(resource_tag(route, args, request.query))
                unchanged = not_modified(request, etag)
                if unchanged is not None:
                    return route.pattern, unchanged
            self._active += 1
            try:
                loop = asyncio.get_running_loop()
                response = await asyncio.wait_for(
                    loop.run_in_executor(
                        None, self._run_handler, getattr(self, route.handler),
                        request, args,
                    ),
                    timeout=self.config.request_timeout,
                )
            except asyncio.TimeoutError:
                raise _HttpError(504, "request timed out") from None
            finally:
                self._active -= 1
            if response.stream is not None and request.session is not None:
                # A streaming response reads the session while the body
                # goes out: the pin moves to the stream, which lets go of
                # it when the writer exhausts or closes it.
                response.stream.release = lambda: self.repository.release(dataset)
                request.session = None
        finally:
            if request.session is not None:
                # The request boundary: unpin and let the budget close any
                # session the admission governor scavenged.
                self.repository.release(request.dataset)
        if etag is not None and response.status == 200:
            response.headers = {**(response.headers or {}), "ETag": etag,
                                "Cache-Control": "no-cache"}
        return route.pattern, response

    def _run_handler(
        self, handler: Callable[..., Response], request: Request, args: list
    ) -> Response:
        try:
            return handler(request, *args)
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

    def _route(self, request: Request) -> tuple[Route, str | None, list]:
        """The table row, dataset and handler arguments of one request.

        The single-file server is a one-dataset repository: ``/`` and the
        un-prefixed ``/api/X`` are a prefix rewrite onto the default
        dataset (``/d/{default}``, ``/api/d/{default}/X``) ahead of the
        table, so they are routed, validated, labelled and logged as the
        route they rewrite to."""
        segs = [s for s in request.path.split("/") if s]
        if not segs or (segs[:1] == ["api"] and segs[1:2] not in (["d"], ["datasets"])):
            default = self.repository.default
            if default is not None:
                segs[1:1] = ["d", default]
            elif segs:
                raise _HttpError(404, "no datasets registered")
            else:
                segs = ["datasets"]
        found = match_route(segs)
        if found is None:
            raise _HttpError(404, f"no such resource: {request.path}")
        return found

    # -------------------------------------------------------------- handlers
    # Run on executor threads; per-dataset handlers read the session that
    # dispatch resolved and pinned onto the request.

    def _h_landing(self, request: Request) -> Response:
        return Response.text(
            datasets_page(self.repository.info(), self.repository.default),
            content_type="text/html",
        )

    def _h_viewer(self, request: Request) -> Response:
        page = server_page(
            f"{request.dataset} — ute-serve", VIEW_KINDS, f"/api/d/{request.dataset}"
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
        with self._scrape_lock:
            # One repository snapshot per scrape; every table gauge reads it.
            self._sample = self.repository.metrics()
            text = self.registry.render()
        return Response.text(text, content_type="text/plain; version=0.0.4")

    def _h_preview(self, request: Request) -> Response:
        return Response.json(request.session.preview_payload())

    def _h_frames(self, request: Request) -> Response:
        return Response.json(request.session.frames_payload())

    def _h_frame(self, request: Request, index: int) -> Response:
        view = request.query.get("view") or None
        return Response(body=request.session.frame_json(index, view=view).encode())

    def _h_arrows(self, request: Request, index: int) -> Response:
        return Response.json(request.session.arrows_payload(index))

    def _h_export_chrome(self, request: Request) -> Response:
        """``/export/chrome``: the dataset as Chrome trace-event JSON,
        streamed incrementally (chunked) so the whole trace is never
        materialized server-side."""
        return Response(stream=_Stream(request.session.export_chrome_chunks()))

    def _h_view(self, request: Request, kind: str) -> Response:
        """``/view/{kind}?t=`` renders the frame containing an instant;
        ``/view/{kind}?window=T0:T1`` renders an arbitrary time window
        (aggregate-driven above the density threshold)."""
        width = self.config.svg_width
        if "width" in request.query:
            width = max(MIN_VIEW_WIDTH, min(_int_seg(request.query["width"], "width"), 4000))
        at = self._window(request)
        if at is None:
            if "t" not in request.query:
                raise _HttpError(
                    400,
                    "missing required query parameter 't' (seconds) or 'window'",
                )
            try:
                at = float(request.query["t"])
            except ValueError:
                raise _HttpError(400, f"bad instant {request.query['t']!r}") from None
        elif None in at:
            raise _HttpError(400, "view window needs both bounds: T0:T1")
        svg, io = request.session.view_svg(kind, at, width=width)
        return Response.text(svg, content_type="image/svg+xml", headers=_bytes_read(io))

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
            bins = max(1, min(_int_seg(request.query["bins"], "bins"), 8192))
        text = request.session.utilization_json(lane, window=window, max_bins=bins)
        if text is None:
            raise _HttpError(
                404, "no utilization hierarchy indexed for this dataset yet"
            )
        return Response(body=text.encode(), headers={"X-UTE-Bytes-Read": "0"})

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
        if fmt == "tsv":
            text = "\n".join(f"# table {t.name}\n{t.to_tsv()}" for t in tables)
            return Response.text(
                text, content_type="text/tab-separated-values", headers=_bytes_read(io)
            )
        return Response.json({
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
            "io": io,
        }, headers=_bytes_read(io))

    def _h_query(self, request: Request) -> Response:
        query, window, fmt = self._parse_query_spec(request)
        payload = request.session.query_payload(query, window=window)
        if fmt == "tsv":
            return Response.text(
                rows_tsv(payload["columns"], payload["rows"]),
                content_type="text/tab-separated-values",
                headers=_bytes_read(payload["io"]),
            )
        return Response.json(payload, headers=_bytes_read(payload["io"]))

    def _parse_query_spec(self, request: Request):
        """The /query (and /follow/query) parameter surface: returns
        (query, window, format).  The query fields are
        :meth:`Query.from_params`'s; a malformed one is a 400."""
        q = request.query
        fmt = q.get("format", "json")
        if fmt not in ("tsv", "json"):
            raise _HttpError(400, f"unknown format {fmt!r}; pick 'tsv' or 'json'")
        try:
            query = Query.from_params(q)
        except FormatError as exc:
            raise _HttpError(400, str(exc)) from None
        return query, self._window(request), fmt

    # ------------------------------------------------------- follow handlers

    def _h_follow(self, request: Request, mode: str) -> Response:
        """``/follow/preview`` and ``/follow/query``: Server-Sent Events,
        one preview payload or query result per published epoch."""
        session = request.session
        dataset = request.dataset
        since = self._follow_since(request)
        poll = _clampf(request.query.get("poll", "0.1"), 0.02, 2.0, "poll")
        max_s = _clampf(request.query.get("max_s", "3600"), 0.1, 86400.0, "max_s")
        answer = session.preview_payload
        if mode == "query":
            query, window, _fmt = self._parse_query_spec(request)

            def answer():
                return session.query_payload(query, window=window)

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
                            body = {
                                "seq": last,
                                "live": state["live"],
                                "finalized": state["finalized"],
                                "frames": state["frames"],
                                mode: answer(),
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
                    # Nothing to say: give the worker back.  The writer
                    # waits ``poll`` seconds on the loop and asks again.
                    yield b""
            finally:
                with self._follow_lock:
                    self._follow_active -= 1

        return Response(
            200, b"", "text/event-stream",
            {"Cache-Control": "no-cache", "X-Accel-Buffering": "no"},
            _Stream(gen(), poll),
        )

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
        return not_modified(request, etag) or Response.json(
            {**state, "changed": state["seq"] > since},
            headers={"ETag": etag, "Cache-Control": "no-cache"},
        )

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
        self, writer: asyncio.StreamWriter, response: Response, *,
        head_only: bool = False, persist: bool = False,
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
            "Connection": "keep-alive" if persist else "close",
            **(response.headers or {}),
        }
        if response.status == 304:
            headers.pop("Content-Type", None)
        head = (f"HTTP/1.1 {response.status} {reason}\r\n" + "".join(
            f"{k}: {v}\r\n" for k, v in headers.items()
        ) + "\r\n").encode("latin-1")
        if streaming:
            writer.write(head)
            await self._write_chunked(writer, response.stream)
            return
        if response.stream is not None:
            # HEAD or 304 never consumes the body: close the stream so
            # whatever it pins (the dataset session) is let go now.
            response.stream.close()
        if not head_only and response.status != 304:
            head += response.body
        writer.write(head)
        await writer.drain()

    async def _write_chunked(self, writer: asyncio.StreamWriter, stream: _Stream) -> None:
        """Send a stream as chunked transfer coding, pulling each chunk on
        the executor and sitting out its idle spells on the loop.  A
        mid-stream producer error truncates the chunked body without the
        terminating chunk, so clients can tell a partial payload from a
        complete one."""
        loop = asyncio.get_running_loop()
        pull = None
        try:
            while True:
                pull = loop.run_in_executor(None, next, stream, None)
                # Shielded: a cancelled connection must not lose track of
                # a pull that is still running on its worker.
                chunk = await asyncio.shield(pull)
                if chunk is None:
                    writer.write(b"0\r\n\r\n")
                    await writer.drain()
                    return
                if not chunk:
                    await asyncio.sleep(stream.idle)
                    continue
                writer.write(b"%x\r\n" % len(chunk) + chunk + b"\r\n")
                await writer.drain()
        except ConnectionError:
            raise
        except Exception:
            log.exception("streaming response aborted mid-body")
        finally:
            if pull is not None and not pull.done():
                # Cancelled mid-pull (server stop): a generator cannot be
                # closed while it executes, so let the pull return first.
                await asyncio.gather(pull, return_exceptions=True)
            stream.close()


def _bytes_read(io: dict[str, int]) -> dict[str, str]:
    """The header that reports the trace IO behind one response."""
    return {"X-UTE-Bytes-Read": str(io["bytes_read"])}


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


# ---------------------------------------------------------------------------
# Embedding helpers.


def serve(repository: Repository, config: ServerConfig | None = None) -> None:
    """Serve ``repository`` until interrupted, then close it (the CLI's
    one entry: a single file is a repository with one attached dataset)."""
    config = config or ServerConfig()
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
        if not isinstance(target, Repository):
            path, target = target, self.config.repository()
            target.attach(DEFAULT_DATASET, path)
        self.repository = target
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
        # Close the listener and end the connections inside the loop, so
        # their transports close while it is still alive (a follow stream
        # may be mid-write when stop() lands).
        self._loop.run_until_complete(self.server.stop())
        self._loop.close()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        self.repository.close()

    @property
    def session(self) -> TraceSession | None:
        """The default dataset's session (single-trace compatibility)."""
        name = self.repository.default
        return self.repository.session(name) if name else None

    @property
    def base_url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
