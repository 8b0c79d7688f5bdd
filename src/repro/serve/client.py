"""A small blocking client for the serving daemon (stdlib ``http.client``).

Used by the tests, the load benchmark, and scriptable exploration::

    client = ServeClient("http://127.0.0.1:8265")
    preview = client.preview()
    frame = client.frame(0)
    svg = client.view_svg("thread", t=0.0001)

The client remembers the ETag of every 200 response and sends it back as
``If-None-Match``; on a 304 the previously cached body is returned, so
callers never see the difference — except in :attr:`ServeResponse.status`
and the daemon's metrics, where the revalidation shows up as a free hit.
The remembered responses are an LRU bounded by :data:`CACHE_BOUND`.

Connections persist: a client keeps one ``http.client`` connection per
thread that uses it, straight to ``base_url`` (no proxy settings are
read), and re-opens it when the daemon has closed it in the meantime.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any


@dataclass
class ServeResponse:
    """One HTTP exchange: status, headers, body."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body.decode())

    @property
    def text(self) -> str:
        return self.body.decode()


#: The revalidation cache's bound, (responses, total body bytes): a loop over
#: random ``?t=`` / ``?window=`` views must not keep every SVG it ever fetched.
CACHE_BOUND = (256, 32 * 1024 * 1024)

#: Statuses the retry loop considers transient: saturation shedding and
#: per-tenant quota pacing, both of which carry ``Retry-After``.
_RETRYABLE = (503, 429)


class RetriesExhausted(urllib.error.URLError):
    """The retry loop gave up on connection-level failures.

    A :class:`urllib.error.URLError` (so existing handlers keep working)
    that additionally carries how many attempts were made and how much
    wall clock the loop spent — a caller can tell a fast-fail from an
    exhausted time budget."""

    def __init__(self, reason: object, *, attempts: int, elapsed: float) -> None:
        super().__init__(
            f"{reason} (after {attempts} attempt{'s' if attempts != 1 else ''}"
            f" over {elapsed:.2f}s)"
        )
        self.attempts = attempts
        self.elapsed = elapsed


@dataclass
class FollowEvent:
    """One Server-Sent Event from a ``/follow/*`` stream."""

    event: str
    seq: int
    data: Any


@dataclass
class ServeClient:
    """Blocking API client with transparent ETag revalidation.

    ``dataset`` selects a repository dataset (requests go to
    ``/api/d/{dataset}/...``); without it the legacy un-prefixed routes —
    the server's default dataset — are used.  ``tenant`` stamps every
    request with the ``X-UTE-Tenant`` header the quota layer reads."""

    base_url: str
    timeout: float = 30.0
    use_etags: bool = True
    #: Extra attempts after a 503/429 or a connection-level failure (0 =
    #: off, so load tests still observe every rejection).
    retries: int = 0
    #: First retry delay (seconds); doubles per attempt, capped at 2s.
    backoff: float = 0.05
    #: Total wall-clock budget of one request's retry loop (seconds).
    #: However many :attr:`retries` remain, once this much time has
    #: passed the next failure is surfaced instead of slept on — a slow
    #: server cannot turn "3 retries" into an unbounded stall.  Backoff
    #: sleeps are also trimmed to never overshoot the budget.
    max_retry_seconds: float = 30.0
    dataset: str | None = None
    tenant: str | None = None
    _cache: OrderedDict[str, ServeResponse] = field(
        default_factory=OrderedDict, init=False, repr=False
    )
    #: The open connection of each thread that has used this client.
    _connections: dict[int, http.client.HTTPConnection] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.base_url = self.base_url.rstrip("/")
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"ServeClient speaks http://host[:port], got {self.base_url!r}")
        self._address = (url.hostname, url.port or 80)
        self._prefix = url.path

    @property
    def api_base(self) -> str:
        """Root of the per-dataset API this client talks to."""
        if self.dataset:
            return f"/api/d/{urllib.parse.quote(self.dataset)}"
        return "/api"

    def for_dataset(self, dataset: str | None) -> "ServeClient":
        """A sibling client bound to another dataset: configured alike,
        sharing nothing (its own cache, its own connections)."""
        return dataclasses.replace(self, dataset=dataset)

    def close(self) -> None:
        """Close every connection the client holds (it re-opens on use)."""
        while self._connections:
            self._connections.popitem()[1].close()

    # ------------------------------------------------------------- plumbing

    def request(
        self,
        path: str,
        *,
        headers: dict[str, str] | None = None,
        method: str = "GET",
        body: bytes | None = None,
    ) -> ServeResponse:
        """Issue ``method path`` (path + optional query, starting ``/``).

        Non-2xx responses are returned, not raised.  With ETags enabled, a
        304 revalidation transparently yields the cached body (status stays
        304 so callers can count cheap hits).

        With :attr:`retries` set, a 503 (saturated server), a 429 (tenant
        over quota) or a connection-level failure is retried with
        exponential backoff — honouring ``Retry-After`` when the server
        sends one — before the last response (or error) is surfaced."""
        send = dict(headers or {})
        if self.tenant and "X-UTE-Tenant" not in send:
            send["X-UTE-Tenant"] = self.tenant
        cacheable = method == "GET"
        if (
            cacheable and self.use_etags and path in self._cache
            and "If-None-Match" not in send
        ):
            send["If-None-Match"] = self._cache[path].headers["etag"]
        delay = self.backoff
        start = time.monotonic()

        def budget_left() -> float:
            return self.max_retry_seconds - (time.monotonic() - start)

        for attempt in range(self.retries + 1):
            try:
                response = self._exchange(method, self._prefix + path, send, body)
            except (OSError, http.client.HTTPException) as exc:
                # The one connection-level failure path: refused, reset,
                # timed out or cut short, while sending or while reading.
                if attempt >= self.retries or budget_left() <= 0:
                    raise RetriesExhausted(
                        exc, attempts=attempt + 1,
                        elapsed=time.monotonic() - start,
                    ) from exc
                time.sleep(max(0.0, min(delay, 2.0, budget_left())))
                delay *= 2
                continue
            if (
                response.status not in _RETRYABLE
                or attempt >= self.retries
                or budget_left() <= 0
            ):
                break
            retry_after = response.headers.get("retry-after")
            try:
                wait = float(retry_after) if retry_after else delay
            except ValueError:
                wait = delay
            time.sleep(max(0.0, min(wait, 2.0, budget_left())))
            delay *= 2
        if cacheable and response.status == 200 and "etag" in response.headers:
            self._cache[path] = response
            self._cache.move_to_end(path)
            max_entries, max_bytes = CACHE_BOUND
            while self._cache and (
                len(self._cache) > max_entries
                or sum(len(kept.body) for kept in self._cache.values()) > max_bytes
            ):
                self._cache.popitem(last=False)
        elif cacheable and response.status == 304 and path in self._cache:
            self._cache.move_to_end(path)
            response = ServeResponse(304, response.headers, self._cache[path].body)
        return response

    def _exchange(
        self, method: str, target: str, headers: dict[str, str], body: bytes | None
    ) -> ServeResponse:
        """One request and its whole response on the calling thread's
        connection.  A kept connection may have been closed by the daemon
        since its last response (idle timeout, restart), which only shows
        when it is next used: a GET or HEAD that dies on one before any of
        the response arrived is sent once more on a fresh connection.
        Every other failure closes the connection and is the caller's."""
        ident = threading.get_ident()
        conn = self._connections.get(ident)
        kept = conn is not None and conn.sock is not None
        if conn is None:
            conn = self._connections[ident] = http.client.HTTPConnection(
                *self._address, timeout=self.timeout
            )
        try:
            try:
                conn.request(method, target, body=body, headers=headers)
                reply = conn.getresponse()
            except ConnectionError:
                if not kept or method not in ("GET", "HEAD"):
                    raise
                conn.close()
                conn.request(method, target, body=body, headers=headers)
                reply = conn.getresponse()
            # (A reply that says ``Connection: close`` has http.client drop
            # the connection itself; the next request re-opens it.)
            return ServeResponse(
                reply.status, {k.lower(): v for k, v in reply.getheaders()}, reply.read()
            )
        except BaseException:
            conn.close()
            raise

    def get_json(self, path: str) -> Any:
        response = self.request(path)
        if response.status not in (200, 304):
            raise RuntimeError(f"GET {path} -> {response.status}: {response.text.strip()}")
        return response.json()

    # ------------------------------------------------------------- API calls

    def preview(self) -> dict:
        return self.get_json(f"{self.api_base}/preview")

    def frames(self) -> dict:
        return self.get_json(f"{self.api_base}/frames")

    def frame(self, index: int, *, view: str | None = None) -> dict:
        path = f"{self.api_base}/frame/{index}"
        if view:
            path += "?view=" + urllib.parse.quote(view)
        return self.get_json(path)

    def arrows(self, index: int) -> dict:
        return self.get_json(f"{self.api_base}/arrows/{index}")

    def view_svg(self, kind: str, t: float, *, width: int | None = None) -> str:
        path = f"{self.api_base}/view/{urllib.parse.quote(kind)}?t={t}"
        if width is not None:
            path += f"&width={width}"
        response = self.request(path)
        if response.status not in (200, 304):
            raise RuntimeError(f"GET {path} -> {response.status}: {response.text.strip()}")
        return response.text

    def stats(self, table: str, *, format: str = "tsv", window: str | None = None) -> ServeResponse:
        params = {"table": table, "format": format}
        if window:
            params["window"] = window
        query = urllib.parse.urlencode(params)
        return self.request(f"{self.api_base}/stats?{query}")

    def query(self, params: dict[str, str]) -> ServeResponse:
        """Run ``/api/.../query`` with raw query parameters."""
        return self.request(f"{self.api_base}/query?" + urllib.parse.urlencode(params))

    def utilization(self, params: dict[str, str]) -> ServeResponse:
        """Aggregate busy-time cells from ``/api/.../utilization``."""
        return self.request(
            f"{self.api_base}/utilization?" + urllib.parse.urlencode(params)
        )

    def export_chrome(self) -> ServeResponse:
        """The whole trace as Chrome trace-event JSON (chunked transfer;
        ``http.client`` reassembles the chunks, ETag revalidation applies)."""
        return self.request(f"{self.api_base}/export/chrome")

    # ---------------------------------------------------------------- follow

    def follow_events(
        self,
        *,
        mode: str = "preview",
        since: int = -1,
        params: dict[str, str] | None = None,
        timeout: float | None = None,
    ):
        """Generate :class:`FollowEvent` objects from a ``/follow/{mode}``
        SSE stream until the server sends ``final``/``timeout``/``error``
        (each of which is yielded, then the generator returns).  ``since``
        resumes after an already-seen epoch; ``params`` passes extra query
        parameters (``window``, ``poll``, ``max_s``, the /query surface)."""
        query = {"since": str(since), **(params or {})}
        target = (
            f"{self._prefix}{self.api_base}/follow/{mode}?"
            + urllib.parse.urlencode(query)
        )
        send = {"Accept": "text/event-stream"}
        if self.tenant:
            send["X-UTE-Tenant"] = self.tenant
        # A stream of its own: it stays open for as long as the trace grows.
        conn = http.client.HTTPConnection(
            *self._address, timeout=self.timeout if timeout is None else timeout
        )
        try:
            conn.request("GET", target, headers=send)
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"GET {target} -> {resp.status}")
            event, seq, data_lines = "message", -1, []
            for raw in resp:
                line = raw.decode().rstrip("\n").rstrip("\r")
                if line.startswith(":"):
                    continue
                if not line:
                    if data_lines:
                        yield FollowEvent(
                            event, seq, json.loads("\n".join(data_lines))
                        )
                        if event in ("final", "timeout", "error"):
                            return
                    event, data_lines = "message", []
                    continue
                name, _, value = line.partition(":")
                value = value.removeprefix(" ")
                if name == "event":
                    event = value
                elif name == "id":
                    try:
                        seq = int(value)
                    except ValueError:
                        pass
                elif name == "data":
                    data_lines.append(value)
        finally:
            conn.close()

    def follow_poll(self, *, since: int = -1, wait: float = 10.0) -> dict:
        """One long-poll round: the follow state once the epoch advances
        past ``since`` (or ``wait`` elapses)."""
        query = urllib.parse.urlencode({"since": since, "wait": wait})
        return self.get_json(f"{self.api_base}/follow/poll?{query}")

    # ------------------------------------------------------------ repository

    def datasets(self) -> dict:
        """The repository's dataset listing (name, bytes, index state)."""
        return self.get_json("/api/datasets")

    def upload_dataset(self, name: str, data: bytes) -> ServeResponse:
        """Register ``data`` (a SLOG file's bytes) as dataset ``name``."""
        query = urllib.parse.urlencode({"name": name})
        return self.request(
            f"/api/datasets?{query}", method="POST", body=data,
            headers={"Content-Type": "application/octet-stream"},
        )

    def metrics(self) -> str:
        response = self.request("/metrics")
        if response.status != 200:
            raise RuntimeError(f"GET /metrics -> {response.status}")
        return response.text

    def metric_value(self, name: str) -> float:
        """Read one unlabelled metric's current value from ``/metrics``."""
        for line in self.metrics().splitlines():
            if line.startswith(name + " "):
                return float(line.split()[1])
        raise KeyError(name)
