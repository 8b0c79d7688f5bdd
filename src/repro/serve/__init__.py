"""The trace-serving daemon (``ute-serve``).

A dependency-free asyncio HTTP service that puts the Jumpshot workflow —
preview, frame index, frame display, statistics — behind an API so many
clients can explore many SLOG files concurrently.  A
:class:`~repro.repository.Repository` of named datasets backs the server:
per-dataset :class:`~repro.serve.session.TraceSession` objects (SlogFile
+ frame cache behind a lock) open lazily and share one global memory
budget; strong dataset-scoped ETags make repeat frame views free;
per-tenant quotas pace noisy clients; ``/metrics`` exports
Prometheus-style counters aggregated across the fleet.

See ``docs/SERVING.md`` and ``docs/REPOSITORY.md`` for the API reference.
"""

from repro.repository import Repository
from repro.serve.app import (
    ServerConfig,
    ServerThread,
    TraceServer,
    serve,
)
from repro.serve.client import ServeClient
from repro.serve.session import TraceSession

__all__ = [
    "Repository",
    "ServerConfig",
    "ServerThread",
    "TraceServer",
    "serve",
    "ServeClient",
    "TraceSession",
]
