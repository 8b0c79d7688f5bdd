"""The multi-trace dataset registry behind ``ute-serve``.

A :class:`Repository` manages named datasets — each one SLOG file plus its
optional ``.uteidx`` sidecar — under one root directory, and hands out the
per-dataset :class:`~repro.serve.session.TraceSession` objects the serving
daemon shares across requests.  The pieces:

* **Registry on disk.**  ``<root>/<name>/trace.slog`` per dataset, plus
  one ``<root>/manifest.json`` naming every registered dataset.  Both are
  published through the atomicio machinery (temp sibling + fsync +
  rename), so a crash mid-upload leaves either nothing or a recognizable
  temp artifact — never a half dataset.  Startup sweeps temp artifacts
  and removes dataset directories the manifest does not name (an upload
  that died between publishing its data and publishing the manifest).

* **Lazy sessions, LRU-evicted under one global memory budget.**  A
  dataset's ``TraceSession`` opens on first use.  The per-file frame
  store accounting (``FrameStore.resident_bytes``) is aggregated across all
  open sessions; when the total exceeds ``budget_bytes``, whole
  least-recently-used sessions are evicted (their cached frames count as
  cache evictions in the aggregate stats the metrics endpoint exports),
  and as a last resort the surviving session's own cache is shrunk.
  Counters of evicted sessions are folded into a retirement tally so the
  aggregate numbers never move backwards.

* **Background index builds.**  Registration kicks off a daemon thread
  that builds and atomically publishes the ``.uteidx`` sidecar; the
  dataset serves immediately (full scans) and starts pruning the moment
  the build lands.  ``index_status`` (pending/building/ready/failed/none)
  is visible in the dataset listing.
"""

from __future__ import annotations

import datetime
import json
import re
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.atomicio import atomic_write_bytes, is_temp_artifact
from repro.core.bytesource import MemorySource
from repro.errors import FormatError, ReproError

#: Dataset name of the single-file serving mode, and the dataset the
#: legacy (un-prefixed) ``/api/*`` routes alias to when none is chosen.
DEFAULT_DATASET = "default"

#: Default global frame-cache budget across all open sessions.
DEFAULT_BUDGET_BYTES = 256 << 20

#: The trace file inside each managed dataset directory.
TRACE_FILENAME = "trace.slog"

_MANIFEST = "manifest.json"
_MANIFEST_VERSION = 1

#: Index build states surfaced in the dataset listing.
INDEX_NONE = "none"          # no sidecar, no build scheduled
INDEX_PENDING = "pending"    # build scheduled, not started
INDEX_BUILDING = "building"  # build thread running
INDEX_READY = "ready"        # fresh sidecar on disk
INDEX_FAILED = "failed"      # build raised; dataset still serves full scans

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$")

#: Frame-store counters of a session (``session.stats()`` keys).
_STAT_KEYS = ("hits", "misses", "evictions", "fetch_count", "bytes_fetched")


def _session_counters(session) -> dict[str, int]:
    """One session's monotone counters — the frame store's cache/IO
    accounting plus the planner's — which :meth:`Repository.metrics` sums
    over the pool and eviction folds into the retirement tally."""
    stats = session.stats()
    return {
        **{key: stats.get(key, 0) for key in _STAT_KEYS},
        "index_scanned": session.index_frames_scanned,
        "index_pruned": session.index_frames_pruned,
        "index_fallbacks": session.index_fallbacks,
    }


class RepositoryError(ReproError):
    """A dataset registry problem: bad name, duplicate, missing dataset,
    invalid upload, or an operation needing a root on a root-less
    repository."""


class DatasetExists(RepositoryError):
    """Registering a name that is already taken (HTTP 409)."""


def check_dataset_name(name: str) -> str:
    """Validate a dataset name (path-safe, no leading dot, <= 100 chars)."""
    if not _NAME_RE.match(name or ""):
        raise RepositoryError(
            f"bad dataset name {name!r}: use letters, digits, '.', '_', '-' "
            "(no leading punctuation, at most 100 characters)"
        )
    return name


@dataclass
class Dataset:
    """One registered dataset: where its trace lives plus build state."""

    name: str
    path: Path
    bytes: int
    created: str
    #: Managed datasets live under the repository root and appear in the
    #: manifest; attached ones reference a caller-owned file.
    managed: bool
    index_status: str = INDEX_NONE
    index_error: str = ""
    #: Set once the background index build reaches a terminal state.
    index_done: threading.Event = field(default_factory=threading.Event, repr=False)

    def manifest_entry(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "file": self.path.name,
            "bytes": self.bytes,
            "created": self.created,
        }


class Repository:
    """Named datasets + the lazily opened session pool serving them.

    ``root=None`` gives a registry with no disk backing: datasets can only
    be :meth:`attach`-ed (the single-file ``ute-serve`` mode) and uploads
    are rejected.  All methods are thread-safe.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        cache_frames: int | None = None,
        default_dataset: str | None = None,
        build_indexes: bool = True,
    ) -> None:
        from repro.serve.session import DEFAULT_SERVER_CACHE

        self.root = Path(root) if root is not None else None
        self.budget_bytes = max(0, int(budget_bytes))
        self.cache_frames = (
            DEFAULT_SERVER_CACHE if cache_frames is None else cache_frames
        )
        self.build_indexes = build_indexes
        self._default = default_dataset
        self._lock = threading.RLock()
        self._datasets: dict[str, Dataset] = {}
        #: Open sessions in LRU order (first = coldest).
        self._sessions: "OrderedDict[str, Any]" = OrderedDict()
        #: Pins held by in-flight requests (acquire/release).
        self._refs: dict[str, int] = {}
        #: Bytes reserved by decodes that have not landed in a cache yet.
        self._pending = 0
        # Counters of evicted sessions, so aggregates never run backwards.
        self._retired = dict.fromkeys(
            (*_STAT_KEYS, "index_scanned", "index_pruned", "index_fallbacks"), 0
        )
        self.sessions_evicted = 0
        self.index_builds_failed = 0
        if self.root is not None:
            self._load_root()

    # ------------------------------------------------------------ registry

    def attach(self, name: str, path: str | Path) -> Dataset:
        """Register a dataset that references ``path`` in place — nothing
        is copied, nothing written to the manifest.  A path whose live
        container exists (``<path>.live/``) is accepted before the final
        file does: the session follows the growing trace."""
        from repro.live import has_live_container

        check_dataset_name(name)
        path = Path(path)
        live = not path.exists() and has_live_container(path)
        if not path.exists() and not live:
            raise RepositoryError(f"dataset file not found: {path}")
        with self._lock:
            if name in self._datasets:
                raise DatasetExists(f"dataset {name!r} already exists")
            dataset = Dataset(
                name=name,
                path=path,
                bytes=_trace_bytes(path),
                created=_now_iso(),
                managed=False,
                index_status=INDEX_NONE if live else self._sidecar_status(path),
            )
            dataset.index_done.set()
            self._datasets[name] = dataset
            return dataset

    def register(
        self,
        name: str,
        *,
        data: bytes | None = None,
        source: str | Path | None = None,
    ) -> Dataset:
        """Add a dataset to the on-disk registry from ``data`` (an upload
        body) or by copying ``source``.

        The trace file is validated (SLOG metadata must parse) before
        anything is published; the data file commits atomically first and
        the manifest second, so a crash at any instant leaves either a
        complete registered dataset or debris the next startup sweeps."""
        if (data is None) == (source is None):
            raise RepositoryError("register() needs exactly one of data/source")
        check_dataset_name(name)
        with self._lock:
            if self.root is None:
                raise RepositoryError(
                    "repository has no root directory; registration is disabled"
                )
            if name in self._datasets:
                raise DatasetExists(f"dataset {name!r} already exists")
            if data is None:
                data = Path(source).read_bytes()  # type: ignore[arg-type]
            self._validate_slog_bytes(name, data)
            dataset_dir = self.root / name
            dataset_dir.mkdir(parents=True, exist_ok=True)
            target = dataset_dir / TRACE_FILENAME
            atomic_write_bytes(target, data)
            dataset = Dataset(
                name=name,
                path=target,
                bytes=len(data),
                created=_now_iso(),
                managed=True,
            )
            self._datasets[name] = dataset
            self._save_manifest()
            if self.build_indexes:
                self._start_index_build(dataset)
            else:
                dataset.index_status = self._sidecar_status(target)
                dataset.index_done.set()
            return dataset

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._datasets)

    def has(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def get(self, name: str) -> Dataset:
        with self._lock:
            dataset = self._datasets.get(name)
            if dataset is None:
                raise RepositoryError(f"no such dataset: {name!r}")
            return dataset

    @property
    def default(self) -> str | None:
        """The dataset the legacy un-prefixed API routes alias to."""
        with self._lock:
            if self._default and self._default in self._datasets:
                return self._default
            if DEFAULT_DATASET in self._datasets:
                return DEFAULT_DATASET
            if self._datasets:
                return sorted(self._datasets)[0]
            return None

    def info(self) -> list[dict[str, Any]]:
        """The dataset listing payload (``GET /api/datasets``)."""
        with self._lock:
            out = []
            for name in sorted(self._datasets):
                dataset = self._datasets[name]
                session = self._sessions.get(name)
                out.append(
                    {
                        "name": name,
                        "bytes": dataset.bytes,
                        "created": dataset.created,
                        "managed": dataset.managed,
                        "index": dataset.index_status,
                        "open": session is not None,
                        "resident_bytes": (
                            session.resident_bytes() if session is not None else 0
                        ),
                    }
                )
            return out

    def wait_index(self, name: str, timeout: float = 30.0) -> str:
        """Block until ``name``'s index build reaches a terminal state and
        return that state (tests and scripts that need determinism)."""
        dataset = self.get(name)
        dataset.index_done.wait(timeout)
        return dataset.index_status

    # ------------------------------------------------------- session pool
    #
    # Budget mechanics, in two layers:
    #
    # 1. *Admission governor* (hard invariant): before a reader decodes a
    #    frame into its cache it reserves the frame's bytes; the reserve
    #    shrinks the coldest sessions' caches so that resident + pending
    #    never exceeds the budget.  Shrinking only drops cache entries —
    #    always safe, even for sessions mid-request.
    # 2. *Session eviction* (request boundaries): a session whose cache
    #    the governor scavenged to zero is closed outright at the next
    #    :meth:`release` — unless a request still holds it (refcount).
    #    Its counters fold into the retirement tally, so the aggregate
    #    frame-cache metrics publish every eviction.

    def session(self, name: str):
        """The dataset's :class:`TraceSession`, opened lazily and touched
        to the hot end of the LRU order.  Request handlers should prefer
        the :meth:`acquire`/:meth:`release` pair, which additionally pins
        the session against eviction for the duration."""
        from repro.serve.session import TraceSession

        with self._lock:
            dataset = self._datasets.get(name)
            if dataset is None:
                raise RepositoryError(f"no such dataset: {name!r}")
            session = self._sessions.get(name)
            if session is None:
                session = TraceSession(
                    dataset.path, cache_frames=self.cache_frames, dataset=name
                )
                session.reader.governor = self
                self._sessions[name] = session
            session.scavenged = False
            self._sessions.move_to_end(name)
            return session

    def acquire(self, name: str):
        """:meth:`session`, plus a pin: the session will not be closed by
        budget enforcement until the matching :meth:`release`."""
        with self._lock:
            session = self.session(name)
            self._refs[name] = self._refs.get(name, 0) + 1
            return session

    def release(self, name: str) -> None:
        """Drop a pin taken by :meth:`acquire` and run budget enforcement
        (the request boundary where scavenged idle sessions are closed)."""
        with self._lock:
            count = self._refs.get(name, 0) - 1
            if count > 0:
                self._refs[name] = count
            else:
                self._refs.pop(name, None)
        self.enforce_budget()

    def open_sessions(self) -> list[str]:
        """Names of currently open sessions, coldest first."""
        with self._lock:
            return list(self._sessions)

    def enforce_budget(self) -> None:
        """Close scavenged idle sessions and, should the aggregate still
        exceed the budget, evict cold idle sessions then shrink caches."""
        with self._lock:
            for name in list(self._sessions):
                session = self._sessions[name]
                if self._refs.get(name):
                    continue
                if getattr(session, "scavenged", False):
                    self._evict(name)
            total = sum(s.resident_bytes() for s in self._sessions.values())
            for name in list(self._sessions):
                if total <= self.budget_bytes:
                    break
                if self._refs.get(name):
                    continue
                total -= self._sessions[name].resident_bytes()
                self._evict(name)
            if total > self.budget_bytes:
                self._shrink_to(self.budget_bytes)

    def _shrink_to(self, target: int) -> None:
        """Drop cached frames, coldest session first, until the aggregate
        resident bytes is at most ``target``.  Only touches caches (never
        closes a session), so it is safe against in-flight requests.
        Lock held by caller."""
        total = sum(s.resident_bytes() for s in self._sessions.values())
        for session in self._sessions.values():
            if total <= target:
                break
            before = session.resident_bytes()
            if before == 0:
                continue
            session.reader.shrink_cache(max(0, target - (total - before)))
            after = session.resident_bytes()
            total += after - before
            if after == 0:
                # The budget emptied this session entirely: mark it so the
                # next request boundary closes it (LRU session eviction).
                session.scavenged = True

    def reserve(self, nbytes: int) -> None:
        """Admission governor entry (every session's reader calls it
        before a lookup adds ``nbytes`` to its cache): make room so
        resident + pending stays within the budget."""
        with self._lock:
            self._pending += nbytes
            self._shrink_to(max(0, self.budget_bytes - self._pending))

    def commit(self, nbytes: int) -> None:
        """Governor exit: the reserved insert has landed (or failed)."""
        with self._lock:
            self._pending = max(0, self._pending - nbytes)

    def _evict(self, name: str) -> None:
        """Close one session, folding its counters into the retirement
        tally.  Frames still resident at eviction count as cache
        evictions — that is what "the budget evicted this session" means
        in the exported metrics.  Lock held by caller."""
        session = self._sessions.pop(name)
        for key, value in _session_counters(session).items():
            self._retired[key] += value
        self._retired["evictions"] += session.reader.cached_frames()
        session.close()
        self.sessions_evicted += 1

    def close(self) -> None:
        """Close every open session (no eviction accounting)."""
        with self._lock:
            for session in self._sessions.values():
                session.close()
            self._sessions.clear()
            self._refs.clear()

    # --------------------------------------------------------- accounting

    def resident_bytes(self) -> int:
        """Aggregate resident frame-cache bytes across open sessions."""
        with self._lock:
            return sum(s.resident_bytes() for s in self._sessions.values())

    def metrics(self) -> dict[str, Any]:
        """Everything ``/metrics`` exports about the repository, as one
        snapshot built in one pass under one lock acquisition: the live
        sessions' counters summed onto the retirement tally (so they stay
        monotone over session evictions), the pool gauges, and resident
        bytes in total and per open dataset."""
        with self._lock:
            out: dict[str, Any] = {**self._retired, "frames": 0}
            resident = {}
            for name, session in self._sessions.items():
                for key, value in _session_counters(session).items():
                    out[key] += value
                out["frames"] += session.frame_count()
                resident[name] = session.resident_bytes()
            out.update(
                resident_bytes=sum(resident.values()),
                dataset_resident_bytes=resident,
                budget_bytes=self.budget_bytes,
                datasets=len(self._datasets),
                sessions_open=len(self._sessions),
                sessions_evicted=self.sessions_evicted,
                # An open session has its index loaded — or, sessions being
                # lazy, an unopened dataset has a fresh sidecar to load.
                index_loaded=int(
                    any(s.index is not None for s in self._sessions.values())
                    or any(
                        d.index_status == INDEX_READY and d.name not in self._sessions
                        for d in self._datasets.values()
                    )
                ),
                index_builds_pending=sum(
                    d.index_status in (INDEX_PENDING, INDEX_BUILDING)
                    for d in self._datasets.values()
                ),
            )
            return out

    # ---------------------------------------------------------- internals

    def _load_root(self) -> None:
        """Open an on-disk registry: sweep crash debris, load the
        manifest, drop manifest entries whose data vanished, remove
        dataset directories the manifest does not know, kick index builds
        for datasets without a fresh sidecar."""
        root = self.root
        assert root is not None
        root.mkdir(parents=True, exist_ok=True)
        for path in list(root.rglob("*")):
            if path.is_file() and is_temp_artifact(path):
                path.unlink(missing_ok=True)
        manifest_path = root / _MANIFEST
        entries: list[dict[str, Any]] = []
        if manifest_path.exists():
            try:
                doc = json.loads(manifest_path.read_text())
                entries = list(doc.get("datasets", []))
            except (OSError, ValueError) as exc:
                raise RepositoryError(
                    f"unreadable repository manifest {manifest_path}: {exc}"
                ) from exc
        changed = False
        for entry in entries:
            name = str(entry.get("name", ""))
            try:
                check_dataset_name(name)
            except RepositoryError:
                changed = True
                continue
            path = root / name / str(entry.get("file", TRACE_FILENAME))
            if not path.is_file():
                changed = True
                continue
            self._datasets[name] = Dataset(
                name=name,
                path=path,
                bytes=path.stat().st_size,
                created=str(entry.get("created", "")),
                managed=True,
            )
        # Directories the manifest does not name are uploads that died
        # between the data commit and the manifest commit: remove them.
        for child in list(root.iterdir()):
            if child.is_dir() and child.name not in self._datasets:
                shutil.rmtree(child, ignore_errors=True)
        if changed:
            self._save_manifest()
        for dataset in self._datasets.values():
            status = self._sidecar_status(dataset.path)
            if status is INDEX_READY or not self.build_indexes:
                dataset.index_status = status
                dataset.index_done.set()
            else:
                self._start_index_build(dataset)

    def _save_manifest(self) -> None:
        """Publish the manifest atomically.  Lock held by caller."""
        assert self.root is not None
        doc = {
            "version": _MANIFEST_VERSION,
            "datasets": [
                self._datasets[name].manifest_entry()
                for name in sorted(self._datasets)
                if self._datasets[name].managed
            ],
        }
        atomic_write_bytes(
            self.root / _MANIFEST, json.dumps(doc, indent=2).encode() + b"\n"
        )

    @staticmethod
    def _sidecar_status(path: Path) -> str:
        from repro.query.indexfile import load_fresh_index

        index, _reason = load_fresh_index(path)
        return INDEX_READY if index is not None else INDEX_NONE

    @staticmethod
    def _validate_slog_bytes(name: str, data: bytes) -> None:
        from repro.utils.slog import SlogFile

        try:
            SlogFile(f"<upload:{name}>", source=MemorySource(data)).close()
        except FormatError as exc:
            raise RepositoryError(f"dataset {name!r}: {exc}") from exc

    def _start_index_build(self, dataset: Dataset) -> None:
        dataset.index_status = INDEX_PENDING
        thread = threading.Thread(
            target=self._build_index,
            args=(dataset,),
            name=f"uteidx-{dataset.name}",
            daemon=True,
        )
        thread.start()

    def _build_index(self, dataset: Dataset) -> None:
        from repro.query import (
            build_index, index_path_for, load_fresh_index, open_trace, write_index,
        )

        dataset.index_status = INDEX_BUILDING
        try:
            # A fresh sidecar (an atomic same-content replace keeps one
            # fresh) needs no work at all; anything else is rebuilt.
            if load_fresh_index(dataset.path)[0] is None:
                with open_trace(dataset.path) as handle:
                    index = build_index(handle)
                write_index(index, index_path_for(dataset.path))
        except Exception as exc:  # build failures degrade, never crash
            dataset.index_status = INDEX_FAILED
            dataset.index_error = str(exc)
            with self._lock:
                self.index_builds_failed += 1
        else:
            dataset.index_status = INDEX_READY
            with self._lock:
                session = self._sessions.get(dataset.name)
            if session is not None:
                session.reload_index()
        finally:
            dataset.index_done.set()


def _trace_bytes(path: Path) -> int:
    """Size of a dataset's trace: the file itself, or the live container's
    published data while the final file does not exist yet."""
    if path.exists():
        return path.stat().st_size
    from repro.live.container import data_path, live_dir_for

    try:
        return data_path(live_dir_for(path)).stat().st_size
    except OSError:
        return 0


def _now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
