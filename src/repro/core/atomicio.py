"""Crash-safe file output: write to a temp sibling, fsync, atomic rename.

Every writer in the pipeline publishes its output in one step: bytes go to
a *dot-prefixed* temp sibling in the destination directory (so shell globs
and directory scans never pick it up), get flushed and fsynced, and only
then replace the final name with :func:`os.replace` — atomic on POSIX and
Windows when source and destination share a directory, which the sibling
placement guarantees.  The parent directory is fsynced after the rename so
the *name* is durable too.

The consequence the crash-injection tests assert: a file under its final
name is always complete.  A process killed mid-write leaves at worst a
temp sibling (recognizable via :func:`is_temp_artifact`, ignorable, safe
to delete) — never a half-written `.ute`/`.slog` that a later pipeline
stage would trust.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

from repro.errors import FormatError

#: Temp siblings look like ``.<final-name>.tmp-<pid>``.
_TEMP_MARKER = ".tmp-"


def temp_path_for(path: str | Path) -> Path:
    """The temp sibling a writer for ``path`` stages its bytes in."""
    path = Path(path)
    return path.with_name(f".{path.name}{_TEMP_MARKER}{os.getpid()}")


def is_temp_artifact(path: str | Path) -> bool:
    """Whether ``path`` names a writer's temp sibling (leftover after a
    crash: ignorable and safe to delete)."""
    name = Path(path).name
    return name.startswith(".") and _TEMP_MARKER in name


def fsync_directory(directory: str | Path) -> None:
    """Make a completed rename in ``directory`` durable (best effort: some
    filesystems refuse to fsync directories; the rename itself is still
    atomic there)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class AtomicFile:
    """A seekable binary file whose bytes appear at ``path`` only on commit.

    Until :meth:`commit`, everything lives in the temp sibling; an
    :meth:`abort` (or an exception leaving the ``with`` block) unlinks it
    and the final name is untouched — whatever was there before, including
    a previous good version, survives."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.temp_path = temp_path_for(self.path)
        # w+b: the interval writer seeks backwards to backpatch directory
        # links, so the staged file must be readable-positionable too.
        self._fh: io.BufferedRandom | None = open(self.temp_path, "w+b")

    # ------------------------------------------------------- file-like API

    def write(self, data: bytes) -> int:
        return self._require().write(data)

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        return self._require().seek(offset, whence)

    def tell(self) -> int:
        return self._require().tell()

    def flush(self) -> None:
        self._require().flush()

    # ----------------------------------------------------------- lifecycle

    @property
    def committed(self) -> bool:
        """Whether the bytes have been published at the final name."""
        return self._fh is None and not self.temp_path.exists()

    def commit(self) -> Path:
        """Flush, fsync, and atomically publish the bytes at ``path``."""
        fh = self._fh
        if fh is None:
            return self.path
        self._fh = None
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(self.temp_path, self.path)
        fsync_directory(self.path.parent)
        return self.path

    def abort(self) -> None:
        """Discard the staged bytes; the final name is untouched
        (idempotent, and a no-op after commit)."""
        fh = self._fh
        if fh is None:
            return
        self._fh = None
        fh.close()
        self.temp_path.unlink(missing_ok=True)

    def _require(self) -> io.BufferedRandom:
        if self._fh is None:
            raise FormatError(f"atomic file for {self.path} already finalized")
        return self._fh

    def __enter__(self) -> "AtomicFile":
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.commit()


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Publish ``data`` at ``path`` crash-safely in one call."""
    with AtomicFile(path) as fh:
        fh.write(data)
    return Path(path)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Publish ``text`` (UTF-8) at ``path`` crash-safely, making its
    directory first — how the viewer's SVG and HTML artifacts are written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return atomic_write_bytes(path, text.encode())
