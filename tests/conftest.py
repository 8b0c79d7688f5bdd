"""Shared fixtures: the golden corpus and hypothesis CI profiles.

The corpus (``tests/data/``) is a set of committed known-good and
known-damaged trace artifacts with a manifest describing each file's
damage and expected recovery outcome — see ``tests/data/generate_corpus.py``
for how it was built and how to regenerate it.

Hypothesis profiles: the default settings run on every PR; the scheduled
fuzz job selects the deeper ``ci-long`` profile with
``--hypothesis-profile=ci-long``.  A test that sets its own example count
takes it from :func:`max_examples`, which deepens it under ``ci-long``.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import settings

from repro.core.bytesource import ByteSource, FileSource, MemorySource, MmapSource

settings.register_profile("ci-long", max_examples=1500, deadline=None)

#: How many times its own example count a test runs under ``ci-long``.
CI_LONG_FACTOR = 10


def max_examples(n: int) -> int:
    """A test's explicit example count: ``n`` under the default profile,
    ``CI_LONG_FACTOR * n`` under ``ci-long`` (an explicit ``max_examples``
    overrides the profile's, so a bare ``n`` would stay shallow there).
    Read when the test module is imported, after the profile is loaded."""
    deep = settings.default is settings.get_profile("ci-long")
    return n * CI_LONG_FACTOR if deep else n

DATA_DIR = Path(__file__).resolve().parent / "data"

#: The byte-source backends the reader parity tests run over.
SOURCE_KINDS = ("memory", "mmap", "file")


def byte_source(kind: str, path: str | Path) -> ByteSource:
    """A ``kind`` backend over ``path``, for a reader's ``source=`` — the
    one way a test picks a backend (readers open theirs with
    ``open_source``).  An injected source stays the caller's when the
    reader refuses the file: open it in a ``with``."""
    if kind == "memory":
        return MemorySource(Path(path).read_bytes())
    if kind == "mmap":
        return MmapSource(path)
    return FileSource(path)


@dataclass(frozen=True)
class Corpus:
    """The golden corpus: artifact paths plus their manifest entries."""

    root: Path
    manifest: dict

    def path(self, name: str) -> Path:
        """Absolute path of one committed artifact."""
        target = self.root / name
        assert target.exists(), f"corpus artifact missing: {name}"
        return target

    def damaged(self, kind: str | None = None) -> list[str]:
        """Names of damaged artifacts, optionally of one kind."""
        return sorted(
            name
            for name, info in self.manifest.items()
            if info["damage"] is not None
            and (kind is None or info["kind"] == kind)
        )


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    """The committed golden corpus (read-only — copy before mutating)."""
    manifest = json.loads((DATA_DIR / "manifest.json").read_text())
    return Corpus(DATA_DIR, manifest)


@pytest.fixture()
def corpus_copy(corpus, tmp_path):
    """Copy one corpus artifact into ``tmp_path`` for tests that write."""

    def _copy(name: str) -> Path:
        dest = tmp_path / name
        shutil.copyfile(corpus.path(name), dest)
        return dest

    return _copy
