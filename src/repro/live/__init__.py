"""Live traces: streaming ingest, incremental indexing, follow mode.

The subsystem turns an interval/SLOG file into an appendable, tail-able
object.  A growing trace lives in a ``<path>.live/`` container
(:mod:`repro.live.container`): sealed frames append to a data member and
become visible only when a *frame-directory epoch* — the manifest naming
exactly the readable frames — is atomically re-published, together with
an incrementally maintained ``.uteidx`` sidecar.  Readers
(:mod:`repro.live.reader`) pin an epoch, never observe a torn tail, and
advance monotonically; writers (:mod:`repro.live.writer`) assemble the
ordinary ``.slog``/``.ute`` file at close.  :class:`FollowReader` is the
one live→final state machine: ``ute-tail`` and every served dataset
(``repro.serve.session``, hence the ``/follow/*`` endpoints) follow a
trace through it, so they switch to the assembled file the same way.
``ute-trace --live`` drives the writers.
"""

from repro.live.container import (
    EpochManifest,
    has_live_container,
    live_dir_for,
    read_manifest,
)
from repro.live.driver import replay_live
from repro.live.reader import FollowEvent, FollowReader, LiveReader
from repro.live.writer import LiveIntervalWriter, LiveSlogWriter

__all__ = [
    "EpochManifest",
    "FollowEvent",
    "FollowReader",
    "LiveIntervalWriter",
    "LiveReader",
    "LiveSlogWriter",
    "has_live_container",
    "live_dir_for",
    "read_manifest",
    "replay_live",
]
