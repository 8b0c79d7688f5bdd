"""The one window-overlap predicate every read path shares.

Four independent paths answer "which records fall in a time window" —
``ute-dump --window``, the query engine (and through it ``ute-stats``,
``ute-query``, and the analysis loaders), the serve daemon, and the
reader-level :meth:`~repro.core.reader.IntervalReader.intervals_between`.
They all call :func:`overlaps_window` — with a copy each, a one-character
drift (``<`` vs ``<=``) would make two paths disagree at window boundaries —
and the differential oracle (:mod:`repro.difftool.oracle`) pins the agreement.

Semantics (closed-interval overlap):

* A record/frame ``[start, end]`` overlaps window ``[t0, t1]`` unless it
  ends before the window opens (``end < t0``) or starts after it closes
  (``start > t1``).  Both boundaries are **inclusive**: a record touching
  a window edge with a single tick is in.
* ``None`` on either side means that side is open (unbounded).
* Zero-length records (``start == end``) overlap any window containing
  that single tick — including zero-length windows at the same tick.

Windows arrive from users as ``T0:T1`` text in **seconds**:
:func:`parse_window` is the one parser and :func:`seconds_to_ticks` the one
conversion to integer ticks (truncating).  Both refuse non-finite values
with a :class:`~repro.errors.FormatError`, so ``nan``/``inf`` from a command
line or a query string is a usage error, never an ``int()`` traceback.
"""

from __future__ import annotations

import math

from repro.errors import FormatError

__all__ = ["overlaps_window", "parse_window", "seconds_to_ticks", "window_to_ticks"]


def overlaps_window(
    start: int,
    end: int,
    t0: int | None,
    t1: int | None,
) -> bool:
    """True when the closed span ``[start, end]`` overlaps ``[t0, t1]``.

    ``None`` bounds are open.  Both span and window boundaries are
    inclusive, so a span touching a window edge counts as overlapping.
    """
    if t0 is not None and end < t0:
        return False
    if t1 is not None and start > t1:
        return False
    return True


def seconds_to_ticks(seconds: float, ticks_per_sec: float) -> int:
    """An instant in seconds as integer ticks (truncating toward zero)."""
    ticks = seconds * ticks_per_sec
    if not math.isfinite(ticks):
        raise FormatError(f"time {seconds!r}s is out of range")
    return int(ticks)


def parse_window(text: str) -> tuple[float | None, float | None]:
    """Parse a ``T0:T1`` time window in seconds; either side may be empty
    to leave it open (``:2.5``, ``1.0:``)."""
    lo, sep, hi = text.partition(":")
    try:
        if not sep:
            raise ValueError
        t0 = float(lo) if lo.strip() else None
        t1 = float(hi) if hi.strip() else None
    except ValueError:
        raise FormatError(f"bad window {text!r}; expected T0:T1 in seconds") from None
    if not all(t is None or math.isfinite(t) for t in (t0, t1)):
        raise FormatError(f"bad window {text!r}; bounds must be finite")
    if t0 is not None and t1 is not None and t1 < t0:
        raise FormatError(f"empty window {text!r}")
    return t0, t1


def window_to_ticks(
    window: tuple[float | None, float | None] | None,
    ticks_per_sec: float,
) -> tuple[int | None, int | None]:
    """A (t0, t1) window in seconds as integer ticks (``None`` passes
    through as the open bound; ``None`` window means fully open)."""
    if window is None:
        return (None, None)
    t0, t1 = window
    return (
        None if t0 is None else seconds_to_ticks(t0, ticks_per_sec),
        None if t1 is None else seconds_to_ticks(t1, ticks_per_sec),
    )
